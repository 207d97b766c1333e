#!/usr/bin/env python3
"""Budget sweep for the recognition engine.

For each row of the bundled ground-truth corpus (`limitforge.cli.CORPUS`,
the table `limitforge corpus` runs, genus two included), run
recognize_limit at a ladder of budgets and print the verdict and the
steps actually spent.  A row with a budget cap runs at the smaller of
the cap and the ladder budget, as `limitforge corpus` does.  Shows where
each input flips from Unknown to a definite verdict, which is the number
that matters when picking a default budget.

    python3 scripts/recognition_budgets.py [--ladder 1000,10000,...]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from limitforge.cli import CORPUS, corpus_verdict

DEFAULT_LADDER = (1_000, 10_000, 100_000, 1_000_000)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--ladder",
        default=",".join(str(x) for x in DEFAULT_LADDER),
        help="comma separated budgets to try",
    )
    args = ap.parse_args()
    ladder = [int(x) for x in args.ladder.split(",")]

    width = max(len(row[0]) for row in CORPUS) + 2
    header = f"{'group':<{width}}" + "".join(f"{b:>16}" for b in ladder)
    print(header)
    print("-" * len(header))
    for row in CORPUS:
        cells = []
        for budget in ladder:
            v = corpus_verdict(row, budget)
            cells.append(f"{type(v).__name__}/{v.report['used']}")
        print(f"{row[0]:<{width}}" + "".join(f"{c:>16}" for c in cells))


if __name__ == "__main__":
    main()
