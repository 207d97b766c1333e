#!/usr/bin/env python3
"""Record the end-to-end benchmark metrics of one checkout in BENCH_<label>.json.

Runs `perfbench/run.py --trace 0` of the checkout at --root for each
workload, one after the other (about two minutes in all), and writes
BENCH_<label>.json at the root of this repository: the label, the commit
and `src/` digest that the runs report, and each workload's end-to-end
metrics from the last line of its output.

    python3 scripts/bench.py --label edge-memo
    python3 scripts/bench.py --label baseline --root DIR --commit SHA
    python3 scripts/bench.py --pairs 10 --parent DIR --workload tower-wp --seed 9
    python3 scripts/bench.py --pairs 5 --parent DIR

--commit names the commit for a checkout with no .git (a `git archive`
copy, say), where run.py cannot read it.

With --pairs N it writes no BENCH file.  It runs N pairs of --workload,
or of each workload in turn when it is omitted, the checkout at --parent
and the one at --root in each pair, the parent first in every other pair.
For each end-to-end metric it prints the median of each side, the
interquartile range of the parent's runs, the number of pairs that the
--root checkout won (a tie wins for neither side), whether the --root
median is within the metric's BENCHMARK.json bound of the parent's (worse
by at most that fraction of the parent's median) and whether it is a
gain: at least ten pairs ran, the change won at least nine tenths of
them, and its median is better than the parent's by more than the
parent's interquartile range.  Each workload's header line counts the
runs of each side whose correctness checks failed.

Either mode exits 1 when any run's checks failed.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("limit-corpus", "witness-race", "tower-wp")


def run_workload(root: pathlib.Path, workload: str, seed: int) -> str:
    """stdout of one run.py run; a run whose checks fail (exit 1) is
    returned too, and reports `"correct": false` on its last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def _context(stdout: str) -> dict:
    """The `# {...}` line in which run.py reports seed, commit and digest."""
    for line in stdout.splitlines():
        if line.startswith("# {"):
            return json.loads(line[2:])
    return {}


def write_bench(path: pathlib.Path, label: str, outputs: dict, commit=None) -> dict:
    """Write the BENCH record for run.py outputs keyed by workload; returns it."""
    contexts = {w: _context(out) for w, out in outputs.items()}
    digests = {c.get("src_sha256") for c in contexts.values()}
    if len(digests) != 1:
        raise ValueError(f"the runs measured different sources: {sorted(map(str, digests))}")
    workloads = {}
    for workload, out in outputs.items():
        last = _last(out)
        workloads[workload] = {
            "seed": contexts[workload].get("seed"),
            "correct": last["correct"],
            "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: m["value"] for k, m in last["metrics"].items()},
        }
    first = next(iter(contexts.values()))
    record = {
        "label": label,
        "commit": commit or first.get("commit"),
        "src_sha256": digests.pop(),
        "python": first.get("python"),
        "nproc": first.get("nproc"),
        "workloads": workloads,
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def _last(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _metrics(stdout: str) -> dict:
    return {k: m["value"] for k, m in _last(stdout)["metrics"].items()}


def failed_checks(pairs) -> tuple[int, int]:
    """How many runs of the parent and of the change, in pairs of run.py
    outputs, failed their correctness checks."""
    return tuple(sum(not _last(out)["correct"] for out in side) for side in zip(*pairs))


def compare_pairs(pairs) -> list:
    """One row per end-to-end metric of BENCHMARK.json for run.py outputs
    paired as (parent, change): the metric, each side's median, the
    parent's interquartile range, the pairs the change won, whether the
    change's median is worse than the parent's by at most the metric's
    bound, read as a fraction of the parent's median, and whether the
    change gained: at least ten pairs ran, it won at least 9 in 10 of
    them and its median is better by more than the parent's
    interquartile range."""
    runs = [(_metrics(parent), _metrics(change)) for parent, change in pairs]
    rows = []
    for spec in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        old = [p[name] for p, _ in runs]
        new = [c[name] for _, c in runs]
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else old * 3
        won = sum(sign * (c - p) > 0 for p, c in zip(old, new))
        old_med, new_med = statistics.median(old), statistics.median(new)
        within = sign * (new_med - old_med) >= -spec["bound"] * abs(old_med)
        gain = len(runs) >= 10 and 10 * won >= 9 * len(runs) and sign * (new_med - old_med) > q3 - q1
        rows.append((name, old_med, new_med, q3 - q1, won, within, gain))
    return rows


def run_pairs(parent: pathlib.Path, change: pathlib.Path, workload: str, seed: int, n: int) -> list:
    """n (parent, change) pairs of run.py outputs; the parent runs first
    in the even pairs."""
    pairs = []
    for i in range(n):
        first, second = (parent, change) if i % 2 == 0 else (change, parent)
        outs = [run_workload(first, workload, seed), run_workload(second, workload, seed)]
        pairs.append(tuple(outs if i % 2 == 0 else outs[::-1]))
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label")
    ap.add_argument("--root", type=pathlib.Path, default=REPO,
                    help="checkout whose perfbench/run.py and src/ are measured")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--commit", help="commit of a checkout with no .git")
    ap.add_argument("--pairs", type=int, help="run this many pairs against --parent")
    ap.add_argument("--parent", type=pathlib.Path, help="the checkout that --pairs compares with")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="the workload that --pairs runs (default: each in turn)")
    args = ap.parse_args(argv)
    if args.pairs is not None:
        if args.parent is None or args.pairs < 1:
            ap.error("--pairs needs a positive count and --parent")
        failed = False
        for workload in [args.workload] if args.workload else WORKLOADS:
            pairs = run_pairs(args.parent.resolve(), args.root.resolve(), workload, args.seed, args.pairs)
            bad = failed_checks(pairs)
            failed = failed or any(bad)
            print(f"{workload} seed {args.seed}, {args.pairs} pairs, "
                  f"failed checks: parent {bad[0]}, change {bad[1]}")
            print(f"{'metric':<14} {'parent':>10} {'change':>10} {'parent IQR':>11}  won  in bound  gain")
            for name, old, new, iqr, won, within, gain in compare_pairs(pairs):
                print(f"{name:<14} {old:>10.7g} {new:>10.7g} {iqr:>11.3g}  "
                      f"{won}/{args.pairs}  {'yes' if within else 'no'}  {'yes' if gain else 'no'}")
        return int(failed)
    if args.label is None:
        ap.error("--label is required without --pairs")
    outputs = {w: run_workload(args.root.resolve(), w, args.seed) for w in WORKLOADS}
    path = REPO / f"BENCH_{args.label}.json"
    record = write_bench(path, args.label, outputs, args.commit)
    for workload, rec in record["workloads"].items():
        m = rec["metrics"]
        print(f"{workload:<14} wall_s {m['wall_s']:.3f}  steps {m['steps']}  "
              f"peak_rss_mib {m['peak_rss_mib']:.1f}  correct {rec['correct']}")
    print(f"wrote {path}")
    return int(not all(rec["correct"] for rec in record["workloads"].values()))


if __name__ == "__main__":
    sys.exit(main())
