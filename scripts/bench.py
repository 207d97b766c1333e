#!/usr/bin/env python3
"""Record the end-to-end benchmark metrics of one checkout in BENCH_<label>.json.

Runs `perfbench/run.py --trace 0` of the checkout at --root for each
workload, one after the other (about two minutes in all), and writes
BENCH_<label>.json at the root of this repository: the label, the commit
and `src/` digest that the runs report, and each workload's end-to-end
metrics from the last line of its output.

    python3 scripts/bench.py --label edge-memo
    python3 scripts/bench.py --label baseline --root DIR --commit SHA

--commit names the commit for a checkout with no .git (a `git archive`
copy, say), where run.py cannot read it.
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("limit-corpus", "witness-race", "tower-wp")


def run_workload(root: pathlib.Path, workload: str, seed: int) -> str:
    """stdout of one run.py run; a run whose checks fail still counts."""
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
        last = json.loads(out.strip().splitlines()[-1])
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", type=pathlib.Path, default=REPO,
                    help="checkout whose perfbench/run.py and src/ are measured")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--commit", help="commit of a checkout with no .git")
    args = ap.parse_args(argv)
    outputs = {w: run_workload(args.root.resolve(), w, args.seed) for w in WORKLOADS}
    path = REPO / f"BENCH_{args.label}.json"
    record = write_bench(path, args.label, outputs, args.commit)
    for workload, rec in record["workloads"].items():
        m = rec["metrics"]
        print(f"{workload:<14} wall_s {m['wall_s']:.3f}  steps {m['steps']}  "
              f"peak_rss_mib {m['peak_rss_mib']:.1f}  correct {rec['correct']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
