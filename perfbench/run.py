"""limitforge benchmark: three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload limit-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One parent process runs each input in a
fresh child interpreter, one child at a time, so the module-global caches
start cold as they do for a `limitforge recognize` call.  With --trace 0
the run repeats whole passes over the workload's inputs for --seconds and
prints the end-to-end metrics (medians over passes).  With --trace 1 it
makes one untraced and one traced pass and prints the per-layer metrics.
The last line of stdout is the JSON result; the exit code is 0 only when
every correctness and determinism check passed.  perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import cases

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("limit-corpus", "witness-race", "tower-wp")

RUN_LIMIT_S = 170  # the whole run, children included, ends within this
CHILD_TIMEOUT_S = 120  # a child still running after this is killed
SETUP_SAMPLES = 4  # set-up time samples per input in a --trace 0 run

LAYER_UNITS = {"self_s": "s", "hit_rate": "ratio", "pass_rate": "ratio",
               "cache_hit_rate": "ratio", "memo_hit_rate": "ratio"}
HIGHER_IS_BETTER = {"hit_rate", "pass_rate", "cache_hit_rate", "memo_hit_rate", "emissions"}

# per-layer metric -> (tracer layer, counter); rates are (numerator, denominator)
LAYER_METRICS = {
    "coset.low_index.calls": ("coset.low_index", "calls"),
    "coset.low_index.distinct": ("coset.low_index", "distinct"),
    "coset.low_index.self_s": ("coset.low_index", "self_s"),
    "coset.rs.calls": ("coset.rs", "calls"),
    "coset.rs.distinct": ("coset.rs", "distinct"),
    "coset.rs.self_s": ("coset.rs", "self_s"),
    "coset.todd_coxeter.calls": ("coset.todd_coxeter", "calls"),
    "coset.todd_coxeter.self_s": ("coset.todd_coxeter", "self_s"),
    "retracts.search.started": ("retracts.search", "started"),
    "retracts.search.steps": ("retracts.search", "steps"),
    "retracts.search.hit_rate": ("retracts.search", ("hits", "started")),
    "retracts.search.self_s": ("retracts.search", "self_s"),
    "retracts.present.calls": ("retracts.present", "calls"),
    "retracts.present.self_s": ("retracts.present", "self_s"),
    "abelian.solve.calls": ("abelian.solve", "calls"),
    "abelian.solve.pass_rate": ("abelian.solve", ("passes", "calls")),
    "abelian.solve.self_s": ("abelian.solve", "self_s"),
    "freegroup.eval_hom.calls": ("freegroup.eval_hom", "calls"),
    "freegroup.eval_hom.self_s": ("freegroup.eval_hom", "self_s"),
    "presentation.tietze.calls": ("presentation.tietze", "calls"),
    "presentation.tietze.self_s": ("presentation.tietze", "self_s"),
    "presentation.expand.nodes": ("presentation.expand", "nexts"),
    "presentation.expand.self_s": ("presentation.expand", "self_s"),
    "presentation.normalize.calls": ("presentation.normalize", "calls"),
    "presentation.normalize.self_s": ("presentation.normalize", "self_s"),
    "ice.enum.rounds": ("ice.enum", "calls"),
    "ice.enum.emissions": ("ice.enum", "emissions"),
    "ice.enum.steps": ("ice.enum", "steps"),
    "ice.enum.self_s": ("ice.enum", "self_s"),
    "ice.towers.nexts": ("ice.towers", "nexts"),
    "ice.towers.self_s": ("ice.towers", "self_s"),
    "ice.wp.calls": ("ice.wp", "calls"),
    "ice.wp.self_s": ("ice.wp", "self_s"),
    "ice.wp.cache_hit_rate": ("ice.wp", ("cache_hits", "cache_lookups")),
    "ice.centralizer.calls": ("ice.centralizer", "calls"),
    "ice.centralizer.self_s": ("ice.centralizer", "self_s"),
    "recognize.certify.spent": ("recognize.certify", "spent"),
    "recognize.certify.candidates": ("recognize.certify", "candidates"),
    "recognize.certify.hit_rate": ("recognize.certify", ("hits", "candidates")),
    "recognize.certify.self_s": ("recognize.certify", "self_s"),
    "recognize.refute.calls": ("recognize.refute", "calls"),
    "recognize.refute.self_s": ("recognize.refute", "self_s"),
    "oracles.query.calls": ("oracles.query", "calls"),
    "oracles.query.memo_hit_rate": ("oracles.query", ("memo_hits", "calls")),
    "oracles.query.self_s": ("oracles.query", "self_s"),
    "cache.schreier.hit_rate": ("cache.schreier", ("cache_hits", "cache_lookups")),
    "cache.word_pool.hit_rate": ("cache.word_pool", ("cache_hits", "cache_lookups")),
    "cache.presentation_of.hit_rate": ("cache.presentation_of", ("cache_hits", "cache_lookups")),
    "cache.tower_names.hit_rate": ("cache.tower_names", ("cache_hits", "cache_lookups")),
    "cache.edge_class.hit_rate": ("cache.edge_class", ("cache_hits", "cache_lookups")),
}


def input_names() -> list[str]:
    return [c["name"] for c in cases.LIMIT_CORPUS + cases.WITNESS_RACE] + list(cases.TOWER_INPUTS)


def per_layer_spec() -> list[dict]:
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    out = []
    for name in LAYER_METRICS:
        kind = name.rsplit(".", 1)[1]
        better = "higher" if kind in HIGHER_IS_BETTER else "lower"
        out.append({"name": name, "unit": LAYER_UNITS.get(kind, "count"), "better": better})
    out.append({"name": "unwrapped.self_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    for name in input_names():
        out.append({"name": f"input_s.{name}", "unit": "s", "better": "lower"})
        out.append({"name": f"input_steps.{name}", "unit": "count", "better": "lower"})
    return out


# ---------------------------------------------------------------------------
# Children


def run_child(spec: dict, trace: bool, deadline: float, full_checks: bool = True,
              setup_only: bool = False) -> dict:
    """Run one input in a fresh interpreter; a failure comes back as a
    result with `error` set, never as an exception."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout < 1:
        return {"name": spec["name"], "error": "not run: the run is out of time"}
    job = json.dumps({"root": ROOT, "trace": trace, "full_checks": full_checks,
                      "setup_only": setup_only, "input": spec})
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(job, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and anything it started
        proc.communicate()
        return {"name": spec["name"], "error": f"killed after {timeout:.0f} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"name": spec["name"], "error": f"exit {proc.returncode}: {tail}"}
    res = json.loads(lines[-1])
    res["name"] = spec["name"]
    res["raw_setup_s"] = res["ready"] - spawned
    res["setup_s"] = res["raw_setup_s"] * res["start_speed"]
    return res


def judge(spec: dict, res: dict) -> None:
    """Check a child's answers against the frozen ground truth; adds the
    problems found and the number of failed operations to res."""
    problems = res.setdefault("problems", [])
    if "error" in res:
        problems.append(res["error"])
        res["ops"] = len(spec["words"]) if spec["kind"] == "towers" else 1
        res["failed"] = res["ops"]
        return
    if spec["kind"] == "towers":
        bad = set()
        for k, ((i, word), trivial, answer, basis) in enumerate(
            zip(spec["words"], spec["trivial"], res["answers"], res["bases"])
        ):
            tower = cases.TOWERS[i]
            if trivial and answer is not True:
                bad.add(k)
                problems.append(f"word {k}: built trivial, wp_ice says nontrivial")
            if answer is not False and cases.known_nontrivial(tower, word):
                bad.add(k)
                problems.append(f"word {k}: free image is nontrivial, wp_ice says trivial")
            for b in basis or ():
                if cases.known_nontrivial(tower, cases.commutator(b, word)):
                    bad.add(k)
                    problems.append(f"word {k}: centralizer element does not commute")
        res["failed"] = max(len(bad), 1 if problems else 0)
        return
    if res["verdict"] not in spec["accepted"]:
        problems.append(f"verdict {res['verdict']}, expected {'/'.join(spec['accepted'])}")
    res["failed"] = 1 if problems else 0


def run_pass(specs: list[dict], trace: bool, deadline: float, full_checks: bool) -> dict:
    children = []
    for spec in specs:
        res = run_child(spec, trace, deadline, full_checks)
        judge(spec, res)
        res.pop("answers", None)  # judged; too bulky to keep
        res.pop("bases", None)
        children.append(res)
    ok = [c for c in children if "error" not in c]
    return {
        "trace": trace,
        "children": children,
        "wall_s": sum(c["wall_s"] for c in ok),
        "raw_wall_s": sum(c["raw_wall_s"] for c in ok),
        "setup_s": sum(c["setup_s"] for c in ok),
        "steps": sum(c["steps"] for c in ok),
        "peak_rss_mib": max((c["rss_kib"] / 1024 for c in ok), default=0.0),
        "ops": sum(c["ops"] for c in children),
        "decided": sum(c.get("decided", 0) for c in children),
        "failed": sum(c["failed"] for c in children),
        # an operation fails if it breaks a check or overruns its budget
        "not_ok": sum(max(c["failed"], c.get("overruns", 0)) for c in children),
    }


# ---------------------------------------------------------------------------
# Determinism


def src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def layer_counts(layers: dict) -> dict:
    return {f"{name}.{k}": v for name, rec in sorted(layers.items())
            for k, v in sorted(rec.items()) if k != "self_s"}


def fingerprint(res: dict) -> dict:
    out = {k: res.get(k) for k in ("verdict", "steps", "witness")}
    if res.get("layers") is not None:
        out["layers"] = layer_counts(res["layers"])
    return out


def check_determinism(specs, passes, digest) -> list[str]:
    """Verdicts, steps and per-layer counts must repeat exactly: between
    the passes of this run, and against earlier runs of the same source
    on the same input (kept in perfbench/results/fingerprints.json)."""
    problems = []
    path = os.path.join(RESULTS, "fingerprints.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    for i, spec in enumerate(specs):
        key = hashlib.sha256((digest + json.dumps(spec, sort_keys=True)).encode()).hexdigest()[:24]
        for p in passes:
            res = p["children"][i]
            if "error" in res:
                continue
            fp = fingerprint(res)
            for part, value in (("run", {k: fp[k] for k in ("verdict", "steps", "witness")}),
                                ("trace", fp.get("layers"))):
                if value is None:
                    continue
                slot = f"{key}:{part}"
                if slot not in known:
                    known[slot] = value
                elif known[slot] != value:
                    diff = sorted(k for k in set(value) | set(known[slot])
                                  if value.get(k) != known[slot].get(k))
                    problems.append(f"{spec['name']}: {part} differs from an earlier pass or run in {diff}")
    os.makedirs(RESULTS, exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(known, fh, sort_keys=True)
    os.replace(path + ".tmp", path)
    return problems


# ---------------------------------------------------------------------------
# Metrics


def merge_layers(children) -> dict:
    total: dict = {}
    for c in children:
        for name, rec in (c.get("layers") or {}).items():
            acc = total.setdefault(name, {})
            for k, v in rec.items():
                acc[k] = acc.get(k, 0) + v
    for rec in total.values():
        if "cache_hits" in rec:
            rec["cache_lookups"] = rec["cache_hits"] + rec["cache_misses"]
    return total


def input_median_sum(passes, key, extra=None) -> float:
    """Sum over the inputs of each input's median over the passes (and the
    extra samples of each input): one pass's total, with a child slowed by
    the host counted at most once."""
    total = 0.0
    for i in range(len(passes[0]["children"])):
        runs = [p["children"][i] for p in passes] + (extra[i] if extra else [])
        values = [c[key] for c in runs if "error" not in c]
        total += statistics.median(values) if values else 0.0
    return total


def end_to_end(passes, extra_setups) -> dict:
    ops = sum(p["ops"] for p in passes)
    return {
        "wall_s": (input_median_sum(passes, "wall_s"), "s"),
        "setup_s": (input_median_sum(passes, "setup_s", extra_setups), "s"),
        "steps": (passes[0]["steps"], "count"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        "decided_frac": (sum(p["decided"] for p in passes) / ops, "ratio"),
        "ok_frac": (1 - sum(p["not_ok"] for p in passes) / ops, "ratio"),
    }


def per_layer(plain, traced) -> dict:
    layers = merge_layers(traced["children"])
    out = {}
    for name, (layer, key) in LAYER_METRICS.items():
        rec = layers.get(layer, {})
        if isinstance(key, tuple):
            den = rec.get(key[1], 0)
            out[name] = rec.get(key[0], 0) / den if den else 0.0
        else:
            out[name] = rec.get(key, 0.0 if key == "self_s" else 0)
    covered = sum(rec.get("self_s", 0) for rec in layers.values())
    out["unwrapped.self_s"] = traced["wall_s"] - covered
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    by_name = {c["name"]: c for c in plain["children"] if "error" not in c}
    for name in input_names():
        c = by_name.get(name, {})
        out[f"input_s.{name}"] = c.get("wall_s", 0.0)
        out[f"input_steps.{name}"] = c.get("steps", 0)
    units = {m["name"]: m["unit"] for m in per_layer_spec()}
    return {k: (v, units[k]) for k, v in out.items()}


def declared_metrics(trace: bool) -> list[str] | None:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(passes, problems, context) -> None:
    print(f"# {json.dumps(context, sort_keys=True)}")
    for p in passes:
        label = "traced" if p["trace"] else "untraced"
        print(f"# {label} pass: wall {p['wall_s']:.3f} s (raw {p['raw_wall_s']:.3f} s), "
              f"setup {p['setup_s']:.3f} s, "
              f"steps {p['steps']}, peak rss {p['peak_rss_mib']:.1f} MiB")
        for c in p["children"]:
            if "error" in c:
                print(f"#   {c['name']:<16} ERROR {c['error']}")
                continue
            line = (f"#   {c['name']:<16} {c['verdict']:<16} steps {c['steps']:>8} "
                    f"wall {c['wall_s']:8.3f} s  setup {c['setup_s']:.3f} s")
            if c.get("layers"):
                li, rs = c["layers"].get("coset.low_index", {}), c["layers"].get("coset.rs", {})
                line += (f"  low_index {li.get('calls', 0)}/{li.get('distinct', 0)}"
                         f"  rs {rs.get('calls', 0)}/{rs.get('distinct', 0)}")
            print(line)
    for msg in problems[:20]:
        print(f"# PROBLEM {msg}")
    if len(problems) > 20:
        print(f"# PROBLEM ... and {len(problems) - 20} more in perfbench/results/")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "limitforge", "__init__.py")):
        print(f"error: no limitforge sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    trace = bool(args.trace)
    specs = cases.inputs(args.workload, args.seed)
    warm = run_child(specs[0], False, deadline, setup_only=True)
    if "error" in warm:
        print(f"error: warm-up child failed: {warm['error']}", file=sys.stderr)
        return 2

    passes = []
    extra_setups = [[] for _ in specs]
    if trace:
        passes.append(run_pass(specs, False, deadline, True))
        passes.append(run_pass(specs, True, deadline, False))
    else:
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(specs, False, deadline, not passes))
            took = time.monotonic() - t0
            if time.monotonic() - start + took > args.seconds:
                break
        for _ in range(SETUP_SAMPLES - len(passes)):
            for i, spec in enumerate(specs):
                extra_setups[i].append(run_child(spec, False, deadline, setup_only=True))

    digest = src_digest()
    problems = [f"{c['name']}: {m}" for p in passes for c in p["children"] for m in c["problems"]]
    problems += [f"{c['name']} (set-up only): {c['error']}"
                 for runs in extra_setups for c in runs if "error" in c]
    problems += check_determinism(specs, passes, digest)
    metrics = per_layer(*passes) if trace else end_to_end(passes, extra_setups)
    declared = declared_metrics(trace)
    if declared is not None and declared != list(metrics):
        problems.append(f"metrics {list(metrics)} differ from BENCHMARK.json {declared}")

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "src_sha256": digest, "passes": len(passes),
    }
    report(passes, problems, context)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"context": context, "problems": problems, "passes": passes,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1, sort_keys=True)

    failed = sum(p["failed"] for p in passes)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["ops"] for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
