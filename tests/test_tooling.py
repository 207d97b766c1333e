"""Guards on the package surface and the shipped scripts."""

import ast
import hashlib
import importlib
import importlib.util
import json
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import limitforge
from limitforge.ice import centralizer_ice, presentation_of, tower_from_json, wp_ice
from limitforge.words import Word

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(limitforge.__path__):
        module = importlib.import_module(f"limitforge.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names {name}"


def _imported_modules(path: pathlib.Path) -> set:
    """Names of the limitforge modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("limitforge."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("limitforge."):
                    found.add(alias.name.split(".")[1])
    return found


def test_every_module_is_imported_by_the_package():
    """A module that no other package module imports is API that nothing
    calls.  The exceptions are the entry points `__init__` and `cli`."""
    package = pathlib.Path(limitforge.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py")}
    imported = set()
    for name, path in modules.items():
        imported |= _imported_modules(path) - {name}
    orphans = set(modules) - imported - {"__init__", "cli"}
    assert not orphans, f"modules nothing in the package imports: {sorted(orphans)}"


def test_no_module_imports_a_private_name():
    """An underscore name belongs to its module, so no other package module
    imports one.  The exemptions are `words._set`, the storage protocol
    of `words.Value`, and `retracts._REPRICE`, the marker of `Metered`."""
    package = pathlib.Path(limitforge.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update(
                    (path.stem, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    private = {(module, name) for module, name in found
               if name not in ("words._set", "retracts._REPRICE")}
    assert not private, sorted(private)


def test_no_module_global_caches():
    """Caches live on the table, graph, tower, atlas or run they
    describe, so a run frees them with its objects: no module holds an
    `lru_cache`, nor a dict, list or set that code could fill.
    `__builtins__` is the interpreter's."""
    found = set()
    for info in pkgutil.iter_modules(limitforge.__path__):
        module = importlib.import_module(f"limitforge.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                found.add(f"{value.__module__}.{value.__qualname__}")
            elif isinstance(value, (dict, list, set)) and name not in ("__all__", "__builtins__"):
                found.add(f"{module.__name__}.{name}")
    assert found == set()


def test_package_imports_lean():
    """Every call imports the package before it does any work, so the
    import loads no module that only some runs need: value classes are
    slotted classes, not dataclasses (whose import pulls in `inspect`),
    and the process modules load when an external oracle starts.  The
    check compares against the modules loaded before the import, since
    `site` may preload some of them."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "before = set(sys.modules)\n"
        "import limitforge.recognize, limitforge.ice, limitforge.oracles\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    added = set(out.split())
    assert "limitforge.oracles" in added
    assert not added & {"dataclasses", "inspect", "subprocess", "select", "atexit"}


def test_tower_engine_loads_without_the_enumeration():
    """The tower word problem and centralizers need only `words`,
    `freegroup` and `abelian`; the enumeration's modules load when an
    enumeration runs, so a call that only decides tower words compiles
    none of them."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from limitforge.ice import centralizer_ice, tower_from_json, wp_ice\n"
        "from limitforge.words import Word, commutator\n"
        "t = tower_from_json({'base_rank': 2, 'steps': [{'g': 'a', 'n': 1}]})\n"
        "a, b, t3 = Word((1,)), Word((2,)), Word((3,))\n"
        "assert wp_ice(t, commutator(a, t3)) is True\n"
        "assert wp_ice(t, commutator(b, t3)) is False\n"
        "assert len(centralizer_ice(t, a)) == 2\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('limitforge'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    loaded = set(out.split())
    assert "limitforge.ice" in loaded
    enumeration = {"limitforge." + m for m in ("presentation", "coset", "oracles", "retracts")}
    assert not loaded & enumeration, sorted(loaded & enumeration)


def test_recognition_budgets_script_runs():
    script = ROOT / "scripts" / "recognition_budgets.py"
    out = subprocess.run(
        [sys.executable, str(script), "--ladder", "200"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == 2 + 9  # header, rule, one line per corpus row
    assert lines[-1].startswith("genus two surface")
    for line in lines[2:]:
        verdict, used = line.split()[-1].split("/")
        assert verdict in ("Limit", "NotLimit", "Unknown")
        assert int(used) <= 200


def test_benchmark_tracer_installs():
    """The benchmark tracer wraps entry points by name; a renamed one
    makes install() raise.  Its counters also read attributes of the
    searches (`RetractionSearch.steps`, `LimitEnumeration.steps`,
    `CertifySearch.spent`), so one short traced call of each must count
    steps, where a renamed attribute raises or counts nothing."""
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "from limitforge.ice import LimitEnumeration\n"
        "from limitforge.oracles import free_oracle\n"
        "from limitforge.presentation import parse\n"
        "from limitforge.recognize import CertifySearch\n"
        "from limitforge.retracts import RetractionSearch\n"
        "from limitforge.words import Word\n"
        "p = parse('< a, b | >')\n"
        "t.start()\n"
        "RetractionSearch(p, [Word((1, 1)), Word((2,))], free_oracle(p)).run(50)\n"
        "LimitEnumeration().next_round(100)\n"
        "CertifySearch(p, free_oracle(p)).run(100)\n"
        "snap = t.snapshot()\n"
        "print(json.dumps([snap['retracts.search']['steps'], snap['ice.enum']['steps'],\n"
        "                  snap['recognize.certify']['spent']]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    retract_steps, enum_steps, certify_spent = json.loads(out)
    assert retract_steps > 0
    assert enum_steps > 0
    assert certify_spent > 0


def test_benchmark_towers_rebuild_to_their_frozen_data():
    """`perfbench/cases.py` freezes the names, relators and steps of each
    tower-wp tower; a centralizer change that moves one fails here, not
    first in the benchmark.  The file is read and run, not imported, so
    nothing is written beside it."""
    path = ROOT / "perfbench" / "cases.py"
    cases: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), cases)
    for frozen in cases["TOWERS"]:
        t = tower_from_json(frozen["tower"])
        p = presentation_of(t)
        assert list(p.names) == frozen["names"], frozen["tower"]
        assert [list(r.ints) for r in p.relators] == frozen["relators"], frozen["tower"]
        assert [[list(s.g.ints), s.n] for s in t.steps] == frozen["steps"], frozen["tower"]


# perfbench/child.py's verdict digest of each tower-wp input, by seed
TOWER_WP_DIGESTS = {
    1: {"wp-prefix30": "bf4a7a56207f2f2a", "wp-height3": "d486504551c9a012"},
    2: {"wp-prefix30": "1a876182a1e058c0", "wp-height3": "b0c285dc5f62c5fb"},
    3: {"wp-prefix30": "9e41d7a4496eec53", "wp-height3": "0bb1a3dbfac07f11"},
    4: {"wp-prefix30": "2c10ad145c03d8c5", "wp-height3": "d059c7fe9f3b93a0"},
    5: {"wp-prefix30": "b18e0bb573c212ea", "wp-height3": "466a4a2315e31dd8"},
    6: {"wp-prefix30": "4971151bb98b99ea", "wp-height3": "e2fdd1641aa1c141"},
    7: {"wp-prefix30": "5ae5a83d70e223c4", "wp-height3": "cf1a2f77d894e312"},
}


def test_tower_wp_verdicts_keep_their_digests():
    """Each tower-wp input of seeds 1-7, rebuilt from `perfbench/cases.py`
    (read and run, not imported), answers with the verdict digest that
    `perfbench/child.py` computes: sha256 of [answers, bases] as JSON,
    on fresh towers, so every memo starts empty."""
    path = ROOT / "perfbench" / "cases.py"
    cases: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), cases)
    for seed, want in TOWER_WP_DIGESTS.items():
        got = {}
        for spec in cases["inputs"]("tower-wp", seed):
            towers = {int(k): tower_from_json(t) for k, t in spec["towers"].items()}
            answers, bases = [], []
            for i, ints in spec["words"]:
                t, w = towers[i], Word(tuple(ints))
                trivial = wp_ice(t, w)
                answers.append(trivial)
                bases.append(None if trivial else [list(b.ints) for b in centralizer_ice(t, w)])
            digest = hashlib.sha256(json.dumps([answers, bases]).encode()).hexdigest()
            got[spec["name"]] = digest[:16]
        assert got == want, seed


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _end_to_end_metrics() -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _canned_run_output(workload: str, digest: str, values=None, correct=True) -> str:
    """The context line and the last line of a run.py --trace 0 run, each
    metric 1.5 unless `values` gives it, whose checks passed unless
    `correct` is False."""
    context = {"workload": workload, "seed": 1, "seconds": 30, "trace": 0,
               "python": "3.12.0", "nproc": 2, "commit": "0" * 40,
               "src_sha256": digest, "passes": 3}
    values = values or {}
    last = {"correct": correct, "attempted": 9, "failed": 0,
            "metrics": {m["name"]: {"value": values.get(m["name"], 1.5), "unit": m["unit"]}
                        for m in _end_to_end_metrics()}}
    return f"# {json.dumps(context)}\n# untraced pass: wall 1.5 s\n{json.dumps(last)}\n"


def _assert_bench_schema(record: dict, workloads) -> None:
    """record has the fields that scripts/bench.py writes, one entry per
    workload, and every end-to-end metric that BENCHMARK.json declares."""
    assert set(record) == {"label", "commit", "src_sha256", "python", "nproc", "workloads"}
    declared = [m["name"] for m in _end_to_end_metrics()]
    assert list(record["workloads"]) == sorted(workloads)
    for rec in record["workloads"].values():
        assert set(rec) == {"seed", "correct", "attempted", "failed", "metrics"}
        assert sorted(rec["metrics"]) == sorted(declared)


def test_bench_script_writes_its_schema(tmp_path):
    bench = _load_script("bench")
    outputs = {w: _canned_run_output(w, "abcdef0123456789") for w in bench.WORKLOADS}
    path = tmp_path / "BENCH_x.json"
    bench.write_bench(path, "x", outputs)
    record = json.loads(path.read_text())
    _assert_bench_schema(record, bench.WORKLOADS)
    assert (record["label"], record["commit"]) == ("x", "0" * 40)
    assert record["src_sha256"] == "abcdef0123456789"
    assert bench.write_bench(path, "x", outputs, commit="f" * 40)["commit"] == "f" * 40


def test_bench_pairs_report_medians_spread_and_wins(monkeypatch, capsys):
    # wall_s is lower-better, decided_frac higher-better; the change wins
    # the first pair, ties the second and loses the third on each.
    # peak_rss_mib is lower-better with a bound of 0.1: a change median of
    # 23 against 20 is outside it
    bench = _load_script("bench")
    parent = [{"wall_s": 1.0, "decided_frac": 0.5, "peak_rss_mib": 20.0},
              {"wall_s": 2.0, "decided_frac": 0.5, "peak_rss_mib": 20.0},
              {"wall_s": 3.0, "decided_frac": 0.9, "peak_rss_mib": 20.0}]
    change = [{"wall_s": 0.5, "decided_frac": 0.6, "peak_rss_mib": 25.0},
              {"wall_s": 2.0, "decided_frac": 0.5, "peak_rss_mib": 21.0},
              {"wall_s": 4.0, "decided_frac": 0.7, "peak_rss_mib": 23.0}]
    pairs = [(_canned_run_output("tower-wp", "a", p), _canned_run_output("tower-wp", "b", c))
             for p, c in zip(parent, change)]
    rows = {row[0]: row[1:] for row in bench.compare_pairs(pairs)}
    assert list(rows) == [m["name"] for m in _end_to_end_metrics()]
    assert rows["wall_s"] == (2.0, 2.0, 1.0, 1, True, False)
    assert rows["decided_frac"] == pytest.approx((0.5, 0.6, 0.2, 1, True, False))
    assert rows["steps"] == (1.5, 1.5, 0.0, 0, True, False)
    assert rows["peak_rss_mib"] == (20.0, 23.0, 0.0, 0, False, False)
    # 21.9 is inside the same bound, and a higher-better metric may fall
    # by its bound but no further
    inside = [(_canned_run_output("tower-wp", "a", {"peak_rss_mib": 20.0, "decided_frac": 1.0}),
               _canned_run_output("tower-wp", "b", {"peak_rss_mib": 21.9, "decided_frac": 0.96}))]
    rows = {row[0]: row[1:] for row in bench.compare_pairs(inside)}
    assert rows["peak_rss_mib"][-2] is True and rows["decided_frac"][-2] is True
    outside = [(inside[0][0], _canned_run_output("tower-wp", "b", {"decided_frac": 0.9}))]
    assert {row[0]: row[-2] for row in bench.compare_pairs(outside)}["decided_frac"] is False
    # the runs alternate which side goes first, and the pairs come back
    # as (parent, change) whatever the order
    order = []

    def run_workload(root, workload, seed):
        order.append((root.name, workload))
        return _canned_run_output(workload, root.name, {"wall_s": 1.0 if root.name == "old" else 0.5})

    monkeypatch.setattr(bench, "run_workload", run_workload)
    old, new = pathlib.Path("old"), pathlib.Path("new")
    got = bench.run_pairs(old, new, "tower-wp", 9, 3)
    assert [root for root, _ in order] == ["old", "new", "new", "old", "old", "new"]
    assert [(bench._metrics(p)["wall_s"], bench._metrics(c)["wall_s"]) for p, c in got] == [(1.0, 0.5)] * 3
    # the printed table has one line per metric, and no BENCH file is new
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert bench.main(["--pairs", "3", "--parent", "old", "--workload", "tower-wp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-3:] == ["in", "bound", "gain"]
    assert lines[2].split() == ["wall_s", "1", "0.5", "0", "3/3", "yes", "no"]
    assert len(lines) == 2 + len(rows)
    # with no --workload, each workload runs its pairs in turn
    order.clear()
    assert bench.main(["--pairs", "1", "--parent", "old"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [w for _, w in order] == [w for w in bench.WORKLOADS for _ in range(2)]
    assert [line.split()[0] for line in lines[:: 2 + len(rows)]] == list(bench.WORKLOADS)
    assert len(lines) == len(bench.WORKLOADS) * (2 + len(rows))
    assert sorted(ROOT.glob("BENCH_*.json")) == records


def test_bench_gain_needs_nine_pairs_in_ten_and_a_gap_past_the_parent_spread():
    """A gain needs at least ten pairs, of which the change won at least
    nine tenths, ties counting for neither side, and a median better than
    the parent's by more than the parent's interquartile range, in the
    metric's better direction."""
    bench = _load_script("bench")

    def gain(metric, parent, change):
        pairs = [(_canned_run_output("witness-race", "a", {metric: p}),
                  _canned_run_output("witness-race", "b", {metric: c}))
                 for p, c in zip(parent, change)]
        return {row[0]: row[-1] for row in bench.compare_pairs(pairs)}[metric]

    # parent quartiles 1.0 and 1.2 (IQR 0.2), median 1.1
    parent = [1.0, 1.2] * 5
    # 9 of 10 won and the median 0.8 is 0.3 lower: a gain
    assert gain("wall_s", parent, [0.8] * 9 + [1.3])
    # 8 of 10 won is not enough, however far the medians are
    assert not gain("wall_s", parent, [0.5] * 8 + [1.3] * 2)
    # a tie is no win: 8 won and 2 tied is not a gain, 9 won and 1 tied is
    assert not gain("wall_s", parent, [0.8] * 8 + [1.0, 1.2])
    assert gain("wall_s", parent, [0.8] * 9 + [1.2])
    # 10 of 10 won, but the median 1.05 is only 0.05 lower, inside the IQR
    assert not gain("wall_s", parent, [0.95, 1.15] * 5)
    # a gap of exactly the IQR (0.5) is not more than it
    assert not gain("wall_s", [1.0, 1.5] * 5, [0.75] * 10)
    assert gain("wall_s", [1.0, 1.5] * 5, [0.625] * 10)
    # a higher-better metric gains by rising, and a lower-better one that
    # rose does not gain
    assert gain("decided_frac", [0.5, 0.6] * 5, [0.8] * 10)
    assert not gain("decided_frac", [0.5, 0.6] * 5, [0.3] * 10)
    assert not gain("wall_s", parent, [2.0] * 10)
    # nine pairs, all won by far, are too few to claim a gain
    assert gain("wall_s", parent[:10], [0.5] * 10)
    assert not gain("wall_s", parent[:9], [0.5] * 9)


def test_bench_counts_and_fails_on_runs_that_failed_their_checks(monkeypatch, capsys, tmp_path):
    bench = _load_script("bench")
    pairs = [(_canned_run_output("tower-wp", "a", correct=p), _canned_run_output("tower-wp", "b", correct=c))
             for p, c in ((True, False), (False, False), (True, True))]
    assert bench.failed_checks(pairs) == (1, 2)
    # the medians of a side whose checks failed are still printed, but the
    # header counts its failed runs and the exit code is 1
    failing = set()

    def run_workload(root, workload, seed):
        return _canned_run_output(workload, root.name, correct=(root.name, workload) not in failing)

    monkeypatch.setattr(bench, "run_workload", run_workload)
    argv = ["--pairs", "2", "--parent", "old", "--root", "new", "--workload", "tower-wp"]
    assert bench.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("failed checks: parent 0, change 0")
    failing.add(("new", "tower-wp"))
    assert bench.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[0].endswith("failed checks: parent 0, change 2")
    failing = {("old", "witness-race")}
    assert bench.main(["--pairs", "1", "--parent", "old", "--root", "new"]) == 1
    headers = [line for line in capsys.readouterr().out.splitlines() if "failed checks" in line]
    assert [h.split(": ", 1)[1] for h in headers] == ["parent 0, change 0", "parent 1, change 0", "parent 0, change 0"]
    # a BENCH record with a workload whose checks failed exits 1
    monkeypatch.setattr(bench, "REPO", tmp_path)
    failing = set()
    assert bench.main(["--label", "x", "--root", "new"]) == 0
    failing = {("new", "tower-wp")}
    assert bench.main(["--label", "y", "--root", "new"]) == 1
    record = json.loads((tmp_path / "BENCH_y.json").read_text())
    assert [w for w, rec in record["workloads"].items() if not rec["correct"]] == ["tower-wp"]


def _readme_bench_records() -> list:
    """The BENCH files that the README's list of checked-in records
    names, in the order it names them."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("  The checked-in records, in order:") + 1
    names = []
    for line in lines[start:]:
        if not line.startswith(("  - ", "    ")):
            break
        names += re.findall(r"`(BENCH_[\w.-]+\.json)`", line)
    return names


def test_checked_in_bench_records_are_whole_and_listed():
    bench = _load_script("bench")
    paths = sorted(ROOT.glob("BENCH_*.json"))
    listed = _readme_bench_records()
    assert paths and sorted(listed) == [p.name for p in paths]
    for path in paths:
        record = json.loads(path.read_text())
        assert f"BENCH_{record['label']}.json" == path.name
        _assert_bench_schema(record, bench.WORKLOADS)
        assert all(rec["correct"] is True for rec in record["workloads"].values()), path.name


def test_bench_script_refuses_mixed_sources(tmp_path):
    bench = _load_script("bench")
    outputs = {"tower-wp": _canned_run_output("tower-wp", "a" * 16),
               "witness-race": _canned_run_output("witness-race", "b" * 16)}
    with pytest.raises(ValueError):
        bench.write_bench(tmp_path / "BENCH_x.json", "x", outputs)


def test_goldens_regenerate_from_their_script(tmp_path):
    """scripts/make_goldens.py writes tests/golden/ byte for byte, so the
    goldens stay a record of the enumeration the script sees."""
    goldens = _load_script("make_goldens")
    goldens.GOLDEN_DIR = tmp_path
    goldens.main()
    for name in ("ice_prefix.json", "limit_prefix.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes()


# Library entry points that only the tests and the acceptance criteria call.
ENTRY_POINTS = {
    "coset.fold",
    "coset.member",
    "coset.graph_rank_index",
    "ice.enumerate_limit_groups",
    "recognize.Limit.reverify",
    "recognize.NotLimit.reverify",
}


def _public_defs(module: str, tree: ast.Module):
    """(qualified name, bare name) of each public module-level def or
    class and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_name_is_referenced():
    """Every public module-level def or class outside `cli` and
    `__init__`, and every public method of a class there, is used
    somewhere in the package: as a name, an attribute or an import.  A
    name listed only in `__all__`, or called only by the tests, is API
    that nothing calls."""
    package = pathlib.Path(limitforge.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = {
        qualified
        for module, tree in trees.items()
        if module not in ("cli", "__init__")
        for qualified, name in _public_defs(module, tree)
        if name not in used
    }
    assert unused <= ENTRY_POINTS, f"public names nothing calls: {sorted(unused - ENTRY_POINTS)}"
    assert unused == ENTRY_POINTS, f"entry points now used: {sorted(ENTRY_POINTS - unused)}"


def _setattr_store(node) -> str | None:
    """The name that `object.__setattr__(obj, "<name>", value)`, or its
    alias `words._set(obj, "<name>", value)`, stores."""
    if (
        isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            or isinstance(node.func, ast.Name)
            and node.func.id == "_set"
        )
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value
    return None


def test_every_stored_attribute_is_read():
    """Every `self.<name> = ...` in a class of the package, and every
    `object.__setattr__(obj, "<name>", ...)` or `_set(obj, "<name>", ...)`
    anywhere in it (the memos kept on value classes, such as
    `Word._canonical`), has a read of `.<name>` somewhere in the package:
    state that nothing reads lives as long as its object for nothing.
    That includes the fields that a `words.Value` subclass stores in its
    `__init__`.  `WordSyntaxError.pos` is exempt, the position that the
    exception carries to its catcher."""
    package = pathlib.Path(limitforge.__file__).parent
    stored, loaded = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            name = _setattr_store(node)
            if name is not None:
                stored.add((f"{path.stem}.{name}", name))
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                else:
                    continue
                for target in targets:
                    for attr in ast.walk(target):
                        if (
                            isinstance(attr, ast.Attribute)
                            and isinstance(attr.value, ast.Name)
                            and attr.value.id == "self"
                        ):
                            stored.add((f"{path.stem}.{node.name}.{attr.attr}", attr.attr))
    unread = {qualified for qualified, name in stored if name not in loaded}
    assert unread == {"words.WordSyntaxError.pos"}, f"stored, never read: {sorted(unread)}"
