"""Guards on the package surface and the shipped scripts."""

import ast
import importlib
import importlib.util
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import limitforge

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
    calls.  The exceptions are the entry points `__init__` and `cli`, and
    `stallings`, the folded-graph library that acceptance criterion 2
    calls directly and no engine needs."""
    package = pathlib.Path(limitforge.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py")}
    imported = set()
    for name, path in modules.items():
        imported |= _imported_modules(path) - {name}
    orphans = set(modules) - imported - {"__init__", "cli", "stallings"}
    assert not orphans, f"modules nothing in the package imports: {sorted(orphans)}"


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
    makes install() raise."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracer\n"
        "tracer.Tracer().install()\n"
    )
    subprocess.run([sys.executable, "-c", code], timeout=60, check=True)


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _end_to_end_metrics() -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _canned_run_output(workload: str, digest: str) -> str:
    """The context line and the last line of a run.py --trace 0 run."""
    context = {"workload": workload, "seed": 1, "seconds": 30, "trace": 0,
               "python": "3.12.0", "nproc": 2, "commit": "0" * 40,
               "src_sha256": digest, "passes": 3}
    last = {"correct": True, "attempted": 9, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in _end_to_end_metrics()}}
    return f"# {json.dumps(context)}\n# untraced pass: wall 1.5 s\n{json.dumps(last)}\n"


def test_bench_script_writes_its_schema(tmp_path):
    bench = _load_script("bench")
    outputs = {w: _canned_run_output(w, "abcdef0123456789") for w in bench.WORKLOADS}
    path = tmp_path / "BENCH_x.json"
    bench.write_bench(path, "x", outputs)
    record = json.loads(path.read_text())
    assert set(record) == {"label", "commit", "src_sha256", "python", "nproc", "workloads"}
    assert (record["label"], record["commit"]) == ("x", "0" * 40)
    assert record["src_sha256"] == "abcdef0123456789"
    declared = [m["name"] for m in _end_to_end_metrics()]
    assert list(record["workloads"]) == sorted(bench.WORKLOADS)
    for rec in record["workloads"].values():
        assert set(rec) == {"seed", "correct", "attempted", "failed", "metrics"}
        assert sorted(rec["metrics"]) == sorted(declared)
    assert bench.write_bench(path, "x", outputs, commit="f" * 40)["commit"] == "f" * 40


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
    "stallings.fold",
    "stallings.basis_of",
    "stallings.member",
    "stallings.graph_rank_index",
    "ice.enumerate_limit_groups",
    "recognize.external_witness",
    "coset.rewrite_in_subgroup",
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


def test_every_stored_attribute_is_read():
    """Every `self.<name> = ...` in a class of the package has a read of
    `.<name>` somewhere in the package: state that nothing reads lives as
    long as its object for nothing.  `WordSyntaxError.pos` is exempt, the
    position that the exception carries to its catcher."""
    package = pathlib.Path(limitforge.__file__).parent
    stored, loaded = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
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
