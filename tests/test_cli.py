"""Command-line surface: exit codes, reports, budget resolution."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from limitforge import ice, oracles
from limitforge.cli import main
from limitforge.words import Word

FAKE_ORACLE = pathlib.Path(__file__).resolve().parent / "fake_oracle.py"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def grp(tmp_path):
    def write(name, text):
        f = tmp_path / name
        f.write_text(text + "\n")
        return str(f)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_words_reduce(capsys):
    code, out, _ = run(capsys, "words", "--word", "a*b*b^-1*a")
    assert code == 0
    assert out.strip() == "a^2"


def test_words_root(capsys):
    code, out, _ = run(capsys, "words", "--word", "a*b*a*b*a*b", "--op", "root")
    assert code == 0
    assert out.strip() == "a*b ^ 3"


def test_subgroups_count(capsys, grp):
    path = grp("f2.grp", "< a, b | >")
    code, out, _ = run(capsys, "subgroups", "--pres", path, "--index", "2", "--count")
    assert code == 0
    assert out.strip() == "4"


def test_ice_wp_exit_codes(capsys, grp):
    tower = grp("t1.json", '{"base_rank": 2, "steps": [{"g": "a", "n": 1}]}')
    code, out, _ = run(capsys, "ice", "wp", "--tower", tower, "--word", "[a,t]")
    assert code == 0
    assert out.strip() == "trivial"
    code, out, _ = run(capsys, "ice", "wp", "--tower", tower, "--word", "[b,t]")
    assert code == 1
    assert out.strip() == "nontrivial"


def test_ice_centralizer(capsys, grp):
    tower = grp("t1.json", '{"base_rank": 2, "steps": [{"g": "a", "n": 1}]}')
    code, out, _ = run(capsys, "ice", "centralizer", "--tower", tower, "--word", "a")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank 2"
    assert lines[1:] == ["a", "t"]


def test_recognize_klein(capsys, grp):
    path = grp("klein.grp", "< a, b | b*a*b^-1*a >")
    code, out, _ = run(capsys, "recognize", "--pres", path, "--oracle", "builtin:klein")
    assert code == 1
    assert out.splitlines()[0] == "NotLimit"
    assert "a" in out


def test_recognize_json_is_deterministic_and_parseable(capsys, grp):
    path = grp("z2.grp", "< a, b | [a,b] >")
    code1, out1, _ = run(
        capsys, "recognize", "--pres", path, "--oracle", "builtin:abelian", "--json"
    )
    code2, out2, _ = run(
        capsys, "recognize", "--pres", path, "--oracle", "builtin:abelian", "--json"
    )
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "recognize"
    assert doc["exit"] == 0
    assert doc["payload"]["verdict"] == "Limit"
    assert doc["inputs"]["pres"]["sha256"]
    assert "elapsed" not in doc and "time" not in doc


def test_budget_env_and_flag(capsys, grp, monkeypatch):
    path = grp("z2.grp", "< a, b | [a,b] >")
    monkeypatch.setenv("LIMITFORGE_BUDGET", "300")
    code, out, _ = run(capsys, "recognize", "--pres", path, "--oracle", "builtin:abelian")
    assert code == 2
    assert out.splitlines()[0] == "Unknown"
    code, out, _ = run(
        capsys,
        "recognize",
        "--pres",
        path,
        "--oracle",
        "builtin:abelian",
        "--budget",
        "2000",
    )
    assert code == 0
    assert out.splitlines()[0] == "Limit"


def test_negative_budget_flag_is_exit_3(capsys, grp):
    path = grp("o2.grp", "< a | a^2 >")
    code, out, err = run(
        capsys, "recognize", "--pres", path, "--oracle", "builtin:finite", "--budget", "-1", "--json"
    )
    assert code == 3
    assert out == ""
    assert err == "error: budget must be nonnegative\n"


def test_negative_budget_from_environment_is_exit_3(capsys, grp, monkeypatch):
    path = grp("o2.grp", "< a | a^2 >")
    monkeypatch.setenv("LIMITFORGE_BUDGET", "-7")
    code, out, err = run(capsys, "retract", "--pres", path, "--word", "a")
    assert code == 3
    assert out == ""
    assert err == "error: budget must be nonnegative\n"


def test_present_subgroup(capsys, grp):
    path = grp("f2.grp", "< a, b | >")
    code, out, _ = run(
        capsys,
        "present-subgroup",
        "--pres",
        path,
        "--word",
        "a^2",
        "--word",
        "b",
        "--oracle",
        "builtin:free",
    )
    assert code == 0
    assert out.splitlines()[0] == "< a, b | >"


def test_retract(capsys, grp):
    path = grp("f2.grp", "< a, b | >")
    code, out, _ = run(
        capsys, "retract", "--pres", path, "--word", "a^2", "--word", "b",
        "--oracle", "builtin:free",
    )
    assert code == 0
    assert out.splitlines()[0] == "cost 4, subgroup of index 2"


@pytest.mark.parametrize("command", ["retract", "present-subgroup"])
def test_budget_bounds_the_default_oracle(grp, command):
    """With no --oracle, each query of the default dovetail oracle gets
    --budget too: one query cannot outlast a small budget."""
    path = grp("z2.grp", "< a, b | [a,b] >")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "limitforge.cli", command, "--pres", path,
         "--word", "a*a", "--word", "b", "--budget", "300"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2
    assert "exhausted after 300 steps" in proc.stdout


def test_refute_exit_codes(capsys):
    code, out, _ = run(
        capsys, "refute", "--vars", "x,y", "--eq", "[x,y]", "--ineq", "x",
        "--ineq", "y", "--bound", "2",
    )
    assert code == 0
    assert "counterexample" in out
    code, out, _ = run(capsys, "refute", "--vars", "x", "--eq", "x^2", "--ineq", "x", "--bound", "3")
    assert code == 1


def test_refute_duplicate_variables_is_exit_3(capsys):
    code, out, err = run(capsys, "refute", "--vars", "x,x", "--ineq", "x^-1", "--bound", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("names", ["a,a", "a,,b"])
def test_words_bad_generator_names_is_exit_3(capsys, names):
    code, out, err = run(capsys, "words", "--names", names, "--word", "a*a")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ice_enumerate_negative_count_is_exit_3(capsys):
    code, out, err = run(capsys, "ice", "enumerate", "--count", "-3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_word_too_large_for_memory_is_exit_3(capsys):
    """The exponent asks for a tuple of 10^11 letters, which the
    allocator refuses at once."""
    code, out, err = run(capsys, "words", "--word", "a^99999999999")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_recognize_pinched(capsys):
    code, out, _ = run(
        capsys, "recognize-pinched", "--rank1", "2", "--rank2", "2",
        "--u", "a", "--v", "c",
    )
    assert code == 0
    assert out.splitlines()[0] == "Limit"


@pytest.mark.parametrize("mode", ["hang", "garbage", "exit"])
def test_misbehaving_oracle_is_exit_3(capfd, grp, tmp_path, monkeypatch, mode):
    monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 1.0)
    script = tmp_path / mode
    script.write_text(f"#!/bin/sh\nexec {sys.executable} {FAKE_ORACLE} {mode}\n")
    script.chmod(0o755)
    path = grp("z2.grp", "< a, b | [a,b] >")
    start = time.monotonic()
    code, out, err = run(capfd, "recognize", "--pres", path, "--oracle", f"cmd:{script}")
    assert time.monotonic() - start < 5
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "chatter" not in err  # the child's stderr is discarded


def test_missing_file_is_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "recognize", "--pres", str(tmp_path / "absent.grp"))
    assert code == 3
    assert "error:" in err


def test_unknown_subcommand_is_exit_3(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 3
    assert "error:" in err


def test_negative_rank_is_exit_3(capsys):
    code, out, err = run(capsys, "words", "--rank", "-1", "--word", "r*a")
    assert code == 3
    assert out == ""
    assert "rank must be nonnegative" in err


def test_bad_word_is_exit_3(capsys, grp):
    path = grp("f2.grp", "< a, b | >")
    code, _, err = run(capsys, "retract", "--pres", path, "--word", "q^2")
    assert code == 3


@pytest.mark.parametrize(
    "doc",
    [
        "{}",
        '{"base_rank": 2, "steps": [{"g": "a"}]}',
        "[1, 2]",
        '{"base_rank": 2, "steps": [["a", 1]]}',
    ],
)
def test_malformed_tower_file_is_exit_3(capsys, grp, doc):
    tower = grp("bad.json", doc)
    code, out, err = run(capsys, "ice", "wp", "--tower", tower, "--word", "a")
    assert code == 3
    assert out == ""
    assert err.startswith("error: tower file: ") and err.count("\n") == 1
    assert "Traceback" not in err



def test_uncovered_edge_equation_is_exit_3(capsys, grp, monkeypatch):
    # retractions that kill everything leave the edge equation of the root
    # search undetermined, and the solver raises rather than guess
    tower = grp(
        "t3.json",
        '{"base_rank": 2, "steps": [{"g": "a", "n": 1}, {"g": "b*t", "n": 2}, {"g": "[a,b]", "n": 1}]}',
    )
    monkeypatch.setattr(ice, "_retraction", lambda t, exps: [Word()] * t.rank)
    code, out, err = run(capsys, "ice", "centralizer", "--tower", tower, "--word", "w*b*w*b")
    assert code == 3
    assert out == ""
    assert err.startswith("error: edge equation") and err.count("\n") == 1
    assert "Traceback" not in err

def test_ice_enumerate_prefix(capsys):
    code, out, _ = run(capsys, "ice", "enumerate", "--count", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["presentation"] == "< a | >"
