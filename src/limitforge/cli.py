"""Command line front end.

Subcommands map onto the library modules.  `--json` wraps the result
in a RunReport: command name, sha256 digests of file inputs, budget,
payload, and the package version, with no wall-clock data, so the same
invocation reproduces the same bytes.

Exit codes: 0 for success (Limit, Free, or a trivial word), 1 for a
negative verdict (NotLimit, NotFree, nontrivial word), 2 when a budget
ran out undecided, and 3 for malformed input, input too large to hold
in memory, or oracle protocol violations.  The LIMITFORGE_BUDGET
environment variable overrides the default budget of any subcommand;
an explicit --budget flag wins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .coset import low_index
from .freegroup import primitive_root, standard_names
from .ice import (
    centralizer_ice,
    enumerate_ice,
    presentation_of,
    tower_from_json,
    tower_names,
    tower_to_json,
    wp_ice,
)
from .oracles import OracleProtocolError, oracle_from
from .presentation import Presentation, parse, serialize
from .recognize import (
    Free,
    Limit,
    NotFree,
    NotLimit,
    Sentence,
    Witness,
    recognize_cyclically_pinched,
    recognize_free,
    recognize_limit,
    refute_sentence,
)
from .retracts import (
    RetractionFound,
    SearchExhausted,
    SubgroupPresentationResult,
    find_retraction,
    subgroup_presentation_lr,
)
from .words import Word, format_word, parse_word


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


# ---------------------------------------------------------------------------
# Input loading


def _read_file(path: str) -> tuple[str, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _load_pres(path: str) -> tuple[Presentation, dict]:
    text, digest = _read_file(path)
    return parse(text), {"path": path, "sha256": digest}


def _load_tower(path: str):
    text, digest = _read_file(path)
    return tower_from_json(json.loads(text)), {"path": path, "sha256": digest}


def _budget(args, default: int) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("LIMITFORGE_BUDGET")
    if env is not None:
        return int(env)
    return default


def _emit(args, command: str, inputs: dict, payload: dict, code: int, lines) -> int:
    if getattr(args, "json", False):
        doc = {
            "command": command,
            "version": __version__,
            "inputs": inputs,
            "payload": payload,
            "exit": code,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


# ---------------------------------------------------------------------------
# Verdict rendering


def _witness_payload(w: Witness, names) -> dict:
    data = {}
    for k, v in sorted(w.data.items()):
        data[k] = format_word(v, names) if isinstance(v, Word) else v
    return {
        "kind": w.kind,
        "elements": [format_word(x, names) for x in w.elements],
        "data": data,
    }


def _verdict_out(args, command: str, inputs: dict, p: Presentation, verdict) -> int:
    names = p.names
    if isinstance(verdict, Limit):
        tower = verdict.emission.tower
        payload = {
            "verdict": "Limit",
            "matched": serialize(verdict.matched),
            "tower": tower_to_json(tower),
            "subgroup_generators": [
                format_word(w, tower_names(tower)) for w in verdict.emission.s_words
            ],
            "report": verdict.report,
        }
        lines = [
            "Limit",
            f"  matched: {serialize(verdict.matched)}",
            f"  tower: {json.dumps(tower_to_json(tower))}",
            "  generators: " + ", ".join(payload["subgroup_generators"]),
        ]
        return _emit(args, command, inputs, payload, 0, lines)
    if isinstance(verdict, NotLimit):
        wj = _witness_payload(verdict.witness, names)
        payload = {"verdict": "NotLimit", "witness": wj, "report": verdict.report}
        lines = [
            "NotLimit",
            f"  witness kind: {wj['kind']}",
            "  witness elements: " + ", ".join(wj["elements"]),
        ]
        return _emit(args, command, inputs, payload, 1, lines)
    if isinstance(verdict, Free):
        payload = {
            "verdict": "Free",
            "free_presentation": serialize(verdict.free_presentation),
            "report": verdict.report,
        }
        lines = ["Free", f"  presentation: {serialize(verdict.free_presentation)}"]
        return _emit(args, command, inputs, payload, 0, lines)
    if isinstance(verdict, NotFree):
        payload = {"verdict": "NotFree", "reason": verdict.reason, "report": verdict.report}
        lines = ["NotFree", f"  reason: {verdict.reason}"]
        if verdict.witness is not None:
            wj = _witness_payload(verdict.witness, names)
            payload["witness"] = wj
            lines.append("  witness elements: " + ", ".join(wj["elements"]))
        return _emit(args, command, inputs, payload, 1, lines)
    payload = {"verdict": "Unknown", "report": verdict.report}
    lines = ["Unknown", f"  report: {json.dumps(verdict.report, sort_keys=True)}"]
    return _emit(args, command, inputs, payload, 2, lines)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_words(args) -> int:
    if args.names:
        names = Presentation(tuple(n.strip() for n in args.names.split(","))).names
    else:
        names = standard_names(args.rank)
    w = parse_word(args.word, names)
    inputs = {"word": args.word, "names": list(names), "op": args.op}
    if args.op == "reduce":
        out = format_word(w, names)
        payload = {"word": out, "length": len(w.ints)}
        return _emit(args, "words", inputs, payload, 0, [out])
    if args.op == "invert":
        out = format_word(w.inv(), names)
        return _emit(args, "words", inputs, payload={"word": out}, code=0, lines=[out])
    root, exp = primitive_root(w)
    out = format_word(root, names)
    payload = {"root": out, "exponent": exp}
    return _emit(args, "words", inputs, payload, 0, [f"{out} ^ {exp}"])


def _cmd_subgroups(args) -> int:
    p, pres_in = _load_pres(args.pres)
    tables = list(low_index(p, args.index))
    inputs = {"pres": pres_in, "index": args.index}
    if args.count:
        payload = {"count": len(tables)}
        return _emit(args, "subgroups", inputs, payload, 0, [str(len(tables))])
    payload = {"count": len(tables), "tables": [t.to_json_dict(p.names) for t in tables]}
    lines = [f"{len(tables)} subgroups of index <= {args.index}"]
    for i, t in enumerate(tables):
        lines.append(f"#{i}: {json.dumps(t.to_json_dict(p.names), sort_keys=True)}")
    return _emit(args, "subgroups", inputs, payload, 0, lines)


def _parse_s_words(words, names) -> tuple[Word, ...]:
    return tuple(parse_word(text, names) for text in words)


def _cmd_present_subgroup(args) -> int:
    p, pres_in = _load_pres(args.pres)
    s_words = _parse_s_words(args.word, p.names)
    budget = _budget(args, 200_000)
    oracle = oracle_from(p, args.oracle) if args.oracle else None
    res = subgroup_presentation_lr(p, s_words, budget=budget, oracle=oracle)
    inputs = {"pres": pres_in, "words": list(args.word), "budget": budget}
    if isinstance(res, SubgroupPresentationResult):
        payload = {
            "presentation": serialize(res.presentation),
            "generators_ambient": [format_word(w, p.names) for w in res.gens_ambient],
        }
        lines = [serialize(res.presentation)]
        for j, w in enumerate(res.gens_ambient):
            lines.append(f"  {res.presentation.names[j]} = {format_word(w, p.names)}")
        return _emit(args, "present-subgroup", inputs, payload, 0, lines)
    reason = f"exhausted after {res.steps} steps"
    payload = {"incomplete": reason}
    return _emit(args, "present-subgroup", inputs, payload, 2, [f"incomplete: {reason}"])


def _cmd_retract(args) -> int:
    p, pres_in = _load_pres(args.pres)
    s_words = _parse_s_words(args.word, p.names)
    budget = _budget(args, 200_000)
    oracle = oracle_from(p, args.oracle) if args.oracle else None
    found = find_retraction(p, s_words, budget=budget, oracle=oracle)
    inputs = {"pres": pres_in, "words": list(args.word), "budget": budget}
    if isinstance(found, SearchExhausted):
        payload = {"incomplete": f"exhausted after {found.steps} steps"}
        return _emit(args, "retract", inputs, payload, 2, [payload["incomplete"]])
    assert isinstance(found, RetractionFound)
    knames = found.rs.presentation.names
    # capitalized so the abstract S alphabet reads apart from the
    # rewriting stage's own s1, s2, ... generator names
    snames = tuple(f"S{i + 1}" for i in range(len(s_words)))
    payload = {
        "cost": found.cost,
        "index": found.table.index,
        "subgroup_presentation": serialize(found.rs.presentation),
        "images": [format_word(y, snames) for y in found.retraction.y_words],
        "s_in_subgroup": [format_word(e, knames) for e in found.retraction.s_exprs],
    }
    lines = [
        f"cost {found.cost}, subgroup of index {found.table.index}",
        f"  subgroup: {serialize(found.rs.presentation)}",
    ]
    for j, y in enumerate(payload["images"]):
        lines.append(f"  rho({knames[j]}) = {y}")
    return _emit(args, "retract", inputs, payload, 0, lines)


def _cmd_ice(args) -> int:
    if args.ice_cmd == "enumerate":
        if args.count < 0:
            raise _CliError("--count must be nonnegative")
        stream = enumerate_ice()
        payload_items = []
        lines = []
        for _ in range(args.count):
            tower, pres = next(stream)
            item = {"tower": tower_to_json(tower), "presentation": serialize(pres)}
            payload_items.append(item)
            lines.append(json.dumps(item, sort_keys=True))
        return _emit(
            args, "ice enumerate", {"count": args.count}, {"towers": payload_items}, 0, lines
        )
    tower, tower_in = _load_tower(args.tower)
    names = tower_names(tower)
    inputs: dict = {"tower": tower_in}
    if args.ice_cmd == "present":
        text = serialize(presentation_of(tower))
        return _emit(args, "ice present", inputs, {"presentation": text}, 0, [text])
    w = parse_word(args.word, names)
    inputs["word"] = args.word
    if args.ice_cmd == "wp":
        trivial = wp_ice(tower, w)
        payload = {"word": format_word(w, names), "trivial": trivial}
        return _emit(
            args, "ice wp", inputs, payload, 0 if trivial else 1,
            ["trivial" if trivial else "nontrivial"],
        )
    basis = centralizer_ice(tower, w)
    out = [format_word(b, names) for b in basis]
    payload = {"word": format_word(w, names), "rank": len(basis), "basis": out}
    return _emit(args, "ice centralizer", inputs, payload, 0, [f"rank {len(basis)}"] + out)


def _cmd_recognize(args) -> int:
    p, pres_in = _load_pres(args.pres)
    tower = None
    inputs = {"pres": pres_in, "oracle": args.oracle}
    if args.tower:
        tower, tower_in = _load_tower(args.tower)
        inputs["tower"] = tower_in
    budget = _budget(args, args.default_budget)
    inputs["budget"] = budget
    wp = oracle_from(p, args.oracle, tower=tower)
    verdict = args.runner(p, wp, budget)
    return _verdict_out(args, args.command, inputs, p, verdict)


def _cmd_recognize_pinched(args) -> int:
    names = standard_names(args.rank1 + args.rank2)
    u = parse_word(args.u, names)
    v = parse_word(args.v, names)
    if any(abs(x) <= args.rank1 for x in v.ints):
        raise _CliError("v must use only the second factor's generators")
    unshifted = Word(tuple(x - args.rank1 if x > 0 else x + args.rank1 for x in v.ints))
    budget = _budget(args, 10**7)
    inputs = {
        "rank1": args.rank1,
        "rank2": args.rank2,
        "u": args.u,
        "v": args.v,
        "budget": budget,
    }
    verdict = recognize_cyclically_pinched(args.rank1, args.rank2, u, unshifted, budget)
    return _verdict_out(args, "recognize-pinched", inputs, verdict.presentation, verdict)


def _cmd_refute(args) -> int:
    variables = tuple(n.strip() for n in args.vars.split(","))
    eqs = tuple(parse_word(t, variables) for t in args.eq)
    ineqs = tuple(parse_word(t, variables) for t in args.ineq)
    s = Sentence(variables, eqs, ineqs)
    hit = refute_sentence(s, args.bound, target_rank=args.target_rank)
    inputs = {
        "vars": list(variables),
        "eq": list(args.eq),
        "ineq": list(args.ineq),
        "bound": args.bound,
        "target_rank": args.target_rank,
    }
    target = standard_names(args.target_rank)
    if hit is None:
        payload = {"counterexample": None}
        return _emit(args, "refute", inputs, payload, 1, ["none within bound"])
    assign = {variables[i]: format_word(w, target) for i, w in enumerate(hit)}
    payload = {"counterexample": assign}
    lines = ["counterexample:"] + [f"  {k} = {v}" for k, v in assign.items()]
    return _emit(args, "refute", inputs, payload, 0, lines)


# ---------------------------------------------------------------------------
# The bundled recognition corpus

# name, presentation text, oracle strategy, tower document, accepted
# verdicts, budget cap.  The genus-two surface group runs capped at 10^5
# steps: Unknown is the documented desk-scale outcome, Limit would also
# be accepted.
CORPUS = (
    ("free rank 1", "< a | >", "builtin:free", None, ("Limit",), None),
    ("free rank 2", "< a, b | >", "builtin:free", None, ("Limit",), None),
    ("free abelian rank 2", "< a, b | [a,b] >", "builtin:abelian", None, ("Limit",), None),
    (
        "free abelian rank 3",
        "< a, b, c | [a,b], [a,c], [b,c] >",
        "builtin:abelian",
        None,
        ("Limit",),
        None,
    ),
    (
        "centralizer extension",
        "< a, b, t | [a,t] >",
        "builtin:ice",
        {"base_rank": 2, "steps": [{"g": "a", "n": 1}]},
        ("Limit",),
        None,
    ),
    ("order two", "< a | a^2 >", "builtin:finite", None, ("NotLimit",), None),
    (
        "product with center",
        "< a, b, z | [a,z], [b,z] >",
        "builtin:product",
        None,
        ("NotLimit",),
        None,
    ),
    ("klein bottle", "< a, b | b*a*b^-1*a >", "builtin:klein", None, ("NotLimit",), None),
    (
        "genus two surface",
        "< a, b, c, d | [a,b]*[c,d]^-1 >",
        "builtin:pinched",
        None,
        ("Limit", "Unknown"),
        10**5,
    ),
)


def corpus_verdict(row, budget: int):
    """Run recognize_limit on one CORPUS row, its cap applied to budget."""
    _, text, strategy, tower_doc, _, cap = row
    p = parse(text)
    tower = tower_from_json(tower_doc) if tower_doc is not None else None
    wp = oracle_from(p, strategy, tower=tower)
    return recognize_limit(p, wp, budget if cap is None else min(budget, cap))


def _cmd_corpus(args) -> int:
    budget = _budget(args, 10**7)
    rows = []
    ok = True
    for row in CORPUS:
        name, text, strategy, _, accepted, _ = row
        verdict = corpus_verdict(row, budget)
        got = type(verdict).__name__
        rows.append(
            {
                "name": name,
                "presentation": text,
                "oracle": strategy,
                "verdict": got,
                "accepted": list(accepted),
                "used": verdict.report["used"],
                "pass": got in accepted,
            }
        )
        ok = ok and got in accepted
    lines = []
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        mark = "PASS" if r["pass"] else "FAIL"
        lines.append(
            f"{mark}  {r['name']:<{width}}  {r['verdict']:<9} "
            f"(accepted {'/'.join(r['accepted'])}, {r['used']} steps)"
        )
    lines.append("all passed" if ok else "FAILURES present")
    payload = {"rows": rows, "ok": ok, "budget": budget}
    return _emit(args, "corpus", {"budget": budget}, payload, 0 if ok else 1, lines)


# ---------------------------------------------------------------------------
# Parser assembly


def _parser() -> _Parser:
    top = _Parser(prog="limitforge", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, budget=True, oracle=None):
        sp.add_argument("--json", action="store_true", help="emit a RunReport")
        if budget:
            sp.add_argument("--budget", type=int, default=None)
        if oracle is not None:
            sp.add_argument("--oracle", default=oracle)

    w = sub.add_parser("words", help="reduce a free-group word, or take its root")
    w.add_argument("--rank", type=int, default=2)
    w.add_argument("--names", default=None, help="comma separated generator names")
    w.add_argument("--word", required=True)
    w.add_argument("--op", choices=("reduce", "root", "invert"), default="reduce")
    common(w, budget=False)
    w.set_defaults(fn=_cmd_words)

    s = sub.add_parser("subgroups", help="low-index subgroup tables")
    s.add_argument("--pres", required=True)
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--count", action="store_true", help="print only the number")
    common(s, budget=False)
    s.set_defaults(fn=_cmd_subgroups)

    ps = sub.add_parser("present-subgroup", help="present a finitely generated subgroup")
    ps.add_argument("--pres", required=True)
    ps.add_argument("--word", action="append", default=[], help="subgroup generator (repeatable)")
    common(ps, oracle=None)
    ps.add_argument("--oracle", default=None)
    ps.set_defaults(fn=_cmd_present_subgroup)

    rt = sub.add_parser("retract", help="find a retraction onto the span of the words")
    rt.add_argument("--pres", required=True)
    rt.add_argument("--word", action="append", default=[], help="subgroup generator (repeatable)")
    common(rt)
    rt.add_argument("--oracle", default=None)
    rt.set_defaults(fn=_cmd_retract)

    ice = sub.add_parser("ice", help="centralizer-extension towers")
    icesub = ice.add_subparsers(dest="ice_cmd", required=True)
    for name in ("present", "wp", "centralizer"):
        sp = icesub.add_parser(name)
        sp.add_argument("--tower", required=True)
        if name != "present":
            sp.add_argument("--word", required=True)
        common(sp, budget=False)
        sp.set_defaults(fn=_cmd_ice)
    en = icesub.add_parser("enumerate")
    en.add_argument("--count", type=int, default=10)
    common(en, budget=False)
    en.set_defaults(fn=_cmd_ice)

    for name, question, runner, default_budget in (
        ("recognize", "a limit group", recognize_limit, 10**7),
        ("recognize-free", "free", recognize_free, 10**6),
    ):
        rc = sub.add_parser(name, help=f"is the presented group {question}?")
        rc.add_argument("--pres", required=True)
        rc.add_argument("--tower", default=None, help="tower file for builtin:ice")
        common(rc, oracle="builtin:auto")
        rc.set_defaults(fn=_cmd_recognize, runner=runner, default_budget=default_budget)

    rp = sub.add_parser(
        "recognize-pinched",
        help="recognition for an amalgam of two free groups over cyclic subgroups",
    )
    rp.add_argument("--rank1", type=int, required=True)
    rp.add_argument("--rank2", type=int, required=True)
    rp.add_argument("--u", required=True, help="edge word in the first factor")
    rp.add_argument("--v", required=True, help="edge word in the second factor")
    common(rp)
    rp.set_defaults(fn=_cmd_recognize_pinched)

    rfu = sub.add_parser("refute", help="bounded refutation of a universal sentence")
    rfu.add_argument("--vars", required=True, help="comma separated variable names")
    rfu.add_argument("--eq", action="append", default=[], help="equation word (repeatable)")
    rfu.add_argument("--ineq", action="append", default=[], help="inequation word (repeatable)")
    rfu.add_argument("--bound", type=int, required=True)
    rfu.add_argument("--target-rank", type=int, default=2)
    common(rfu, budget=False)
    rfu.set_defaults(fn=_cmd_refute)

    co = sub.add_parser("corpus", help="run the bundled recognition ground-truth suite")
    common(co)
    co.set_defaults(fn=_cmd_corpus)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NotImplementedError, OSError, OracleProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: input too large to hold in memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
