"""Run one benchmark input in a fresh interpreter.

Reads a JSON job from stdin: {"root": checkout, "trace": bool,
"full_checks": bool, "setup_only": bool, "input": spec} with spec from
cases.py.  Without full_checks the slow bound-3 refutation of NotLimit
witnesses is skipped (the first pass of a run makes it, and later passes
must repeat that pass's witnesses exactly).  With setup_only the child
stops once the inputs are built, which gives run.py more set-up
samples.  Imports limitforge from <root>/src, builds
the input, times the operation, runs the library-side correctness checks
outside the timed region, and prints one JSON line with the outcome.
`wall_s` is the operation's time at reference host speed (see speed.py),
`raw_wall_s` its wall time.  `ready` is a time.monotonic() stamp taken
when the inputs are built, so the parent can measure set-up from spawn.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from speed import REF_NOMINAL_S, HostSpeed, reference

REFUTE_BOUND = 3


def _import_limitforge(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import limitforge

    if not os.path.abspath(limitforge.__file__).startswith(src + os.sep):
        raise SystemExit(f"limitforge was imported from {limitforge.__file__}, not {src}")


def _witness_text(w, names) -> str:
    from limitforge.words import Word, format_word

    data = {k: format_word(v, names) if isinstance(v, Word) else v for k, v in sorted(w.data.items())}
    return json.dumps([w.kind, data], sort_keys=True)


def _refuted(p, witness) -> bool:
    from limitforge.recognize import refute_sentence, witness_sentence

    return refute_sentence(witness_sentence(p, witness), REFUTE_BOUND) is not None


def _limit_checks(p, wp, verdict, out, refute: bool):
    """Gates on a recognize_limit verdict: reverify, and (when `refute`)
    bound-3 refutation of a NotLimit witness."""
    from limitforge.recognize import Limit, NotLimit

    if isinstance(verdict, Limit) and verdict.reverify() is not True:
        out["problems"].append("Limit.reverify() is not True")
    if isinstance(verdict, NotLimit):
        out["witness"] = _witness_text(verdict.witness, p.names)
        if verdict.reverify(wp) is not True:
            out["problems"].append("NotLimit.reverify(wp) is not True")
        if refute and _refuted(p, verdict.witness):
            out["problems"].append(f"witness refuted at bound {REFUTE_BOUND}")


def _outcome(verdict: str, steps: int, budget, decided: bool) -> dict:
    return {
        "verdict": verdict,
        "steps": steps,
        "ops": 1,
        "decided": int(decided),
        "overruns": int(budget is not None and steps > budget),
        "problems": [],
    }


def setup_recognize(spec, full_checks):
    from limitforge.ice import tower_from_json
    from limitforge.oracles import oracle_from
    from limitforge.presentation import parse
    from limitforge.recognize import recognize_limit

    p = parse(spec["pres"])
    tower = tower_from_json(spec["tower"]) if "tower" in spec else None
    wp = oracle_from(p, spec["oracle"], tower=tower)

    def check(v):
        name = type(v).__name__
        out = _outcome(name, v.report["used"], spec["budget"], name != "Unknown")
        _limit_checks(p, wp, v, out, full_checks)
        return out

    return lambda: recognize_limit(p, wp, spec["budget"]), check


def setup_pinched(spec, full_checks):
    from limitforge.oracles import oracle_from
    from limitforge.recognize import recognize_cyclically_pinched
    from limitforge.words import parse_word

    u = parse_word(spec["u"], ("a", "b"))
    v = parse_word(spec["v"], ("a", "b"))

    def check(verdict):
        name = type(verdict).__name__
        out = _outcome(name, verdict.report["used"], spec["budget"], name != "Unknown")
        p = verdict.presentation
        _limit_checks(p, oracle_from(p, "builtin:pinched"), verdict, out, full_checks)
        return out

    return lambda: recognize_cyclically_pinched(2, 2, u, v, spec["budget"]), check


def setup_certify(spec, full_checks):
    from limitforge.oracles import oracle_from
    from limitforge.presentation import parse
    from limitforge.recognize import CertifySearch, check_witness

    p = parse(spec["pres"])
    wp = oracle_from(p, spec["oracle"])
    search = CertifySearch(p, wp)

    def check(w):
        out = _outcome("None" if w is None else "Witness", search.spent, spec["budget"], w is not None)
        if w is not None:
            out["witness"] = _witness_text(w, p.names)
            if check_witness(p, wp, w) is not True:
                out["problems"].append("found witness fails check_witness")
        return out

    return lambda: search.run(spec["budget"]), check


def setup_refute(spec, full_checks):
    from limitforge.presentation import parse
    from limitforge.recognize import Witness, refute_sentence, witness_sentence
    from limitforge.words import commutator, parse_word

    p = parse(spec["pres"])
    kind, raw = spec["witness"]
    data = {k: parse_word(v, p.names) if isinstance(v, str) else v for k, v in raw.items()}
    if kind == "commutation-transitivity":
        elements = (data["b"], commutator(data["a"], data["c"]))
    else:
        elements = (data["g"],)
    sentence = witness_sentence(p, Witness(elements, kind, data))

    def check(hit):
        return _outcome("None" if hit is None else "Counterexample", 0, None, True)

    return lambda: refute_sentence(sentence, spec["bound"]), check


def setup_free(spec, full_checks):
    from limitforge.oracles import oracle_from
    from limitforge.presentation import parse
    from limitforge.recognize import NotFree, check_witness, recognize_free

    p = parse(spec["pres"])
    wp = oracle_from(p, spec["oracle"])

    def check(v):
        name = type(v).__name__
        out = _outcome(name, v.report["used"], spec["budget"], name != "Unknown")
        if isinstance(v, NotFree) and v.witness is not None:
            out["witness"] = _witness_text(v.witness, p.names)
            if check_witness(p, wp, v.witness) is not True:
                out["problems"].append("NotFree witness fails check_witness")
        return out

    return lambda: recognize_free(p, wp, spec["budget"]), check


def setup_towers(spec, full_checks):
    from limitforge.ice import centralizer_ice, tower_from_json, wp_ice
    from limitforge.words import Word, commutator

    towers = {int(k): tower_from_json(t) for k, t in spec["towers"].items()}
    words = [(towers[i], Word(tuple(w))) for i, w in spec["words"]]

    def op():
        answers, bases = [], []
        for t, w in words:
            trivial = wp_ice(t, w)
            answers.append(trivial)
            bases.append(None if trivial else centralizer_ice(t, w))
        return answers, bases

    def check(result):
        answers, bases = result
        out = {
            "ops": len(words),
            "decided": len(words),
            "overruns": 0,
            "steps": len(words),
            "problems": [],
            "answers": answers,
            "bases": [None if b is None else [list(x.ints) for x in b] for b in bases],
        }
        for k, ((t, w), basis) in enumerate(zip(words, bases)):
            for b in basis or ():
                if wp_ice(t, commutator(b, w)) is not True:
                    out["problems"].append(f"word {k}: centralizer element does not commute")
        digest = hashlib.sha256(json.dumps([answers, out["bases"]]).encode()).hexdigest()
        out["verdict"] = digest[:16]
        return out

    return op, check


SETUP = {
    "recognize": setup_recognize,
    "pinched": setup_pinched,
    "certify": setup_certify,
    "refute": setup_refute,
    "free": setup_free,
    "towers": setup_towers,
}


def main() -> int:
    job = json.load(sys.stdin)
    _import_limitforge(job["root"])
    spec = job["input"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op, check = SETUP[spec["kind"]](spec, job["full_checks"])
    ready = time.monotonic()
    if job["setup_only"]:
        print(json.dumps({"ready": ready, "start_speed": REF_NOMINAL_S / reference()}))
        return 0
    if tracer is not None:
        tracer.start()
    with HostSpeed(tracer.stack if tracer is not None else None) as host:
        t0 = time.perf_counter()
        result = op()
        wall = time.perf_counter() - t0 - host.spent
    layers = tracer.snapshot(host.factor) if tracer is not None else None
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = check(result)
    out.update(
        ready=ready,
        raw_wall_s=wall,
        wall_s=wall * host.factor,
        speed=host.factor,
        start_speed=host.start_factor,
        rss_kib=rss_kib,
        layers=layers,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
