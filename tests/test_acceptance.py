"""Acceptance gate.

Ten criteria, each a single test printing one PASS or FAIL line to the
real stdout so the verdicts survive pytest's capture.  Expected values
come from the independent oracles in tests/oracles.py or from golden
files; runtime caps are asserted inside the criteria they belong to.
"""

import functools
import itertools
import json
import pathlib
import random
import time

import pytest

from limitforge.abelian import solve
from limitforge.coset import low_index, rs_presentation, todd_coxeter
from limitforge.freegroup import primitive_root
from limitforge.ice import (
    LimitEnumeration,
    centralizer_ice,
    enumerate_ice,
    enumerate_limit_groups,
    ice_oracle,
    tower_from_json,
    tower_names,
    tower_to_json,
    wp_ice,
)
from limitforge.oracles import (
    finite_oracle,
    free_abelian_oracle,
    free_oracle,
    klein_oracle,
    oracle_from,
    product_oracle,
)
from limitforge.presentation import abelianization, parse, serialize, substitute
from limitforge.recognize import (
    Limit,
    NotLimit,
    Unknown,
    recognize_cyclically_pinched,
    recognize_limit,
    refute_sentence,
    witness_sentence,
)
from limitforge.retracts import SubgroupPresentationResult, subgroup_presentation_lr
from limitforge.stallings import basis_of, fold, member
from limitforge.words import Word, commutator, reduce_ints, words_upto

from oracles import (
    FINITE_CORPUS,
    conjugate,
    hall_counts,
    perm_group_order,
    product_closure,
    random_reduced_word,
    t1_corpus,
    t1_nontrivial_witness,
)

from conftest import ACCEPTANCE_RESULTS

GOLDEN = pathlib.Path(__file__).parent / "golden"

# the genus-two input is the documented incompleteness: recognition is a
# semi-decision and this presentation stays Unknown at desk budgets
GENUS2_BUDGET = 10**5


def criterion(num, label):
    """Record one verdict line per criterion; printed after the run."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_RESULTS.append((num, "FAIL", label))
                raise
            ACCEPTANCE_RESULTS.append((num, "PASS", label))

        return wrapper

    return deco


@criterion(1, "free-group algebra on 10^4 random words")
def test_criterion_01():
    started = time.monotonic()
    rng = random.Random(11201)
    for _ in range(10**4):
        rank = rng.randint(1, 4)
        raw = tuple(
            rng.choice([x for x in range(-rank, rank + 1) if x != 0])
            for _ in range(rng.randint(0, 64))
        )
        once = reduce_ints(raw)
        assert reduce_ints(once) == once
        w = Word(once)
        assert (w * w.inv()).ints == ()
        root, n = primitive_root(w)
        if w.ints:
            assert n >= 1 and root ** n == w
        else:
            assert n == 0
    assert time.monotonic() - started < 10.0


@criterion(2, "subgroup-graph membership vs brute-force products, 200 instances")
def test_criterion_02():
    rng = random.Random(40502)
    for _ in range(200):
        nset = rng.randint(1, 3)
        gens = [random_reduced_word(rng, 2, rng.randint(1, 4)) for _ in range(nset)]
        g = fold(2, gens)
        basis = basis_of(g)
        for ints in product_closure(gens, 4):
            expr = member(g, Word(ints))
            assert expr is not None, (gens, ints)
            assert substitute(expr, basis) == Word(ints)
        wider = product_closure(gens, 6)
        for _ in range(5):
            w = random_reduced_word(rng, 2, rng.randint(0, 6))
            if member(g, w) is None:
                assert w.ints not in wider, (gens, w)


@criterion(3, "coset enumeration orders and low-index counts vs oracles")
def test_criterion_03():
    started = time.monotonic()
    for label, text, perms in FINITE_CORPUS:
        p = parse(text)
        t = todd_coxeter(p, ())
        expected = perm_group_order(perms)
        assert expected <= 60, label
        assert t.index == expected, label
    f2 = parse("< a, b | >")
    expected_counts = hall_counts(2, 4)
    got = [0, 0, 0, 0]
    for t in low_index(f2, 4):
        got[t.index - 1] += 1
    assert got == expected_counts
    assert time.monotonic() - started < 60.0


@criterion(4, "Reidemeister-Schreier ranks for index <= 3 in F2")
def test_criterion_04():
    f2 = parse("< a, b | >")
    checked = 0
    for t in low_index(f2, 3):
        rs = rs_presentation(f2, t)
        assert rs.presentation.relators == ()
        assert rs.presentation.rank == t.index + 1
        checked += 1
    assert checked == sum(hall_counts(2, 3))


@criterion(5, "effective coherence: presentation of <a^2, b> with verified witness")
def test_criterion_05():
    f2 = parse("< a, b | >")
    wp = free_oracle(f2)
    res = subgroup_presentation_lr(
        f2, (Word((1, 1)), Word((2,))), budget=10**6, oracle=wp
    )
    assert isinstance(res, SubgroupPresentationResult)
    assert res.presentation.rank == 2
    assert res.presentation.relators == ()
    assert res.witness.verify(wp) is True
    for i, e in enumerate(res.witness.retraction.s_exprs):
        assert res.witness.rs.embed(e) == (Word((1, 1)), Word((2,)))[i]


@criterion(6, "tower word problem vs specialization and consequence oracles, 500 words")
def test_criterion_06():
    started = time.monotonic()
    t1 = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
    overruns = 0
    for w, expected in t1_corpus():
        got = wp_ice(t1, w)
        if got not in (True, False):
            overruns += 1
            continue
        if expected is True:
            assert got is True, w  # consequence oracle: built trivial
        witness = t1_nontrivial_witness(w, 2 * len(w.ints) + 2)
        if got:
            assert witness is None, (w, witness)
        else:
            assert witness is not None, w
    assert overruns == 0
    assert time.monotonic() - started < 120.0


@criterion(7, "centralizer ranks and exhaustive commuting check to length 4")
def test_criterion_07():
    t1 = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
    a, b, t = Word((1,)), Word((2,)), Word((3,))

    z_a = centralizer_ice(t1, a)
    assert z_a == (a, t)
    z_b = centralizer_ice(t1, b)
    assert z_b == (b,)
    conj = conjugate(a, b)
    z_conj = centralizer_ice(t1, conj)
    assert z_conj == (conjugate(a, b), conjugate(t, b))

    def exponents(w):
        out = [0, 0, 0]
        for x in w.ints:
            out[abs(x) - 1] += 1 if x > 0 else -1
        return out

    def in_span(w, basis):
        cols = [exponents(x) for x in basis]
        rows = [[cols[j][i] for j in range(len(basis))] for i in range(3)]
        got = solve(rows, exponents(w), len(basis))
        if got is None:
            return False
        coeffs, _ = got
        cand = Word(())
        for c, x in zip(coeffs, basis):
            cand = cand * x**c
        return wp_ice(t1, w * cand.inv())

    for target, basis in ((a, z_a), (b, z_b), (conj, z_conj)):
        for w in words_upto(3, 4):
            commutes = wp_ice(t1, commutator(w, target))
            assert in_span(w, basis) == commutes, (target, w)


@criterion(8, "enumeration prefixes match goldens; 200-prefix abelianization clean")
def test_criterion_08():
    ice_golden = json.loads((GOLDEN / "ice_prefix.json").read_text())
    live = []
    for tower, pres in itertools.islice(enumerate_ice(), len(ice_golden)):
        live.append({"tower": tower_to_json(tower), "presentation": serialize(pres)})
    assert live == ice_golden

    limit_golden = json.loads((GOLDEN / "limit_prefix.json").read_text())
    enum = LimitEnumeration()
    emissions = []
    while len(emissions) < len(limit_golden):
        emissions.extend(enum.next_round())
    from limitforge.words import format_word

    live = []
    for e in emissions[: len(limit_golden)]:
        names = tower_names(e.tower)
        live.append(
            {
                "presentation": serialize(e.presentation),
                "tower": tower_to_json(e.tower),
                "s_words": [format_word(w, names) for w in e.s_words],
            }
        )
    assert live == limit_golden

    for p in itertools.islice(enumerate_limit_groups(), 200):
        rank, torsion = abelianization(p)
        assert torsion == (), serialize(p)


RECOGNITION_CORPUS = (
    ("F1", "< a | >", "builtin:free", None, Limit),
    ("F2", "< a, b | >", "builtin:free", None, Limit),
    ("Z^2", "< a, b | [a,b] >", "builtin:abelian", None, Limit),
    ("Z^3", "< a, b, c | [a,b], [a,c], [b,c] >", "builtin:abelian", None, Limit),
    (
        "height-one tower",
        "< a, b, t | [a,t] >",
        "builtin:ice",
        {"base_rank": 2, "steps": [{"g": "a", "n": 1}]},
        Limit,
    ),
    ("Z/2", "< a | a^2 >", "builtin:finite", None, NotLimit),
    ("F2 x Z", "< a, b, z | [a,z], [b,z] >", "builtin:product", None, NotLimit),
    ("Klein bottle", "< a, b | b*a*b^-1*a >", "builtin:klein", None, NotLimit),
)


@pytest.fixture(scope="module")
def recognition_runs():
    started = time.monotonic()
    runs = []
    for name, text, strategy, tower_doc, expected in RECOGNITION_CORPUS:
        p = parse(text)
        tower = tower_from_json(tower_doc) if tower_doc else None
        wp = oracle_from(p, strategy, tower=tower)
        v = recognize_limit(p, wp, budget=10**7)
        runs.append((name, p, wp, v, expected))
    g2 = commutator(Word((1,)), Word((2,)))
    v = recognize_cyclically_pinched(2, 2, g2, g2, GENUS2_BUDGET)
    runs.append(("genus 2 surface", v.presentation, None, v, None))
    return runs, time.monotonic() - started


@criterion(9, "recognition corpus verdicts with re-verifiable witness chains")
def test_criterion_09(recognition_runs):
    runs, elapsed = recognition_runs
    for name, p, wp, v, expected in runs:
        if expected is None:
            # documented incompleteness: the genus-two surface group is a
            # limit group, but the witness search does not reach it at desk
            # budgets, so Unknown is the accepted verdict here
            assert isinstance(v, (Limit, Unknown)), name
            assert v.report["used"] <= v.report["budget"], name
            continue
        assert isinstance(v, expected), (name, v)
        assert v.report["used"] <= v.report["budget"], name
        if isinstance(v, Limit):
            assert v.reverify() is True, name
        else:
            assert v.reverify(wp) is True, name
    assert elapsed < 600.0


# exact steps each corpus row spends; a reordered table or candidate
# stream shows here even when every verdict stays the same
RECOGNITION_STEPS = {
    "F1": 167,
    "F2": 346,
    "Z^2": 439,
    "Z^3": 4219,
    "height-one tower": 16_304,
    "Z/2": 4,
    "F2 x Z": 273,
    "Klein bottle": 14,
    "genus 2 surface": 100_000,
}


def test_recognition_step_counts_are_pinned(recognition_runs):
    runs, _ = recognition_runs
    used = {name: v.report["used"] for name, p, wp, v, expected in runs}
    assert used == RECOGNITION_STEPS


@criterion(10, "all produced witnesses survive refutation at bound 3")
def test_criterion_10(recognition_runs):
    runs, _ = recognition_runs
    checked = 0
    for name, p, wp, v, expected in runs:
        if not isinstance(v, NotLimit):
            continue
        s = witness_sentence(p, v.witness)
        assert refute_sentence(s, 3) is None, name
        checked += 1
    assert checked == 3
