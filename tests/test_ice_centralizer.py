"""Centralizer computation in towers.

The height-one tower over F2 extended along a: centralizers of base
elements either stay cyclic or pick up the new letter.  Roots and
conjugators into cyclic edge groups come from edge equations; the
exponent-vector tests in front of them and of edge membership are checked
against the unpruned paths and on their own, and every edge basis against
the finite quotients of its tower's presentation.
"""

import hashlib
import itertools
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from limitforge import ice
from limitforge.abelian import Lattice, exponent_vector
from limitforge.coset import low_index
from limitforge.ice import (
    _classify,
    _max_root,
    _pinch,
    _syl_word,
    centralizer_ice,
    enumerate_ice,
    extend_centralizer,
    presentation_of,
    tower_from_json,
    wp_ice,
)
from limitforge.words import Word, commutator, words_upto

from oracles import (
    conjugate,
    max_root_reference,
    random_reduced_word,
    syl_word_reference,
    t1_specialize,
)

T1_DOC = {"base_rank": 2, "steps": [{"g": "a", "n": 1}]}
T3_DOC = {
    "base_rank": 2,
    "steps": [{"g": "a", "n": 1}, {"g": "b*t", "n": 2}, {"g": "[a,b]", "n": 1}],
}
T1 = tower_from_json(T1_DOC)
T3 = tower_from_json(T3_DOC)
A, B, T = Word((1,)), Word((2,)), Word((3,))


def exponents(w, n=3):
    out = [0] * n
    for x in w.ints:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return out


def in_span(w, basis):
    """Membership in an abelian subgroup spanned by the basis, decided by
    matching exponent vectors and checking the difference dies."""
    from limitforge.abelian import solve

    cols = [exponents(b) for b in basis]
    rows = [[cols[j][i] for j in range(len(basis))] for i in range(3)]
    got = solve(rows, exponents(w), len(basis))
    if got is None:
        return False
    coeffs, _ = got
    cand = Word(())
    for c, b in zip(coeffs, basis):
        cand = cand * b**c
    return wp_ice(T1, w * cand.inv())


def test_centralizer_of_extended_element():
    basis = centralizer_ice(T1, A)
    assert basis == (A, T)
    for b in basis:
        assert wp_ice(T1, commutator(b, A)) is True


def test_centralizer_of_untouched_base_element():
    basis = centralizer_ice(T1, B)
    assert basis == (B,)


def test_centralizer_of_conjugate_is_conjugated():
    w = conjugate(A, B)
    basis = centralizer_ice(T1, w)
    assert basis == (conjugate(A, B), conjugate(T, B))
    for b in basis:
        assert wp_ice(T1, commutator(b, w)) is True


def test_centralizer_of_power_matches_root():
    assert centralizer_ice(T1, A * A) == centralizer_ice(T1, A)
    assert centralizer_ice(T1, B**3) == (B,)


def test_centralizer_of_new_letter():
    basis = centralizer_ice(T1, T)
    assert set(basis) == {A, T}


def test_mixed_element_has_cyclic_centralizer():
    w = B * T
    basis = centralizer_ice(T1, w)
    assert len(basis) == 1
    assert wp_ice(T1, commutator(basis[0], w)) is True


def test_exhaustive_commuting_words_lie_in_computed_centralizer():
    # every word of length <= 3 commuting with the target sits in the span
    # of the returned basis; the acceptance suite pushes this to length 4
    for target in (A, B, conjugate(A, B)):
        basis = centralizer_ice(T1, target)
        for w in words_upto(3, 3):
            commutes = wp_ice(T1, commutator(w, target))
            assert in_span(w, basis) == commutes, (target, w)


def test_centralizer_members_die_under_specialization_with_target():
    # cross-check through the retraction t -> a^k: basis elements keep
    # commuting with the target after specializing
    from limitforge.words import commutator as comm

    for target in (A, B):
        for b in centralizer_ice(T1, target):
            for k in (0, 1, 2, 5):
                img = t1_specialize(comm(b, target), k)
                assert img == Word(()), (target, b, k)


def _regression_towers():
    """T1 extended along b^k a b^-k for k = 1..6, along (b t a^-4)^e for
    e = 2, 3, and along b a b^-1 and then a: towers whose edge bases came
    out too small before the edge equations were solved exactly."""
    t1 = tower_from_json(T1_DOC)
    out = [extend_centralizer(t1, B**k * A * B**-k, 1) for k in range(1, 7)]
    out += [extend_centralizer(t1, (B * T * A**-4) ** e, 1) for e in (2, 3)]
    out.append(extend_centralizer(extend_centralizer(t1, B * A * B.inv(), 1), A, 1))
    return out


def _pretest_towers():
    """The first 300 towers of enumerate_ice, T3 and the regression
    towers, built afresh so that every edge basis comes from the
    centralizer code in force."""
    out = [t for t, _ in itertools.islice(enumerate_ice(), 300)]
    out.append(tower_from_json(T3_DOC))
    return out + _regression_towers()


def _answers(towers):
    """wp_ice answers and centralizer_ice bases of 30 seeded words a tower."""
    out = []
    for t in towers:
        rng = random.Random(20261018)
        rels = presentation_of(t).relators
        for i in range(30):
            w = random_reduced_word(rng, t.rank, rng.randint(1, 10))
            if i % 2 and rels:
                c = random_reduced_word(rng, t.rank, rng.randint(0, 4))
                w = w * conjugate(rng.choice(rels), c)
            trivial = wp_ice(t, w)
            out.append((w, trivial, None if trivial else centralizer_ice(t, w)))
    return out


def test_pretests_keep_every_answer(monkeypatch):
    # zero exponent vectors lie in every span and have gcd 0, so they pass
    # the period tests, and with every word's vector in the edge lattice,
    # which reads letters, the edge membership and conjugator tests pass
    # too: the unpruned paths come back, a commutator or power test for
    # every edge question and an edge equation for every period
    towers = _pretest_towers()
    pruned = _answers(towers)
    monkeypatch.setattr(ice, "exponent_vector", lambda w, n: [0] * n)
    monkeypatch.setattr(Lattice, "contains_word", lambda self, w: True)
    unpruned_towers = _pretest_towers()
    assert unpruned_towers == towers
    assert _answers(unpruned_towers) == pruned


PREFIX = [t for t, _ in itertools.islice(enumerate_ice(), 60) if t.steps]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from([T3] + PREFIX),
    st.lists(st.integers(-6, 6).filter(bool), min_size=2, max_size=14),
)
def test_step_vectors_of_a_power_repeat_with_the_root_period(t, letters):
    w = Word.make(x // abs(x) * ((abs(x) - 1) % t.rank + 1) for x in letters)
    syls, _ = _pinch(t, w, cyclic=True)
    assume(len(syls) >= 2)
    # the cyclically reduced form, a hyperbolic word of the top amalgam
    r = Word()
    for s in syls:
        r = r * _syl_word(t, *s)
    d = len(_pinch(t, r, cyclic=True)[0])
    lo = t.rank - t.steps[-1].n
    for e in (2, 3):
        syls, _ = _pinch(t, r**e, cyclic=True)
        vecs = [exponent_vector(Word(body), t.rank)[lo:] for _, body in syls]
        assert len(vecs) == e * d
        assert vecs[d:] == vecs[:-d], (t, r, e)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from([T3] + PREFIX),
    st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=12),
)
def test_root_exponent_of_a_power_is_a_multiple_of_the_power(t, letters):
    # r^e = w gives vec(w) = e*vec(r), so the gcd bound on root periods
    # keeps the period whose power is e, and the maximal root of r^e is
    # the root of r with e times its exponent
    r = Word.make(x // abs(x) * ((abs(x) - 1) % t.rank + 1) for x in letters)
    assume(not wp_ice(t, r) and _classify(t, r).level is None)
    for e in (2, 3):
        assert _max_root(t, r**e)[1] % e == 0, (t, r, e)


def test_top_free_word_off_the_edge_line_skips_the_conjugator_search(monkeypatch):
    # a*b lies below T3's top step, its exponent vector is nonzero and the
    # top step's g = [a,b] has the zero vector, so no conjugate of it lies
    # in the cyclic edge group
    u = Word((1, 2))
    calls = []
    in_edge = ice._in_edge

    def counting(t, ints):
        if t is T3 and sys._getframe(1).f_code.co_name == "_under_top":
            calls.append(ints)
        return in_edge(t, ints)

    monkeypatch.setattr(ice, "_in_edge", counting)
    assert _classify(T3, u).level is None
    assert calls == [u.ints]  # the membership test of u itself


# ---------------------------------------------------------------------------
# Exact edge equations


@pytest.mark.parametrize("k", range(1, 7))
def test_conjugates_of_the_extended_letter_keep_rank_two(k):
    u = B**k * A * B**-k
    basis = centralizer_ice(T1, u)
    assert basis == (u, B**k * T * B**-k)
    for b in basis:
        assert wp_ice(T1, commutator(b, u)) is True


@pytest.mark.parametrize("e", (2, 3))
def test_root_of_a_power_needing_an_edge_correction(e):
    # (b t a^-4)^e reduces to the syllables b, t, a^-4 b, t, ..., so its
    # root is the first two times the edge correction a^-4
    r = B * T * A**-4
    root, got = _max_root(T1, r**e)
    assert got == e
    assert wp_ice(T1, root * r.inv()) is True
    assert centralizer_ice(T1, r**e) == (root,)


def test_root_correction_over_a_tower_level():
    # T3's top letter w commutes with [a,b]; a power of [a,b] moved
    # between the syllables of (w b)^2 must be found by an edge equation
    # solved over the two-step level below
    w, c = Word((6,)), commutator(A, B)
    word = w * B * c**-5 * w * c**5 * B
    root, e = _max_root(T3, word)
    assert e == 2
    assert wp_ice(T3, root**2 * word.inv()) is True
    assert wp_ice(T3, root * (w * B).inv()) is True


@pytest.mark.parametrize(
    "steps, x",
    [
        # x and g lie in conjugate maximal abelian subgroups of the level
        # below, so x is conjugate into the new edge group
        ([{"g": "a", "n": 1}, {"g": "b*a*b^-1", "n": 1}], "a"),
        ([{"g": "a", "n": 1}, {"g": "a", "n": 1}], "b*a*b^-1"),
    ],
)
def test_parabolic_word_conjugate_into_the_top_edge_group(steps, x):
    t = tower_from_json({"base_rank": 2, "steps": steps})
    w = ice.parse_word(x, ice.tower_names(t))
    basis = centralizer_ice(t, w)
    assert len(basis) == 3
    for b in basis:
        assert wp_ice(t, commutator(b, w)) is True


def test_uncovered_edge_equation_raises(monkeypatch):
    # retractions that kill everything say nothing about a, so the root
    # search of (w b)^2 on T3 cannot settle its edge equation
    t3 = tower_from_json(T3_DOC)
    w = Word((6,))
    monkeypatch.setattr(ice, "_retraction", lambda t, exps: [Word()] * t.rank)
    with pytest.raises(NotImplementedError):
        centralizer_ice(t3, (w * B) ** 2)



def test_edge_equation_over_a_wide_abelian_step():
    # the top edge group C(t) has 11 basis elements, so the root of
    # (x b)^2 needs 11 independent retraction rows; the retractions'
    # exponents stay at most 2, so their images stay short
    t = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 10}, {"g": "t", "n": 1}]})
    assert len(t.steps[-1].basis) == 11
    x = Word((t.rank,))
    start = time.perf_counter()
    assert _max_root(t, (x * B) ** 2) == (x * B, 2)
    assert centralizer_ice(t, (x * B) ** 3) == (x * B,)
    assert time.perf_counter() - start < 5
    assert max(len(w.ints) for images, _, _ in t._edge_images for w in images) <= 2

HYPERBOLIC_TOWERS = [T1, T3] + [t for t in PREFIX if t.base_rank > 1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from(HYPERBOLIC_TOWERS),
    st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=10),
    st.sampled_from((2, 3, -2)),
)
def test_centralizer_of_a_power_is_the_centralizer_of_the_word(t, letters, e):
    r = Word.make(x // abs(x) * ((abs(x) - 1) % t.rank + 1) for x in letters)
    assume(r.ints and _classify(t, r).level is None)
    (mine,) = centralizer_ice(t, r)
    (theirs,) = centralizer_ice(t, r**e)
    # one cyclic group: the two generators agree up to sign
    assert wp_ice(t, mine * theirs.inv()) or wp_ice(t, mine * theirs), (t, r, e)


# ---------------------------------------------------------------------------
# One pinch per centralizer, and step syllables from their letter counts

HEIGHT_THREE = tower_from_json(
    {"base_rank": 2, "steps": [{"g": "a", "n": 1}, {"g": "b*t", "n": 1}, {"g": "[a,b]", "n": 1}]}
)
BASE_RANK_ONE = [t for t, _ in itertools.islice(enumerate_ice(), 30) if t.base_rank == 1]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from([T3] + PREFIX),
    st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=16),
    st.booleans(),
)
def test_syl_word_matches_reference(t, letters, cyclic):
    w = Word.make(x // abs(x) * ((abs(x) - 1) % t.rank + 1) for x in letters)
    level = t
    while level.steps:
        syls, _ = _pinch(level, w, cyclic)
        for f, body in syls:
            assert _syl_word(level, f, body).ints == syl_word_reference(level, f, body).ints
        # the lower syllables go on down the tower
        w = Word.make(x for f, body in syls if not f for x in body)
        level = level.lower()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from([T3] + PREFIX),
    st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=16),
    st.sampled_from((2, 3, -2)),
)
def test_max_root_matches_reference(t, letters, e):
    # the words of test_syl_word_matches_reference and a power of each,
    # which has a period; the word problem asks about each word first
    w = Word.make(x // abs(x) * ((abs(x) - 1) % t.rank + 1) for x in letters)
    for u in (w, w**e):
        if not wp_ice(t, u) and _classify(t, u).level is None:
            assert _max_root(t, u) == max_root_reference(t, u), (t, u)


def test_centralizer_outputs_are_pinned():
    """sha256 over wp_ice answers and centralizer_ice bases of seeded
    words, with powers among them for the root search, on the height-three
    tower and on the base-rank-1 towers among the first 30 of
    enumerate_ice: any change that moves one answer or one basis word
    changes it."""
    h = hashlib.sha256()
    for t, count in [(HEIGHT_THREE, 240)] + [(t, 60) for t in BASE_RANK_ONE]:
        rng = random.Random(20261019)
        rels = presentation_of(t).relators
        for i in range(count):
            w = random_reduced_word(rng, t.rank, rng.randint(1, 9))
            if i % 3 == 1 and rels:
                c = random_reduced_word(rng, t.rank, rng.randint(0, 4))
                w = w * conjugate(rng.choice(rels), c)
            elif i % 3 == 2:
                c = random_reduced_word(rng, t.rank, rng.randint(0, 3))
                w = conjugate(w ** rng.choice((2, 3, -2)), c)
            trivial = wp_ice(t, w)
            h.update(repr((w.ints, trivial)).encode())
            if not trivial:
                h.update(repr([b.ints for b in centralizer_ice(t, w)]).encode())
    assert h.hexdigest() == (
        "63c76883930fa16189a06c27efa2efbd4c19c8f8d667b852b8e2486eb578c9b1"
    )


def test_centralizer_pinches_a_hyperbolic_word_once(monkeypatch):
    # classification reduces w to its cyclic normal form over the top
    # amalgam, and the root step starts from that form; the word problem
    # reduces w without the cyclic step and keeps its syllables, and the
    # cyclic pinch starts from them
    w = ice.parse_word("a*u*b*u^-1*t", ice.tower_names(HEIGHT_THREE))
    pinched = []
    pinch = ice._pinch

    def counting(t, u, cyclic):
        if t is HEIGHT_THREE and u == w and cyclic:
            pinched.append(u)
        return pinch(t, u, cyclic)

    monkeypatch.setattr(ice, "_pinch", counting)
    assert centralizer_ice(HEIGHT_THREE, w) == (w,)
    assert len(pinched) == 1


@pytest.mark.parametrize(
    "word, root, e",
    [
        ("a*u*b*u^-1*t", (1, 4, 2, -4, 3), 1),
        ("b^-1*a*u*b*u^-1*t*a*u*b*u^-1*t*b", (-2, 1, 4, 2, -4, 3, 2), 2),
        ("u*v*a*b*v*a*b*v*a*b*u^-1", (4, 5, 1, 2, -4), 3),
        ("v*b*[a,b]^-2*v*[a,b]^2*b", (5, 2), 2),
    ],
)
def test_max_root_alone_keeps_its_roots(word, root, e):
    w = ice.parse_word(word, ice.tower_names(HEIGHT_THREE))
    assert _max_root(HEIGHT_THREE, w) == (Word(root), e)
    assert centralizer_ice(HEIGHT_THREE, w) == (Word(root),)


# ---------------------------------------------------------------------------
# Consistency harness: every edge basis against the finite quotients


def _harness_towers():
    """The first towers of enumerate_ice with a step, and the regression
    towers, each with the words beyond length 2 that their families need:
    b^k t b^-k for the conjugates of a, b t a^-4 for its powers, and
    b^-1 u b for a below the step over b a b^-1."""
    out = [(t, []) for t, _ in itertools.islice(enumerate_ice(), 120) if t.steps]
    regression = _regression_towers()
    for k, t in enumerate(regression[:6], 1):
        out.append((t, [B**k * T * B**-k]))
    for t in regression[6:8]:
        out.append((t, [B * T * A**-4]))
    out.append((regression[8], [B.inv() * Word((4,)) * B]))
    return out


def test_edge_bases_agree_with_the_presentation():
    # For every x that wp_ice puts in the top step's edge group, the
    # commutator of x with each new letter is a relator consequence, so it
    # acts trivially on every coset table of the tower's presentation.
    checked = 0
    for t, extra in _harness_towers():
        low, step = t.lower(), t.steps[-1]
        first = t.rank - step.n + 1
        letters = [Word((first + i,)) for i in range(step.n)]
        xs = [x for x in itertools.chain(words_upto(low.rank, 2), extra, step.basis)
              if x.ints and wp_ice(low, commutator(x, step.g))]
        tables = list(low_index(presentation_of(t), 3))
        for x in xs:
            for letter in letters:
                word = commutator(x, letter)
                for table in tables:
                    assert all(table.trace(c, word) == c for c in range(table.index)), (t, x)
                checked += 1
    assert checked > 200
