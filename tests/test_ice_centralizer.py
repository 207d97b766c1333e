"""Centralizer computation in towers.

The height-one tower over F2 extended along a: centralizers of base
elements either stay cyclic or pick up the new letter.  The exponent-vector
pre-tests of the root and conjugator searches are checked against the
unpruned searches and on their own.
"""

import itertools
import random
import sys

from hypothesis import assume, given, settings, strategies as st

from limitforge import ice
from limitforge.abelian import exponent_vector
from limitforge.ice import (
    _classify,
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

from oracles import conjugate, random_reduced_word, t1_specialize

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


def _pretest_towers():
    """The first 300 towers of enumerate_ice, T3, and T1 extended along
    b^k a b^-k for k = 1..6, built afresh so that every edge basis comes
    from the centralizer search in force."""
    out = [t for t, _ in itertools.islice(enumerate_ice(), 300)]
    out.append(tower_from_json(T3_DOC))
    t1 = tower_from_json(T1_DOC)
    out += [extend_centralizer(t1, B**k * A * B**-k, 1) for k in range(1, 7)]
    return out


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
    # zero exponent vectors pass both pre-tests, which recovers the
    # unpruned root and conjugator searches
    towers = _pretest_towers()
    pruned = _answers(towers)
    monkeypatch.setattr(ice, "exponent_vector", lambda w, n: [0] * n)
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
    assert _classify(T3, u).kind == "hyperbolic"
    assert calls == [u.ints]  # the membership test of u itself
