"""Centralizer computation in towers.

The height-one tower over F2 extended along a: centralizers of base
elements either stay cyclic or pick up the new letter.
"""

from limitforge.ice import centralizer_ice, tower_from_json, wp_ice
from limitforge.words import Word, commutator, words_upto

from oracles import conjugate, t1_specialize

T1 = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
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
