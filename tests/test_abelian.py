"""Integer matrix routines: Smith form, linear solving, abelianization."""

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.abelian import (
    Lattice,
    abelian_invariants,
    exponent_vector,
    matvec,
    smith_normal_form,
    solve,
)
from limitforge.words import Word, commutator


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_snf_examples():
    D, U, V = smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]
    D, _, _ = smith_normal_form([[2, 4], [4, 8]])
    assert [D[0][0], D[1][1]] == [2, 0]
    D, _, _ = smith_normal_form([[0, 0]], ncols=2)
    assert D[0] == [0, 0]


def test_snf_empty_matrix_needs_ncols():
    with pytest.raises(ValueError):
        smith_normal_form([])
    D, U, V = smith_normal_form([], ncols=3)
    assert D == []
    assert V == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_solve_examples():
    x, kernel = solve([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3]
    assert kernel == []
    assert solve([[2]], [3], ncols=1) is None
    x, kernel = solve([[1, 1]], [5], ncols=2)
    assert sum(x) == 5
    assert len(kernel) == 1


def test_exponent_vector():
    assert exponent_vector(Word((1, 1, -2)), 3) == [2, -1, 0]
    assert exponent_vector(Word(()), 2) == [0, 0]


def test_abelian_invariants_examples():
    # free: full rank, no torsion
    assert abelian_invariants(2, []) == (2, ())
    # Z x Z with the commutator killed: still rank 2
    assert abelian_invariants(2, [commutator(Word((1,)), Word((2,)))]) == (2, ())
    # finite cyclic
    assert abelian_invariants(1, [Word((1, 1))]) == (0, (2,))
    # klein bottle b*a*b^-1*a abelianizes to Z + Z/2
    assert abelian_invariants(2, [Word((2, 1, -2, 1))]) == (1, (2,))
    # unit diagonal entries are dropped from the torsion list
    assert abelian_invariants(2, [Word((1,)), Word((2, 2))]) == (0, (2,))


small_matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@settings(derandomize=True, max_examples=150)
@given(small_matrices)
def test_snf_transform_identity(rows):
    D, U, V = smith_normal_form(rows, 3)
    assert matmul(matmul(U, rows), V) == D
    diag = [D[i][i] for i in range(min(len(rows), 3))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
    # off-diagonal must vanish
    for i, row in enumerate(D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0


@settings(derandomize=True, max_examples=150)
@given(small_matrices, st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3))
def test_solve_verifies(rows, x_true):
    b = matvec(rows, x_true)
    got = solve(rows, b, 3)
    assert got is not None
    x, kernel = got
    assert matvec(rows, x) == b
    for k in kernel:
        assert matvec(rows, k) == [0] * len(rows)


def test_lattice_examples():
    # Klein's relator b*a*b^-1*a: torsion, 2*ab(a) is in L but ab(a) is not
    klein = Lattice([[2, 0]], 2)
    assert [0, 0] in klein and [2, 0] in klein and [-4, 0] in klein
    assert [1, 0] not in klein and [0, 1] not in klein
    # no rows and zero rows both span {0}
    for lat in (Lattice([], 2), Lattice([[0, 0], [0, 0]], 2)):
        assert (0, 0) in lat
        assert (1, 0) not in lat and (0, -2) not in lat
    assert () in Lattice([], 0)


@settings(derandomize=True, max_examples=150)
@given(
    st.lists(
        st.one_of(
            st.just([0, 0, 0]),
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        ),
        max_size=4,
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
)
def test_lattice_matches_solve(rows, coeffs, vec):
    lat = Lattice(rows, 3)
    # every integer combination of the rows is in the span
    combo = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(3)]
    assert combo in lat
    # vec is in it exactly when solve finds coefficients that give vec
    cols = [[row[i] for row in rows] for i in range(3)]
    got = solve(cols, vec, ncols=len(rows)) if rows else None
    if got is not None:
        assert matvec(cols, got[0]) == vec
    inside = got is not None or not any(vec)
    assert (vec in lat) is inside
    assert (tuple(vec) in lat) is inside  # the memo answers the same
