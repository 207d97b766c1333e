"""Free-group algebra: cyclic reduction, roots, centralizers, homs."""

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.freegroup import (
    cyclic_reduce,
    eval_hom,
    is_power_of,
    primitive_root,
    standard_names,
)
from limitforge.words import EMPTY, Word, commutator

from oracles import conjugate, is_power_of_reference

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=24)


def W(*ints):
    return Word.make(ints)


def test_standard_names():
    assert standard_names(3) == ("a", "b", "c")
    names = standard_names(30)
    assert len(names) == 30
    assert len(set(names)) == 30
    assert names[18:20] == ("s", "x19")
    assert standard_names(0) == ()
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        standard_names(-1)


def test_cyclic_reduce():
    core, conj = cyclic_reduce(W(1, 2, -1))
    assert core == W(2)
    assert conj == W(1)
    core, conj = cyclic_reduce(W(2, 1))
    assert (core, conj) == (W(2, 1), EMPTY)
    assert cyclic_reduce(EMPTY) == (EMPTY, EMPTY)


def test_primitive_root_examples():
    assert primitive_root(W(1, 2, 1, 2, 1, 2)) == (W(1, 2), 3)
    assert primitive_root(W(1)) == (W(1), 1)
    assert primitive_root(W(-1, -1)) == (W(-1), 2)
    # conjugates of powers: root carries the conjugation
    w = conjugate(W(1, 2) ** 2, W(3))
    root, n = primitive_root(w)
    assert n == 2
    assert root ** n == w


def test_is_power_of():
    assert is_power_of(W(1, 1, 1), W(1)) == 3
    assert is_power_of(W(-1, -1), W(1)) == -2
    assert is_power_of(EMPTY, W(1)) == 0
    assert is_power_of(W(1, 2), W(1)) is None


def test_is_power_of_edge_cases():
    # r not cyclically reduced: powers keep the conjugator once
    r = W(2, 1, 3, -2)
    assert is_power_of(W(2, 1, 3, 1, 3, -2), r) == 2
    assert is_power_of(W(2, -3, -1, -3, -1, -3, -1, -2), r) == -3
    assert is_power_of(W(1, 3, 1, 3), r) is None
    # imprimitive r: exponents count copies of r, not of its root
    a2 = W(1, 1)
    assert is_power_of(W(1, 1, 1, 1), a2) == 2
    assert is_power_of(W(1, 1, 1), a2) is None
    assert is_power_of(W(-1, -1, -1, -1, -1, -1), a2) == -3
    # the right length but the wrong content
    assert is_power_of(W(1, 2, 1, 3), W(1, 2)) is None
    assert is_power_of(W(2, 1, 2, 1), W(1, 2)) is None
    assert is_power_of(W(1), W(1, 2)) is None
    assert is_power_of(W(2), W(1)) is None
    assert is_power_of(W(1), EMPTY) is None
    assert is_power_of(EMPTY, EMPTY) == 0


def test_centralizer_is_root():
    assert primitive_root(W(1, 1)) == (W(1), 2)
    assert primitive_root(W(2, 1, 1, -2)) == (W(2, 1, -2), 2)


def test_eval_hom():
    # a -> ab, b -> b
    images = (W(1, 2), W(2))
    assert eval_hom(images, W(1, -2)) == W(1)
    assert eval_hom(images, EMPTY) == EMPTY
    # kills a commutator when images commute
    same = (W(1), W(1))
    assert eval_hom(same, commutator(W(1), W(2))) == EMPTY


@settings(derandomize=True, max_examples=200)
@given(raw_words)
def test_cyclic_reduce_reassembles(xs):
    w = Word.make(xs)
    core, conj = cyclic_reduce(w)
    assert conjugate(core, conj) == w
    # core is cyclically reduced: no cancellation around the seam
    assert not (core.ints and core.ints[0] == -core.ints[-1])


@settings(derandomize=True, max_examples=200)
@given(raw_words)
def test_primitive_root_reconstructs(xs):
    w = Word.make(xs)
    root, n = primitive_root(w)
    if not w.ints:
        assert (root, n) == (EMPTY, 0)
        return
    assert n >= 1
    assert root ** n == w
    again, m = primitive_root(root)
    assert (again, m) == (root, 1)


@settings(derandomize=True, max_examples=100)
@given(raw_words, st.integers(min_value=2, max_value=5))
def test_is_power_of_detects_built_powers(xs, n):
    r = Word.make(xs)
    if not r.ints:
        return
    assert is_power_of(r ** n, r) == n


@settings(derandomize=True, max_examples=100)
@given(raw_words, raw_words)
def test_eval_hom_is_multiplicative(xs, ys):
    images = (W(1, 2), W(-2), W(3, 1))
    u, v = Word.make(xs), Word.make(ys)
    assert eval_hom(images, u * v) == eval_hom(images, u) * eval_hom(images, v)
    assert eval_hom(images, u.inv()) == eval_hom(images, u).inv()


@settings(derandomize=True, max_examples=100)
@given(raw_words)
def test_centralizer_elements_commute(xs):
    w = Word.make(xs)
    if not w:
        return
    z, _ = primitive_root(w)
    assert commutator(z, w) == EMPTY
    # and w is a power of the generator
    assert is_power_of(w, z) is not None


@settings(derandomize=True, max_examples=300)
@given(raw_words, st.lists(letters, max_size=6), st.integers(min_value=-6, max_value=6))
def test_is_power_of_matches_reference(xs, rs, n):
    w, r = Word.make(xs), Word.make(rs)
    assert is_power_of(w, r) == is_power_of_reference(w, r)
    assert is_power_of(r ** n, r) == is_power_of_reference(r ** n, r)
