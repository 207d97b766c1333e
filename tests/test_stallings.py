import random

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.freegroup import eval_hom
from limitforge.coset import fold, graph_rank_index, member
from limitforge.words import EMPTY, Word

from oracles import fold_reference, product_closure, random_reduced_word


def W(*ints):
    return Word.make(ints)


def test_single_generator():
    g = fold(2, [W(1)])
    assert member(g, W(1)) is not None
    assert member(g, W(1, 1, 1)) is not None
    assert member(g, W(2)) is None
    assert member(g, W(1, 2)) is None
    assert g.schreier.basis == (W(1),)


def test_empty_generating_set():
    g = fold(2, [])
    assert g.schreier.basis == ()
    assert member(g, EMPTY) == EMPTY
    assert member(g, W(1)) is None
    assert graph_rank_index(g)[0] == 0


def test_finite_index_subgroup():
    # <a^2, b, a b a^-1> has index 2 in F2
    g = fold(2, [W(1, 1), W(2), W(1, 2, -1)])
    rank, index = graph_rank_index(g)
    assert rank == 3
    assert index == 2
    assert member(g, W(1)) is None
    assert member(g, W(1, 1)) is not None


def test_infinite_index_has_inf_marker():
    import math

    g = fold(2, [W(1)])
    rank, index = graph_rank_index(g)
    assert rank == 1
    assert index == math.inf


def test_member_expression_is_faithful():
    gens = [W(1, 1), W(1, 2)]
    g = fold(2, gens)
    basis = g.schreier.basis
    w = W(1, 1) * W(1, 2).inv() * W(1, 1)
    expr = member(g, w)
    assert expr is not None
    assert eval_hom(basis, expr) == w


def test_fold_handles_redundant_generators():
    g = fold(2, [W(1), W(1, 1), EMPTY])
    assert g.schreier.basis == (W(1),)
    rank, _ = graph_rank_index(g)
    assert rank == 1


def test_membership_against_product_closure():
    """Brute products of <= 4 factors are all recognized; rejected words
    never appear even among products of <= 6 factors."""
    rng = random.Random(406)
    for trial in range(60):
        nset = rng.randint(1, 3)
        gens = [random_reduced_word(rng, 2, rng.randint(1, 4)) for _ in range(nset)]
        g = fold(2, gens)
        basis = g.schreier.basis
        closure = product_closure(gens, 4)
        for ints in closure:
            expr = member(g, Word(ints))
            assert expr is not None, (gens, ints)
            assert eval_hom(basis, expr) == Word(ints)
        wider = product_closure(gens, 6)
        for _ in range(20):
            w = random_reduced_word(rng, 2, rng.randint(0, 6))
            if member(g, w) is None:
                assert w.ints not in wider, (gens, w)


@settings(derandomize=True, max_examples=60)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_generators_and_basis_are_members(raw):
    gens = [Word.make(xs) for xs in raw]
    g = fold(2, gens)
    basis = g.schreier.basis
    for w in gens:
        expr = member(g, w)
        assert expr is not None
        assert eval_hom(basis, expr) == w
    for b in basis:
        assert member(g, b) is not None
    # rank never exceeds the number of generators given
    assert len(basis) <= len(gens)
    assert graph_rank_index(g)[0] == len(basis)


def _fold_case(rng: random.Random):
    """(rank, generators), ranks 1-4.  Half the cases are random reduced
    words; the other half share prefixes, repeat inverses and products of
    earlier generators, include the empty word and may use fewer letters
    than the rank."""
    rank = rng.randint(1, 4)
    if rng.random() < 0.5:
        n = rng.randint(0, 4)
        return rank, [random_reduced_word(rng, rank, rng.randint(0, 8)) for _ in range(n)]
    used = rng.randint(1, rank)
    gens: list[Word] = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(5)
        if kind == 0 or not gens:
            w = random_reduced_word(rng, used, rng.randint(1, 8))
        elif kind == 1:
            head = rng.choice(gens).ints
            tail = random_reduced_word(rng, used, rng.randint(1, 5)).ints
            w = Word.make(head[: rng.randint(0, len(head))] + tail)
        elif kind == 2:
            w = rng.choice(gens).inv()
        elif kind == 3:
            w = rng.choice(gens) * rng.choice(gens)
            if rng.random() < 0.5:
                w = w * rng.choice(gens).inv()
        else:
            w = EMPTY
        gens.append(w)
    rng.shuffle(gens)
    return rank, gens


@pytest.fixture(scope="module")
def fold_cases():
    rng = random.Random(20261018)
    return [_fold_case(rng) for _ in range(40_000)]


def test_fold_matches_reference_folder(fold_cases):
    for rank, gens in fold_cases:
        assert fold(rank, gens).rows == fold_reference(rank, gens).rows, (rank, gens)


def test_folded_graph_has_no_dangling_vertex(fold_cases):
    """Folding reduced words gives an immersion, so every vertex but the
    base keeps at least two edges."""
    for rank, gens in fold_cases:
        rows = fold(rank, gens).rows
        for v in range(1, len(rows)):
            assert sum(d is not None for d in rows[v]) >= 2, (rank, gens, v)
