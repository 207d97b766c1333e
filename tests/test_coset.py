"""Coset enumeration, low-index search, subgroup rewriting."""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.abelian import abelian_invariants
from limitforge.coset import (
    CosetTable,
    Overflow,
    fold,
    low_index,
    member,
    rs_presentation,
    subgroups_of_index,
    todd_coxeter,
)
from limitforge.ice import enumerate_ice
from limitforge.presentation import parse
from limitforge.oracles import oracle_from
from limitforge.retracts import RetractionSearch, SubgroupAtlas
from limitforge.words import Word

from oracles import (
    FINITE_CORPUS,
    hall_counts,
    low_index_reference,
    perm_group_order,
    rewrite_in_subgroup,
    schreier_basis_reference,
)

F2 = parse("< a, b | >")
Z2 = parse("< a, b | [a,b] >")
GENUS2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")


def test_orders_match_permutation_closure():
    for label, text, perms in FINITE_CORPUS:
        p = parse(text)
        t = todd_coxeter(p, ())
        assert isinstance(t, CosetTable), label
        assert t.index == perm_group_order(perms), label
        assert t.is_complete()


def test_overflow_on_infinite_group():
    with pytest.raises(Overflow):
        todd_coxeter(F2, (), max_cosets=500)


def test_subgroup_of_index_two():
    # kernel of the mod-2 exponent count on b
    t = todd_coxeter(F2, (Word((1,)), Word((2, 2)), Word((2, 1, -2))))
    assert t.index == 2


def test_table_traces_relators_and_subgens():
    p = parse("< a, b | a^3, b^2, a*b*a*b >")  # S3 on a 3-cycle and a flip
    t = todd_coxeter(p, (Word((2,)),))
    assert t.index == 3
    for r in p.relators:
        for c in range(t.index):
            assert t.trace(c, r) == c
    assert t.trace(0, Word((2,))) == 0


def test_low_index_counts_match_recursion():
    expected = hall_counts(2, 3)
    tables = list(low_index(F2, 3))
    by_index = [0, 0, 0]
    for t in tables:
        by_index[t.index - 1] += 1
    assert by_index == expected


def test_low_index_tables_are_distinct_and_valid():
    seen = set()
    for t in low_index(F2, 3):
        key = t.rows
        assert key not in seen
        seen.add(key)
        assert t.is_complete()


LOW_INDEX_CASES = {
    "Z2": ("< a, b | [a,b] >", 30),
    "genus2": ("< a, b, c, d | [a,b]*[c,d]^-1 >", 4),
    "a^2": ("< a, b | a^2 >", 8),
    "Z3": ("< a, b, c | [a,b], [a,c], [b,c] >", 10),
    "Z2-by-t": ("< a, b, t | [a,b], [t,a*b] >", 7),
    "F1": ("< a | >", 8),
    "F2": ("< a, b | >", 4),
    "klein": ("< a, b | b*a*b^-1*a >", 8),
    "F2xZ": ("< a, b, z | [a,z], [b,z] >", 4),
    "a": ("< a | a >", 4),
    "trivial": ("< | >", 3),
}


@pytest.mark.parametrize("name", list(LOW_INDEX_CASES))
def test_low_index_matches_its_rescanning_reference(name):
    """Deductions and the undo log reach the same tables, in the same
    order, as re-scanning every relator at every coset after each choice
    and restoring a copied table."""
    text, n = LOW_INDEX_CASES[name]
    p = parse(text)
    assert [t.rows for t in low_index(p, n)] == [t.rows for t in low_index_reference(p, n)]


def test_low_index_matches_its_reference_on_tower_presentations():
    for _, p in itertools.islice(enumerate_ice(), 40):
        assert [t.rows for t in low_index(p, 4)] == [t.rows for t in low_index_reference(p, 4)]


def test_low_index_respects_relators():
    # Z x Z has 1 + 3 + 4 + 7 = sigma(k) subgroups of index k
    counts = {}
    for t in low_index(Z2, 4):
        counts[t.index] = counts.get(t.index, 0) + 1
    assert counts == {1: 1, 2: 3, 3: 4, 4: 7}


EXACT_INDEX_CASES = (
    F2,
    Z2,
    parse("< a, b, t | [a,t] >"),
    parse("< a, b, c, d | [a,b]*[c,d]^-1 >"),
)


@pytest.mark.parametrize("p", EXACT_INDEX_CASES, ids=["F2", "Z2", "tower1", "genus2"])
def test_exact_index_walk_keeps_low_index_order(p):
    """The index-n tables come in the same order from subgroups_of_index
    and from low_index to bound n or n + 1."""
    counts = []
    for n in (1, 2, 3):
        got = list(subgroups_of_index(p, n))
        for bound in (n, n + 1):
            assert got == [t for t in low_index(p, bound) if t.index == n]
        counts.append(len(got))
    if p is F2:
        assert counts == hall_counts(2, 3)
    elif p is Z2:
        assert counts == [1, 3, 4]  # sigma(n)


def test_nielsen_schreier_rank():
    # index k subgroup of F2 is free of rank k + 1
    for k in (1, 2, 3):
        for t in subgroups_of_index(F2, k):
            rs = rs_presentation(F2, t)
            assert rs.presentation.relators == ()
            assert rs.presentation.rank == k + 1


def test_rs_presentation_with_relators():
    for t in subgroups_of_index(Z2, 2):
        rs = rs_presentation(Z2, t)
        simplified = abelian_invariants(rs.presentation.rank, rs.presentation.relators)
        assert simplified == (2, ())  # every index-2 subgroup of Z^2 is Z^2


@pytest.mark.parametrize("p", [F2, GENUS2], ids=["F2", "genus2"])
def test_lazy_schreier_basis_matches_eager_reference(p):
    """A Schreier tree builds its basis only when it is read, and then
    equal to the basis built at once, on every table of index <= 4."""
    for t in low_index(p, 4):
        tree = t.schreier
        assert "basis" not in tree.__dict__
        assert tree.basis == schreier_basis_reference(t.rows, p.rank)
    for words in ([Word((1, 1)), Word((2, 1, -2))], [Word((1, 2, 1))]):
        g = fold(2, words)  # missing edges
        assert g.schreier.basis == schreier_basis_reference(g.rows, 2)


def test_retraction_search_presents_only_tables_that_hold_s():
    """Membership of S reads only the coset table: a table that misses S
    builds no Schreier tree, and each table that holds S is presented."""
    atlas = SubgroupAtlas(GENUS2)
    s_words = (Word((1, 1)), Word((2,)))
    search = RetractionSearch(GENUS2, s_words, oracle_from(GENUS2, "builtin:pinched"), atlas)
    assert search.run(2000) is None and search.cost > 3
    missed = held = 0
    for index in range(1, search.cost):  # the indices walked in full
        for t in atlas.tables(index):
            if all(t.trace(0, w) == 0 for w in s_words):
                held += 1
                assert "basis" in t.schreier.__dict__
            else:
                missed += 1
                assert "schreier" not in t.__dict__
    assert missed > 0 and held > 0


def test_rs_presentations_do_not_move():
    """Every Reidemeister-Schreier presentation of index <= 4 in F2 and
    <= 3 in genus two, with its generators and trace, as first pinned."""
    h = hashlib.sha256()
    for p, n in ((F2, 4), (GENUS2, 3)):
        for t in low_index(p, n):
            rs = rs_presentation(p, t)
            h.update(repr((rs.presentation, rs.gens_ambient, rs.trace)).encode())
    assert h.hexdigest() == "1260335be9878615e6af3a552c3f27d277dd4569c6f304f2fa7eae0107e5a560"


def test_rewrite_in_subgroup():
    t = todd_coxeter(F2, (Word((1,)), Word((2, 2)), Word((2, 1, -2))))
    rs = rs_presentation(F2, t)
    inside = Word((2, 1, -2))
    expr = rewrite_in_subgroup(t, inside)
    assert expr is not None
    assert rs.embed(expr) == inside
    assert rewrite_in_subgroup(t, Word((2,))) is None


def test_embed_round_trips_generators():
    t = todd_coxeter(F2, (Word((1, 1)), Word((2,)), Word((1, 2, -1))))
    rs = rs_presentation(F2, t)
    for j in range(rs.presentation.rank):
        g = Word((j + 1,))
        amb = rs.embed(g)
        back = rewrite_in_subgroup(t, amb)
        assert back == g


@pytest.fixture(scope="module")
def f2_tables_and_graphs():
    """Each subgroup of index <= 4 in F2, as a coset table and as the
    Stallings graph folded from its Reidemeister-Schreier generators."""
    out = []
    for t in low_index(F2, 4):
        gens = rs_presentation(F2, t).gens_ambient
        out.append((t, gens, fold(2, gens)))
    return out


def test_stallings_graphs_match_coset_tables(f2_tables_and_graphs):
    assert len(f2_tables_and_graphs) == 88
    for t, gens, g in f2_tables_and_graphs:
        assert g.rows == t.rows
        assert g.schreier.basis == gens


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12).map(Word.make))
def test_membership_matches_subgroup_rewriting(f2_tables_and_graphs, w):
    for t, _, g in f2_tables_and_graphs:
        assert member(g, w) == rewrite_in_subgroup(t, w)
