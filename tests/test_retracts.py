"""Retraction search and subgroup presentation via local retractions."""

import itertools
import random
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import limitforge.retracts as retracts
from limitforge.abelian import exponent_vector
from limitforge.cli import CORPUS, oracle_from
from limitforge.ice import ice_oracle, presentation_of, tower_from_json
from limitforge.oracles import free_abelian_oracle, free_oracle
from limitforge.presentation import parse, substitute
from limitforge.retracts import (
    Retraction,
    RetractionFound,
    RetractionSearch,
    SearchExhausted,
    SubgroupAtlas,
    SubgroupPresentationResult,
    _Branch,
    find_retraction,
    subgroup_presentation_lr,
)
from limitforge.words import EMPTY, Word, commutator

from oracles import RetractionSearchLoop, random_reduced_word

F2 = parse("< a, b | >")
Z2 = parse("< a, b | [a,b] >")
TOWER1 = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
TOWER1_P = presentation_of(TOWER1)


def W(*ints):
    return Word.make(ints)


def test_retraction_check_words():
    # rho fixing both generators of a free presentation checks out trivially
    r = Retraction(F2, (W(1), W(2)), (W(1), W(2)))
    assert all(w == EMPTY for w in r.check_words())
    # rho sending b to 1 must still fix the S side
    r = Retraction(F2, (W(1), EMPTY), (W(1),))
    assert all(w == EMPTY for w in r.check_words())


def test_find_retraction_square_and_free_generator():
    wp = free_oracle(F2)
    found = find_retraction(F2, (W(1, 1), W(2)), oracle=wp)
    assert isinstance(found, RetractionFound)
    assert found.cost == 4
    assert found.table.index == 2
    assert found.verify(wp) is True


def test_identity_retraction_on_full_generating_set():
    wp = free_oracle(F2)
    found = find_retraction(F2, (W(1), W(2)), oracle=wp)
    assert isinstance(found, RetractionFound)
    # whole group at index 1, each generator its own image
    assert found.table.index == 1
    assert found.cost == 3
    assert found.verify(wp) is True


def test_search_exhausted_on_tiny_budget():
    got = find_retraction(F2, (W(1, 1), W(2)), budget=3, oracle=free_oracle(F2))
    assert isinstance(got, SearchExhausted)
    assert got.steps <= 3


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        find_retraction(F2, (W(1),), budget=-1, oracle=free_oracle(F2))
    got = find_retraction(F2, (W(1),), budget=0, oracle=free_oracle(F2))
    assert got == SearchExhausted(0)


def _s_sets(rank: int):
    a, b = W(1), W(2)
    yield (a,)
    yield (a * a,)
    if rank >= 2:
        yield from ((a * b,), (commutator(a, b),), (a, b * b), (a * a, b * b * b))


@pytest.mark.parametrize("row", CORPUS, ids=[row[0] for row in CORPUS])
def test_retraction_meter_matches_its_old_loop(row):
    """The shared meter charges a retraction search as its own loop did:
    in the same run() slices, both have spent the same steps and found
    the same retraction after each slice."""
    _, text, strategy, tower_doc = row[:4]
    p = parse(text)
    tower = tower_from_json(tower_doc) if tower_doc else None
    wp = oracle_from(p, strategy, tower=tower)
    atlas = SubgroupAtlas(p)
    for s in _s_sets(p.rank):
        new = RetractionSearch(p, s, wp, atlas)
        old = RetractionSearchLoop(p, s, wp, atlas)
        slices = itertools.cycle((1, 5, 128, 1000))
        while old.spent < 3000 and old.found is None:
            k = next(slices)
            assert _outcome(new, new.run(k)) == _outcome(old, old.run(k))
            assert (new.spent, new.found) == (old.spent, old.found)


def test_subgroup_presentation_square_and_free_generator():
    res = subgroup_presentation_lr(F2, (W(1, 1), W(2)), oracle=free_oracle(F2))
    assert isinstance(res, SubgroupPresentationResult)
    assert res.presentation.rank == 2
    assert res.presentation.relators == ()
    # ambient expressions generate exactly the input subgroup
    assert set(res.gens_ambient) == {W(1, 1), W(2)}
    assert res.witness.verify(free_oracle(F2)) is True


def test_subgroup_presentation_correspondences_substitute():
    s_words = (W(1, 1), W(1, 2))
    res = subgroup_presentation_lr(F2, s_words, oracle=free_oracle(F2))
    assert isinstance(res, SubgroupPresentationResult)
    for j in range(res.presentation.rank):
        over_s = res.gens_in_s[j]
        assert substitute(over_s, s_words) == res.gens_ambient[j]


def test_retraction_search_is_deterministic():
    a = find_retraction(F2, (W(1, 1), W(2)), oracle=free_oracle(F2))
    b = find_retraction(F2, (W(1, 1), W(2)), oracle=free_oracle(F2))
    assert a.cost == b.cost
    assert a.table.rows == b.table.rows
    assert a.retraction == b.retraction


def test_random_small_sets_verify():
    """Desk-scale sweep: whenever the search succeeds, the witness verifies
    and the S expressions embed back to the inputs."""
    rng = random.Random(51)
    wp = free_oracle(F2)
    found_count = 0
    for _ in range(25):
        nset = rng.randint(1, 2)
        s_words = tuple(
            random_reduced_word(rng, 2, rng.randint(1, 3)) for _ in range(nset)
        )
        got = find_retraction(F2, s_words, budget=60000, oracle=wp)
        if isinstance(got, SearchExhausted):
            continue
        found_count += 1
        assert got.verify(wp) is True
        for i, e in enumerate(got.retraction.s_exprs):
            assert got.rs.embed(e) == s_words[i]
    assert found_count >= 10


# several generating sets on one presentation; some find a retraction at
# index 1 or 2, one runs out of steps at a higher index
SHARED_CASES = (
    (Z2, free_abelian_oracle(Z2), ((1,),), ((1, 1),), ((1,), (2,)), ((1, 1), (2, 2))),
    (
        TOWER1_P,
        ice_oracle(TOWER1),
        ((1,),),
        ((3,),),
        ((1,), (3,)),
        ((2,), (3,)),
        ((1, 1), (2,)),
        ((2, 2), (3,)),
    ),
)


def _outcome(search: RetractionSearch, found):
    if found is None:
        return None, search.steps
    r = found.retraction
    return (found.table, r.y_words, r.s_exprs, found.cost), search.steps


def test_shared_atlas_matches_private_atlases(monkeypatch):
    rs_calls: Counter = Counter()
    low_calls: Counter = Counter()
    rs_presentation, low_index = retracts.rs_presentation, retracts.low_index

    def counting_rs(p, t):
        rs_calls[p, t] += 1
        return rs_presentation(p, t)

    def counting_low(p, n):
        low_calls[p, n] += 1
        return low_index(p, n)

    monkeypatch.setattr(retracts, "rs_presentation", counting_rs)
    monkeypatch.setattr(retracts, "low_index", counting_low)
    for p, wp, *s_sets in SHARED_CASES:
        s_sets = [tuple(Word.make(w) for w in s) for s in s_sets]
        rs_calls.clear()
        private = []
        for s in s_sets:
            search = RetractionSearch(p, s, wp)
            private.append(_outcome(search, search.run(3000)))
        private_rs = sum(rs_calls.values())
        rs_calls.clear()
        low_calls.clear()
        atlas = SubgroupAtlas(p)
        for s, expected in zip(s_sets, private):
            search = RetractionSearch(p, s, wp, atlas)
            assert _outcome(search, search.run(3000)) == expected
        assert set(rs_calls.values()) == {1}
        assert set(low_calls.values()) == {1}
        assert sum(rs_calls.values()) < private_rs


PREFILTER_CASES = (
    (F2, free_oracle(F2)),
    (Z2, free_abelian_oracle(Z2)),
    (TOWER1_P, ice_oracle(TOWER1)),
)
PREFILTER_ATLASES = [SubgroupAtlas(p) for p, _ in PREFILTER_CASES]


def _words(rank: int, max_len: int):
    letters = [x for k in range(1, rank + 1) for x in (k, -k)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(Word.make)


@st.composite
def _branch_and_y(draw):
    case = draw(st.integers(0, len(PREFILTER_CASES) - 1))
    atlas = PREFILTER_ATLASES[case]
    tables = [t for n in (1, 2, 3) for t in atlas.tables(n)]
    sub = atlas.subgroup(draw(st.sampled_from(tables)))
    # S often holds K's own generators, so some candidates pass
    gens = st.sampled_from([Word((k,)) for k in range(1, sub.rank + 1)])
    s_exprs = draw(st.lists(gens | _words(sub.rank, 3), min_size=1, max_size=3))
    m = len(s_exprs)
    letters = st.sampled_from([Word((k,)) for k in range(1, m + 1)])
    y = draw(st.lists(letters | _words(m, 3), min_size=sub.rank, max_size=sub.rank))
    return case, _Branch(sub, tuple(s_exprs)), tuple(y)


def _admit_with_words(search: RetractionSearch, br: _Branch, y):
    """The lattice test on exponent vectors of built words."""
    retraction = Retraction(br.rs.presentation, y, br.s_exprs)
    checks = retraction.check_words()
    for w in checks:
        if exponent_vector(w, br.rank) not in br.sub.lattice:
            return None
    for w in checks:
        if w.ints and search.oracle(br.rs.embed(w)) is not True:
            return None
    return RetractionFound(br.rs.table, br.rs, retraction, search.cost)


@settings(max_examples=300, deadline=None)
@given(_branch_and_y())
def test_check_vectors_match_check_word_exponents(drawn):
    case, br, y = drawn
    words = Retraction(br.rs.presentation, y, br.s_exprs).check_words()
    expected = [tuple(exponent_vector(w, br.rank)) for w in words]
    assert list(br.check_vectors(y)) == expected
    p, wp = PREFILTER_CASES[case]
    search = RetractionSearch(p, (), wp, PREFILTER_ATLASES[case])
    assert search._admit(br, y) == _admit_with_words(search, br, y)
