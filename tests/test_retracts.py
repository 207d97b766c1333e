"""Retraction search and subgroup presentation via local retractions."""

import itertools
import random
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import limitforge.retracts as retracts
from limitforge.abelian import Lattice, abelian_invariants, exponent_vector
from limitforge.cli import CORPUS, oracle_from
from limitforge.coset import rs_presentation, subgroups_of_index
from limitforge.ice import (
    LimitGroupEmission,
    _subset_stream,
    ice_oracle,
    presentation_of,
    tower_from_json,
)
from limitforge.oracles import (
    DOVETAIL_QUERY_CAP,
    WordOracle,
    dovetail_oracle,
    finite_oracle,
    free_abelian_oracle,
    free_oracle,
    klein_oracle,
)
from limitforge.freegroup import eval_hom
from limitforge.presentation import parse
from limitforge.recognize import Limit, recognize_limit
from limitforge.retracts import (
    RetractionFound,
    RetractionSearch,
    SearchExhausted,
    SubgroupAtlas,
    SubgroupPresentationResult,
    _Branch,
    find_retraction,
    set_bits,
    subgroup_presentation_lr,
)
from limitforge.words import EMPTY, Word, commutator, slot

from oracles import (
    RetractionSearchLoop,
    check_vectors_reference,
    present_from_retraction_reference,
    random_reduced_word,
)

F2 = parse("< a, b | >")
Z2 = parse("< a, b | [a,b] >")
GENUS2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")
TOWER1 = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
TOWER1_P = presentation_of(TOWER1)


def W(*ints):
    return Word.make(ints)


def test_retraction_check_words():
    # rho fixing both generators of a free presentation checks out trivially
    rs = rs_presentation(F2, next(subgroups_of_index(F2, 1)))
    r = RetractionFound(rs, (W(1), W(2)), (W(1), W(2)), 0)
    assert all(w == EMPTY for w in r.check_words())
    # rho sending b to 1 must still fix the S side
    r = RetractionFound(rs, (W(1), EMPTY), (W(1),), 0)
    assert all(w == EMPTY for w in r.check_words())


def test_find_retraction_square_and_free_generator():
    wp = free_oracle(F2)
    found = find_retraction(F2, (W(1, 1), W(2)), oracle=wp)
    assert isinstance(found, RetractionFound)
    assert found.cost == 4
    assert found.rs.table.index == 2
    assert found.verify(wp) is True


def test_identity_retraction_on_full_generating_set():
    wp = free_oracle(F2)
    found = find_retraction(F2, (W(1), W(2)), oracle=wp)
    assert isinstance(found, RetractionFound)
    # whole group at index 1, each generator its own image
    assert found.rs.table.index == 1
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


@pytest.mark.parametrize("budget, cap", [(300, 300), (10**7, DOVETAIL_QUERY_CAP)])
def test_default_oracle_queries_are_capped_by_the_budget(monkeypatch, budget, cap):
    """With no oracle, find_retraction and subgroup_presentation_lr build
    the dovetail oracle with the budget per query, never above
    DOVETAIL_QUERY_CAP, so a large budget does not lift the cap."""
    caps = []

    def recording_dovetail(p, per_query):
        caps.append(per_query)
        return free_abelian_oracle(p)

    monkeypatch.setattr(retracts, "dovetail_oracle", recording_dovetail)
    assert isinstance(find_retraction(Z2, (W(1, 1), W(2)), budget), RetractionFound)
    res = subgroup_presentation_lr(Z2, (W(1, 1), W(2)), budget)
    assert isinstance(res, SubgroupPresentationResult)
    assert caps == [cap, cap]


class _Script(retracts.Metered):
    """A synthetic metered stream: each item of `script` is None, a dead
    run n, ("price", p) or a hit string, and None follows forever.  The
    stream records the run() call in which it reached each item;
    `expand` spells each dead run out as Nones, as the meter charges it."""

    def __init__(self, script, expand=False):
        self.script, self.expand = script, expand
        self.calls = 0
        self.reached = []
        super().__init__()

    def run(self, units):
        self.calls += 1
        return super().run(units)

    def _stream(self):
        for item in self.script:
            self.reached.append((self.calls, item))
            if isinstance(item, tuple):
                self.price = item[1]
                yield retracts._REPRICE
            elif isinstance(item, int) and self.expand:
                yield from itertools.repeat(None, item)
            else:
                yield item
        yield from itertools.repeat(None)


METER_SCRIPTS = {
    "run split across calls": (None, 7, None, 11, "hit"),
    "price change after a run": (3, ("price", 2), 4, ("price", 5), 1, None, "hit"),
    "hit after a run": (2, "hit"),
    "runs back to back": (4, 1, 6, None, "hit"),
}


@pytest.mark.parametrize("slices", [(1,), (2,), (3,), (5,), (1, 2, 3, 5)])
@pytest.mark.parametrize("name", sorted(METER_SCRIPTS))
def test_dead_runs_charge_as_their_nones(name, slices):
    """A dead run costs what its items cost one by one, in the same run()
    calls: the part that does not fit stays owed to the next call, and the
    stream is resumed, and reaches each later item, in the same call."""
    script = METER_SCRIPTS[name]
    new, old = _Script(script), _Script(script, expand=True)
    owed = False
    # an item priced above every slice never fits, so the calls are capped
    for k in itertools.islice(itertools.cycle(slices), 100):
        assert new.run(k) == old.run(k)
        assert (new.spent, new.found, new.reached) == (old.spent, old.found, old.reached)
        owed |= new._owed > 0
    if max(slices) >= 5:
        assert new.found == "hit"
    if name == "run split across calls":
        assert owed


def test_a_dead_run_is_never_a_hit():
    meter = _Script((5, 3, 10**9))
    assert meter.run(1000) is None
    assert (meter.spent, meter.found) == (1000, None)
    assert meter._owed == 5 + 3 + 10**9 - 1000
    assert meter.run(0) is None and meter.spent == 1000


def _s_sets(rank: int):
    a, b = W(1), W(2)
    yield ()
    yield (a,)
    yield (a * a,)
    if rank >= 2:
        yield from ((a * b,), (commutator(a, b),), (a, b * b), (a * a, b * b * b))


@pytest.mark.parametrize("row", CORPUS, ids=[row[0] for row in CORPUS])
def test_retraction_meter_matches_its_old_loop(row):
    """The shared meter and the packed zero-lane test charge a retraction
    search as its old loop and stream did: in the same run() slices, both
    have spent the same steps, reached the same cost and found the same
    retraction after each slice."""
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
            assert (new.spent, new.found, new.cost) == (old.spent, old.found, old.cost)


def test_out_of_range_s_words_are_refused():
    with pytest.raises(ValueError, match="beyond rank 2"):
        find_retraction(Z2, (W(5),), 100, free_abelian_oracle(Z2))
    with pytest.raises(ValueError, match="beyond rank 2"):
        subgroup_presentation_lr(Z2, (W(1), W(-3)), 100, free_abelian_oracle(Z2))


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
    want, gens_in_s = present_from_retraction_reference(s_words, res.witness, free_oracle(F2))
    assert want == res and len(gens_in_s) == res.presentation.rank
    for j, over_s in enumerate(gens_in_s):
        assert eval_hom(s_words, over_s) == res.gens_ambient[j]


def test_retraction_search_is_deterministic():
    a = find_retraction(F2, (W(1, 1), W(2)), oracle=free_oracle(F2))
    b = find_retraction(F2, (W(1, 1), W(2)), oracle=free_oracle(F2))
    assert a.cost == b.cost
    assert a.rs.table.rows == b.rs.table.rows
    assert (a.y_words, a.s_exprs) == (b.y_words, b.s_exprs)


# ---------------------------------------------------------------------------
# The search's verification is what makes a found retraction a retraction,
# so each of its answers is shown on a real retraction and on a tampered
# copy, built through the value classes' constructors.

LIMIT_ROWS = [row for row in CORPUS if row[4] == ("Limit",)]


def _changed_image(found: RetractionFound) -> RetractionFound:
    """found with one image y_j replaced by y_j * S1, the first such
    change under which some check word has an exponent vector outside
    the lattice of K's relators, so that it is nontrivial in K."""
    k = found.rs.presentation
    lattice = Lattice([exponent_vector(w, k.rank) for w in k.relators], k.rank)
    for j, y in enumerate(found.y_words):
        y_words = found.y_words[:j] + (y * W(1),) + found.y_words[j + 1:]
        bad = RetractionFound(found.rs, y_words, found.s_exprs, found.cost)
        if any(exponent_vector(w, k.rank) not in lattice for w in bad.check_words()):
            return bad
    raise AssertionError("no changed image breaks a check word")


@pytest.mark.parametrize("row", LIMIT_ROWS, ids=[row[0] for row in LIMIT_ROWS])
def test_a_changed_image_fails_verify_and_reverify(row):
    """Changing one image of a verdict's retraction makes verify answer
    False, and the Limit that carries it fails reverify()."""
    _, text, strategy, tower_doc = row[:4]
    p = parse(text)
    tower = tower_from_json(tower_doc) if tower_doc else None
    v = recognize_limit(p, oracle_from(p, strategy, tower=tower))
    assert isinstance(v, Limit) and v.reverify() is True
    em = v.emission
    bad = _changed_image(em.found)
    assert em.found.verify(ice_oracle(em.tower)) is True
    assert bad.verify(ice_oracle(em.tower)) is False
    emission = LimitGroupEmission(em.presentation, em.tower, em.s_words, bad)
    assert Limit(v.presentation, v.matched, emission, v.report).reverify() is False


def test_verify_is_unknown_when_the_oracle_runs_out():
    """A dovetail oracle with no units left decides no nonempty check
    word, so verify answers None where a total oracle answers True."""
    found = find_retraction(Z2, (W(1), W(2)), oracle=free_abelian_oracle(Z2))
    assert any(w.ints for w in found.check_words())
    assert found.verify(free_abelian_oracle(Z2)) is True
    assert found.verify(dovetail_oracle(Z2, 0)) is None


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
        for i, e in enumerate(got.s_exprs):
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
    return (found.rs.table, found.y_words, found.s_exprs, found.cost), search.steps


def test_shared_atlas_matches_private_atlases(monkeypatch):
    rs_calls: Counter = Counter()
    walk_calls: Counter = Counter()
    rs_presentation, walk = retracts.rs_presentation, retracts.subgroups_of_index

    def counting_rs(p, t):
        rs_calls[p, t] += 1
        return rs_presentation(p, t)

    def counting_walk(p, n):
        walk_calls[p, n] += 1
        return walk(p, n)

    monkeypatch.setattr(retracts, "rs_presentation", counting_rs)
    monkeypatch.setattr(retracts, "subgroups_of_index", counting_walk)
    for p, wp, *s_sets in SHARED_CASES:
        s_sets = [tuple(Word.make(w) for w in s) for s in s_sets]
        rs_calls.clear()
        private = []
        for s in s_sets:
            search = RetractionSearch(p, s, wp)
            private.append(_outcome(search, search.run(3000)))
        private_rs = sum(rs_calls.values())
        rs_calls.clear()
        walk_calls.clear()
        atlas = SubgroupAtlas(p)
        for s, expected in zip(s_sets, private):
            search = RetractionSearch(p, s, wp, atlas)
            assert _outcome(search, search.run(3000)) == expected
        assert set(rs_calls.values()) == {1}
        assert set(walk_calls.values()) == {1}
        assert sum(rs_calls.values()) < private_rs


KLEIN = parse("< a, b | b*a*b^-1*a >")
ORDER2 = parse("< a | a^2 >")
# the Klein bottle and Z/2 have lattices with a Smith entry of 2
PREFILTER_CASES = (
    (F2, free_oracle(F2)),
    (Z2, free_abelian_oracle(Z2)),
    (TOWER1_P, ice_oracle(TOWER1)),
    (KLEIN, klein_oracle(KLEIN)),
    (ORDER2, finite_oracle(ORDER2)),
)
PREFILTER_ATLASES = [SubgroupAtlas(p) for p, _ in PREFILTER_CASES]


def _words(rank: int, max_len: int):
    letters = [x for k in range(1, rank + 1) for x in (k, -k)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(Word.make)


@st.composite
def _branch_and_y(draw):
    case = draw(st.integers(0, len(PREFILTER_CASES) - 1))
    atlas = PREFILTER_ATLASES[case]
    tables = [t for n in (1, 2, 3) for t in atlas.tables(n) if atlas.subgroup(t).rank]
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
    found = RetractionFound(br.rs, y, br.s_exprs, search.cost)
    checks = found.check_words()
    for w in checks:
        if exponent_vector(w, br.rank) not in br.sub.lattice:
            return None
    for w in checks:
        if w.ints and search.oracle(br.rs.embed(w)) is not True:
            return None
    return found


@settings(max_examples=300, deadline=None)
@given(_branch_and_y())
def test_admit_matches_the_lattice_test_on_built_words(drawn):
    """_admit answers as the lattice test on the check words' exponent
    vectors, which are the reference's integer combinations of S rows."""
    case, br, y = drawn
    words = RetractionFound(br.rs, y, br.s_exprs, 0).check_words()
    expected = [tuple(exponent_vector(w, br.rank)) for w in words]
    assert list(check_vectors_reference(br, y)) == expected
    p, wp = PREFILTER_CASES[case]
    search = RetractionSearch(p, (), wp, PREFILTER_ATLASES[case])
    assert search._admit(br, y) == _admit_with_words(search, br, y)


def _packed_passes(atlas: SubgroupAtlas, br: _Branch, y) -> bool:
    """Whether y's packed sum meets the branch's target."""
    coeffs, _, target = br.packing
    m = len(br.s_exprs)
    total = 0
    for j, w in enumerate(y):
        pool = atlas.pool(m, len(w))
        total += coeffs[j] * br.images(len(w), pool)[pool.index(w)]
    return total == target


def test_the_torsion_lane_spares_the_oracle():
    """On the Klein bottle the a lane has Smith entry 2, so the packed test
    passes Y = (S1, S1*S2) although rho(b) * b^-1 = a is outside the
    lattice.  The exact test rejects Y before the oracle hears any of its
    check words, the trivial relator image included."""
    calls = []
    klein = klein_oracle(KLEIN)
    wp = WordOracle(lambda w: calls.append(w) or klein.fn(w), True, "counting")
    atlas = SubgroupAtlas(KLEIN)
    search = RetractionSearch(KLEIN, (W(1), W(2)), wp, atlas)
    (table,) = atlas.tables(1)
    br = search._make_branch(table)
    y = (W(1), W(1, 2))
    assert _packed_passes(atlas, br, y)
    assert not _lattice_admits(br, y)
    words = RetractionFound(br.rs, y, br.s_exprs, 0).check_words()
    assert any(w.ints and exponent_vector(w, br.rank) in br.sub.lattice for w in words)
    assert search._admit(br, y) is None
    assert calls == []


def _lattice_admits(br: _Branch, y) -> bool:
    return all(v in br.sub.lattice for v in check_vectors_reference(br, y))


def _torsion_free(br: _Branch) -> bool:
    """No Smith entry of the branch's lattice exceeds 1."""
    return abelian_invariants(br.rank, br.rs.presentation.relators)[1] == ()


@settings(max_examples=300, deadline=None)
@given(_branch_and_y())
def test_packed_test_rejects_only_what_the_lattice_rejects(drawn):
    """A candidate whose packed sum misses the target fails the lattice
    test; with no Smith entry above 1, the two tests agree."""
    case, br, y = drawn
    packed = _packed_passes(PREFILTER_ATLASES[case], br, y)
    exact = _lattice_admits(br, y)
    if not packed:
        assert not exact
    if _torsion_free(br):
        assert packed == exact


def test_only_tables_that_hold_s_are_presented(monkeypatch):
    """A search presents a coset table only when the Schreier walk of
    every S word returns to coset 0; the old loop presents each one."""
    skipped = 0
    for p, wp in PREFILTER_CASES:
        for s in _s_sets(p.rank):
            atlas = SubgroupAtlas(p)
            presented = []
            subgroup = atlas.subgroup

            def counting(t, subgroup=subgroup, presented=presented):
                presented.append(t)
                return subgroup(t)

            monkeypatch.setattr(atlas, "subgroup", counting)
            RetractionSearch(p, s, wp, atlas).run(2000)
            assert presented
            for t in presented:
                assert all(t.schreier.walk(0, w)[0] == 0 for w in s)
            new_calls = len(presented)
            RetractionSearchLoop(p, s, wp, atlas).run(2000)
            old_calls = len(presented) - new_calls
            assert new_calls <= old_calls
            skipped += old_calls - new_calls
    assert skipped > 0


@pytest.mark.parametrize("case", range(len(PREFILTER_CASES)))
def test_y_tuples_keep_the_old_order(case):
    """The candidate stream walks Y in the old order, putting None only
    in place of candidates that the lattice test rejects, and with no
    Smith entry above 1, in place of every one of them.  A dead run of n
    candidates stands for n Nones."""
    p, wp = PREFILTER_CASES[case]
    atlas = PREFILTER_ATLASES[case]
    for s in _s_sets(p.rank):
        new = RetractionSearch(p, s, wp, atlas)
        old = RetractionSearchLoop(p, s, wp, atlas)
        for n in (1, 2):
            tables = atlas.tables(n)
            for i in set_bits(atlas.holding(n, s)):
                br = new._make_branch(tables[i])
                for total in range(6):
                    got = []
                    for y in new._y_tuples(br, total):
                        got.extend([None] * y if y.__class__ is int else [y])
                    expected = list(old._y_tuples(br, total))
                    assert len(got) == len(expected)
                    for y_new, y in zip(got, expected):
                        if y_new is None:
                            assert not _lattice_admits(br, y)
                        else:
                            assert y_new == y
                            assert _lattice_admits(br, y) or not _torsion_free(br)


@pytest.mark.parametrize("p", [F2, GENUS2, TOWER1_P], ids=["F2", "genus2", "T1"])
def test_holding_matches_schreier_walks(p):
    """atlas.holding marks exactly the tables of an index whose Schreier
    walk of every word of S returns to coset 0, for every table of index
    <= 4 and the first 2,000 sets of the enumeration's subset stream.  A
    walk's end is found by stepping the tree's edges; no word is built."""

    def walk_end(t, w):
        v, trans = 0, t.schreier.trans
        for x in w.ints:
            v = trans[v][slot(x)]
        return v

    atlas = SubgroupAtlas(p)
    held = {}  # (index, word) -> bitmask of the tables whose walk ends at 0
    for s in itertools.islice(_subset_stream(p.rank, []), 2000):
        for index in range(1, 5):
            tables = atlas.tables(index)
            want = (1 << len(tables)) - 1
            for w in s:
                got = held.get((index, w))
                if got is None:
                    got = held[index, w] = sum(
                        1 << i for i, t in enumerate(tables) if walk_end(t, w) == 0
                    )
                want &= got
            assert atlas.holding(index, s) == want


STREAM_CASES = PREFILTER_CASES + ((GENUS2, oracle_from(GENUS2, "builtin:pinched")),)


@pytest.mark.parametrize("case", range(len(STREAM_CASES)))
def test_retraction_stream_yields_no_empty_run(case):
    """Every dead run, of tables that miss S or of candidates that the
    packed test rejects, counts at least one item."""
    p, wp = STREAM_CASES[case]
    atlas = SubgroupAtlas(p)
    for s in _s_sets(p.rank):
        spent = 0
        for item in RetractionSearch(p, s, wp, atlas)._stream():
            if item.__class__ is int:
                assert item > 0
                spent += item
            else:
                spent += 1
                if item is not None:
                    break
            if spent >= 3000:
                break
