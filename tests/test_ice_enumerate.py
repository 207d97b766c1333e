"""Enumeration streams: towers, and limit-group presentations from them."""

import functools
import itertools

import pytest

from limitforge.freegroup import eval_hom
from limitforge.ice import (
    LimitEnumeration,
    _block_size,
    _pick_words,
    _subset_stream,
    enumerate_ice,
    enumerate_limit_groups,
    presentation_of,
    tower_to_json,
)
from limitforge.presentation import (
    abelianization,
    normalize_key,
    parse,
    serialize,
    tietze_simplify,
)
from limitforge.retracts import present_from_retraction
from limitforge.words import words_of_length
from oracles import LimitEnumerationReference, present_from_retraction_reference


def take_towers(n):
    return list(itertools.islice(enumerate_ice(), n))


def test_first_towers_in_documented_order():
    got = [tower_to_json(t) for t, _ in take_towers(6)]
    assert got[0] == {"base_rank": 1, "steps": []}
    assert got[1] == {"base_rank": 2, "steps": []}
    assert got[2] == {"base_rank": 1, "steps": [{"g": "a", "n": 1}]}
    assert got[4] == {"base_rank": 3, "steps": []}
    assert got[5] == {"base_rank": 1, "steps": [{"g": "a", "n": 2}]}


def test_stream_pairs_carry_matching_presentations():
    for tower, pres in take_towers(12):
        assert pres == presentation_of(tower)


def test_height_one_tower_over_f2_appears():
    keys = [serialize(p) for _, p in take_towers(10)]
    assert "< a, b, t | a*t*a^-1*t^-1 >" in keys


def test_no_duplicate_towers():
    seen = [tower_to_json(t) for t, _ in take_towers(25)]
    assert len({str(s) for s in seen}) == 25


def test_early_emissions_cover_small_groups():
    enum = LimitEnumeration()
    emissions = []
    while enum.round < 5:
        emissions.extend(enum.next_round())
    keys = {normalize_key(e.presentation) for e in emissions}
    assert normalize_key(parse("< a | >")) in keys
    assert normalize_key(parse("< a, b | >")) in keys
    assert normalize_key(parse("< a, b | [a,b] >")) in keys


def test_emission_witnesses_verify():
    from limitforge.ice import ice_oracle

    enum = LimitEnumeration()
    emissions = []
    while enum.round < 4:
        emissions.extend(enum.next_round())
    assert emissions
    for e in emissions[:20]:
        assert present_from_retraction(e.s_words, e.found).presentation == e.presentation
        assert e.found.verify(ice_oracle(e.tower)) is True


def test_emitted_presentations_have_torsion_free_abelianization():
    stream = enumerate_limit_groups()
    for p in itertools.islice(stream, 60):
        rank, torsion = abelianization(p)
        assert torsion == ()
        assert rank >= 0


def test_enumeration_is_reproducible():
    a = [serialize(p) for p in itertools.islice(enumerate_limit_groups(), 40)]
    b = [serialize(p) for p in itertools.islice(enumerate_limit_groups(), 40)]
    assert a == b


def test_rounds_track_steps():
    enum = LimitEnumeration()
    enum.next_round()
    first = enum.steps
    enum.next_round()
    assert enum.steps > first > 0


def _round_ends(limit, last=8):
    """Steps and emissions (presentation, tower, S) so far at the end of
    each round through `last`, driving next_round(limit)."""
    enum = LimitEnumeration()
    ends, emissions = {}, []
    while True:
        got = enum.next_round(limit)
        if enum.round > last:
            return ends  # this call opened the next round
        emissions += [
            (serialize(e.presentation), tower_to_json(e.tower), e.s_words) for e in got
        ]
        ends[enum.round] = (enum.steps, tuple(emissions))
        if limit is None and enum.round == last:
            return ends


@pytest.mark.parametrize("limit", [1, 7, 64])
def test_sliced_rounds_match_whole_rounds(limit):
    """A round cut into next_round(limit) calls, mid-pair where the limit
    falls, emits and spends exactly what whole next_round() calls do.
    Round 7 is the first to leave pairs unfinished, so round 8 also
    resumes pairs on their ROUND_STEPS allowance."""
    assert _round_ends(limit) == _round_ends(None)


def _emissions_by_round(enum, last):
    """Emissions of each round through `last`, with the retraction each
    came from: (presentation, tower, S, retraction images)."""
    rounds = []
    while enum.round < last:
        rounds.append(
            [
                (e.presentation, e.tower, e.s_words, e.found.rho_images())
                for e in enum.next_round()
            ]
        )
    return rounds


def test_repeated_presentations_lose_no_emission():
    """A tower whose presentation an earlier tower has gets no pairs.
    Against the schedule where every tower gets pairs: each round emits
    the same, less the repeated towers' emissions, and each of those was
    already emitted, in that round or before, by the first tower with
    that presentation on the same S."""
    last = 10
    first_tower, repeated = {}, {}  # presentation -> its first tower; tower -> that
    for t, p in itertools.islice(enumerate_ice(), last):
        if p in first_tower:
            repeated[t] = first_tower[p]
        else:
            first_tower[p] = t
    assert len(repeated) == 4  # towers 4, 7, 8 and 9
    got = _emissions_by_round(LimitEnumeration(), last)
    ref = _emissions_by_round(LimitEnumerationReference(), last)
    emitted = set()
    dropped = 0
    for got_round, ref_round in zip(got, ref, strict=True):
        assert got_round == [e for e in ref_round if e[1] not in repeated]
        emitted.update(got_round)
        for p, tower, s, images in ref_round:
            if tower in repeated:
                assert (p, repeated[tower], s, images) in emitted
                dropped += 1
    assert dropped > 0


def test_emissions_match_unmemoized_presentations():
    """Each subgroup presents the span of its retraction images once;
    every emission of the first 12 rounds still carries what a fresh
    quotient and simplification give."""
    from limitforge.ice import ice_oracle

    enum = LimitEnumeration()
    emissions = []
    while enum.round < 12:
        emissions.extend(enum.next_round())
    memos = {}
    for e in emissions:
        found = e.found
        memos[id(found.quotients)] = found.quotients
        want, gens_in_s = present_from_retraction_reference(e.s_words, found, ice_oracle(e.tower))
        got = present_from_retraction(e.s_words, found)
        assert e.presentation == got.presentation == want.presentation
        assert got.gens_ambient == want.gens_ambient
        assert got.gens_ambient == tuple(eval_hom(e.s_words, y) for y in gens_in_s)
    # the memo was read: fewer quotients were built than emitted
    assert sum(map(len, memos.values())) < len(emissions)


# --- the target filters -------------------------------------------------------

FILTER_TARGETS = {
    "F2": "< a, b | >",
    "Z3": "< a, b, c | [a,b], [a,c], [b,c] >",
    "tower1": "< a, b, t | [a,t] >",
    "genus2": "< a, b, c, d | [a,b]*[c,d]^-1 >",
}
FILTER_ROUNDS = 20


@functools.cache
def _unfiltered_rounds():
    enum = LimitEnumeration()
    rounds = _emissions_by_round(enum, FILTER_ROUNDS)
    assert enum.skipped_pairs == enum.skipped_towers == 0
    return rounds


@pytest.mark.parametrize("name", FILTER_TARGETS)
def test_target_filters_drop_only_pairs_that_cannot_emit_the_target(name):
    """With a target, each round emits exactly what the unfiltered stream
    emits in that round from the surviving pairs, in the same order and
    from the same retractions.  A dropped emission comes from an S with
    fewer words than b1(target), and has b1 at most |S|, or from a tower
    with no steps, skipped for a target that is not free."""
    target, _ = tietze_simplify(parse(FILTER_TARGETS[name]))
    b1 = abelianization(target)[0]
    no_free_towers = target.rank == b1 and bool(target.relators)
    enum = LimitEnumeration(target)
    got = _emissions_by_round(enum, FILTER_ROUNDS)
    by_rule = [0, 0]
    for got_round, ref_round in zip(got, _unfiltered_rounds(), strict=True):
        kept = []
        for e in ref_round:
            presentation, tower, s, _ = e
            if len(s) < b1:
                assert abelianization(presentation)[0] <= len(s)
                by_rule[0] += 1
            elif no_free_towers and not tower.steps:
                by_rule[1] += 1
            else:
                kept.append(e)
        assert got_round == kept
    assert by_rule[0] > 0 and enum.skipped_pairs > 0
    assert (by_rule[1] > 0) == (enum.skipped_towers > 0) == no_free_towers


def _free_towers(n):
    return sum(not t.steps for t, _ in take_towers(n))


@pytest.mark.parametrize(
    "text, fires",
    [
        ("< a, b | [a,b] >", True),  # Z^2: rank = b1 = 2, one relator
        ("< a, b | >", False),  # F2: no relator
        ("< a, b | b*a*b^-1*a >", False),  # Klein bottle: b1 = 1 < rank 2
    ],
)
def test_free_towers_are_skipped_only_for_non_free_targets(text, fires):
    """A tower with no steps is skipped exactly when the target has as
    many generators as its b1 and a relator; its round is still used."""
    enum = LimitEnumeration(parse(text))
    emitted_free = False
    while enum.round < 6:
        emitted_free |= any(not e.tower.steps for e in enum.next_round())
    assert enum.skipped_towers == (_free_towers(6) if fires else 0)
    assert emitted_free is not fires


# --- one subset-stream pool per rank ---------------------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_streams_sharing_a_pool_yield_the_unshared_sets(rank):
    """Streams of one rank and one `min_words` drawn round-robin over one
    pool, as the rounds draw them (a tower's first round draws one set,
    later rounds S_PER_UNIT each), some joining late, each yield exactly
    the first 3,000 sets of a stream with a pool of its own, and the
    shared pool grows no longer than that stream's."""
    n, per_round = 3000, LimitEnumeration.S_PER_UNIT
    for min_words in (0, 2, 4):
        own = []
        want = list(itertools.islice(_subset_stream(rank, own, min_words), n))
        pool = []
        joins = (0, 0, 5, 40)  # the round in which each stream starts
        streams = [None] * len(joins)
        got = [[] for _ in joins]
        r = 0
        while any(len(sets) < n for sets in got):
            for k, start in enumerate(joins):
                if r < start:
                    continue
                if streams[k] is None:
                    streams[k] = _subset_stream(rank, pool, min_words)
                draws = 1 if r == start else per_round
                got[k] += itertools.islice(streams[k], min(draws, n - len(got[k])))
            r += 1
        assert got == [want] * len(joins), min_words
        longest = len(pool[-1])
        assert pool == [w for k in range(1, longest + 1) for w in words_of_length(rank, k)]
        assert pool == own, min_words


# --- short sets are counted, not built --------------------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_short_sets_are_counted_not_built(rank):
    """With `min_words` m, a stream yields the first 4,000 sets of the
    unfiltered stream, with None in place of each set of fewer than m
    words."""
    n = 4000
    want = list(itertools.islice(_subset_stream(rank, []), n))
    for m in range(6):
        got = list(itertools.islice(_subset_stream(rank, [], m), n))
        assert got == [s if len(s) >= m else None for s in want], m


@pytest.mark.parametrize("rank, most", [(1, 8), (2, 6), (3, 5), (4, 4)])
def test_block_sizes_count_the_picked_sets(rank, most):
    """`_block_size` counts the sets that `_pick_words` builds for each
    count and total, from a pool of every reduced word the block needs."""
    for total in range(most + 1):
        pool = [w for k in range(1, total + 1) for w in words_of_length(rank, k)]
        for count in range(total + 2):
            built = sum(1 for _ in _pick_words(pool, 0, count, total))
            assert _block_size(rank, count, total) == built, (count, total)


def test_enumeration_holds_one_pool_per_rank():
    """Every admitted tower's subset stream reads the pool of its rank."""
    target, _ = tietze_simplify(parse(FILTER_TARGETS["genus2"]))
    enum = LimitEnumeration(target)
    while enum.round < FILTER_ROUNDS:
        enum.next_round()
    ranks = [tower.rank for tower, *_ in enum._towers]
    assert len(ranks) > len(set(ranks)) and sorted(enum._pools) == sorted(set(ranks))
    for tower, _, _, subsets in enum._towers:
        assert subsets.gi_frame.f_locals["pool"] is enum._pools[tower.rank]
