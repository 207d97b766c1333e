"""Enumeration streams: towers, and limit-group presentations from them."""

import itertools

import pytest

from limitforge.ice import (
    LimitEnumeration,
    enumerate_ice,
    enumerate_limit_groups,
    presentation_of,
    tower_to_json,
)
from limitforge.presentation import abelianization, normalize_key, parse, serialize
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
        assert e.result.presentation == e.presentation
        assert e.result.witness.verify(ice_oracle(e.tower)) is True


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
    """Emissions (presentation, tower, S) of each round through `last`,
    the tower written as its JSON string."""
    rounds = []
    while enum.round < last:
        got = enum.next_round()
        rounds.append(
            [(e.presentation, str(tower_to_json(e.tower)), e.s_words) for e in got]
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
        tower = str(tower_to_json(t))
        if p in first_tower:
            repeated[tower] = first_tower[p]
        else:
            first_tower[p] = tower
    assert len(repeated) == 4  # towers 4, 7, 8 and 9
    got = _emissions_by_round(LimitEnumeration(), last)
    ref = _emissions_by_round(LimitEnumerationReference(), last)
    emitted = set()
    dropped = 0
    for got_round, ref_round in zip(got, ref, strict=True):
        assert got_round == [e for e in ref_round if e[1] not in repeated]
        emitted.update(got_round)
        for p, tower, s in ref_round:
            if tower in repeated:
                assert (p, repeated[tower], s) in emitted
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
        found = e.result.witness
        memos[id(found.quotients)] = found.quotients
        want = present_from_retraction_reference(e.s_words, found, ice_oracle(e.tower))
        assert e.presentation == e.result.presentation == want.presentation
        assert e.result.gens_in_s == want.gens_in_s
        assert e.result.gens_ambient == want.gens_ambient
    # the memo was read: fewer quotients were built than emitted
    assert sum(map(len, memos.values())) < len(emissions)
