"""Word problem in centralizer-extension towers."""

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.ice import (
    _split_syllables,
    extend_centralizer,
    ice_oracle,
    presentation_of,
    tower_from_json,
    tower_names,
    tower_to_json,
    wp_ice,
)
from limitforge.presentation import parse, serialize
from limitforge.words import Word, commutator

from oracles import (
    split_syllables_reference,
    t1_corpus,
    t1_nontrivial_witness,
    t1_relator,
)

T1 = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
T3 = tower_from_json(
    {
        "base_rank": 2,
        "steps": [
            {"g": "a", "n": 1},
            {"g": "b*t", "n": 2},
            {"g": "[a,b]", "n": 1},
        ],
    }
)


def W(*ints):
    return Word.make(ints)


def test_tower_shape():
    assert tower_names(T1) == ("a", "b", "t")
    assert serialize(presentation_of(T1)) == "< a, b, t | a*t*a^-1*t^-1 >"
    assert tower_from_json(tower_to_json(T1)) == T1


def test_extend_centralizer_builds_the_same_tower():
    base = tower_from_json({"base_rank": 2, "steps": []})
    t = extend_centralizer(base, Word((1,)), 1)
    assert tower_to_json(t) == tower_to_json(T1)


def test_relator_and_conjugates_are_trivial():
    assert wp_ice(T1, t1_relator()) is True
    assert wp_ice(T1, t1_relator().conjugated_by(W(2, -3, 1))) is True
    assert wp_ice(T1, Word(())) is True


def test_basic_nontrivial_words():
    assert wp_ice(T1, W(3)) is False
    assert wp_ice(T1, commutator(W(2), W(3))) is False
    assert wp_ice(T1, W(1, 3, -1)) is False  # equals t, not 1
    assert wp_ice(T1, W(1, 3, -1, -3)) is True


def test_t_commutes_with_powers_of_a_only():
    for k in (-2, 1, 3):
        u = Word((1,)) ** k
        assert wp_ice(T1, commutator(u, W(3))) is True
    assert wp_ice(T1, commutator(W(2, 1, -2), W(3))) is False


def test_higher_extension_rank():
    z3 = tower_from_json({"base_rank": 1, "steps": [{"g": "a", "n": 2}]})
    names = tower_names(z3)
    assert len(names) == 3
    # all three generators commute
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert wp_ice(z3, commutator(Word((i,)), Word((j,)))) is True
    assert wp_ice(z3, Word((1, 2, -3))) is False


def test_two_step_tower():
    t = tower_from_json(
        {"base_rank": 2, "steps": [{"g": "a", "n": 1}, {"g": "b", "n": 1}]}
    )
    names = tower_names(t)
    assert len(names) == 4
    assert wp_ice(t, commutator(Word((2,)), Word((4,)))) is True
    assert wp_ice(t, commutator(Word((1,)), Word((4,)))) is False
    assert wp_ice(t, commutator(Word((3,)), Word((4,)))) is False


def test_oracle_wrapper_is_total():
    wp = ice_oracle(T1)
    assert wp.total
    assert wp(t1_relator()) is True


def test_rejects_words_beyond_alphabet():
    with pytest.raises(ValueError):
        wp_ice(T1, W(4))


def test_corpus_agrees_with_specializations():
    # sample here; the full 500-word corpus runs in the acceptance suite
    for w, expected in t1_corpus()[:120]:
        got = wp_ice(T1, w)
        assert got in (True, False)
        if expected is True:
            assert got is True
        witness = t1_nontrivial_witness(w, 2 * len(w.ints) + 2)
        if got:
            assert witness is None
        else:
            assert witness is not None


conjugators = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=4
)


@settings(derandomize=True, max_examples=120)
@given(st.lists(st.tuples(conjugators, st.booleans()), min_size=1, max_size=3))
def test_products_of_conjugated_relators_are_trivial(parts):
    acc = Word(())
    rel = t1_relator()
    for ints, flip in parts:
        f = rel.inv() if flip else rel
        acc = acc * f.conjugated_by(Word.make(ints))
    assert wp_ice(T1, acc) is True


@settings(derandomize=True, max_examples=120)
@given(conjugators)
def test_conjugation_preserves_triviality_verdict(ints):
    c = Word.make(ints)
    for w in (t1_relator(), Word((3, 2)), Word((1,))):
        assert wp_ice(T1, w.conjugated_by(c)) == wp_ice(T1, w)


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0), max_size=30))
def test_split_syllables_matches_reference(xs):
    for t in (T1, T3):
        while t.steps:
            n = t.steps[-1].n
            ints = Word.make(x for x in xs if abs(x) <= t.rank).ints
            got = [(s.kind, s.word, s.vec) for s in _split_syllables(ints, t.rank - n, n)]
            assert got == split_syllables_reference(ints, t.rank - n, n)
            t = t.lower()
