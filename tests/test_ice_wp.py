"""Word problem in centralizer-extension towers."""

import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from limitforge import ice
from limitforge.freegroup import amalgam_reduce
from limitforge.ice import (
    _pinch,
    centralizer_ice,
    extend_centralizer,
    ice_oracle,
    presentation_of,
    tower_from_json,
    tower_names,
    tower_to_json,
    wp_ice,
)
from limitforge.presentation import parse, serialize
from limitforge.words import Word, commutator, format_word

from oracles import (
    conjugate,
    pinch_reference,
    random_reduced_word,
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
# rank-2 steps, where a step syllable's vector can cancel in one letter
# while the other keeps it alive
TA = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 2}]})
TB = tower_from_json({"base_rank": 2, "steps": [{"g": "a^-1", "n": 2}]})


def W(*ints):
    return Word.make(ints)


def test_tower_shape():
    assert tower_names(T1) == ("a", "b", "t")
    assert serialize(presentation_of(T1)) == "< a, b, t | a*t*a^-1*t^-1 >"
    # the rank is cached on the tower once read, outside ==, hash and repr
    fresh = tower_from_json(tower_to_json(T1))
    assert T1.rank == 3 and "rank" not in vars(fresh)
    assert fresh == T1 and hash(fresh) == hash(T1) and repr(fresh) == repr(T1)


def test_extend_centralizer_builds_the_same_tower():
    base = tower_from_json({"base_rank": 2, "steps": []})
    t = extend_centralizer(base, Word((1,)), 1)
    assert tower_to_json(t) == tower_to_json(T1)


def test_relator_and_conjugates_are_trivial():
    assert wp_ice(T1, t1_relator()) is True
    assert wp_ice(T1, conjugate(t1_relator(), W(2, -3, 1))) is True
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
        acc = acc * conjugate(f, Word.make(ints))
    assert wp_ice(T1, acc) is True


@settings(derandomize=True, max_examples=120)
@given(conjugators)
def test_conjugation_preserves_triviality_verdict(ints):
    c = Word.make(ints)
    for w in (t1_relator(), Word((3, 2)), Word((1,))):
        assert wp_ice(T1, conjugate(w, c)) == wp_ice(T1, w)


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0), max_size=30))
def test_split_syllables_matches_reference(xs):
    for t in (T1, T3):
        while t.steps:
            n = t.steps[-1].n
            ints = Word.make(x for x in xs if abs(x) <= t.rank).ints
            got = _syllables(t, amalgam_reduce(ints, t.rank - n, _no_edge))
            assert got == split_syllables_reference(ints, t.rank - n, n)
            t = t.lower()


def test_split_syllables_keeps_an_all_lower_word():
    """A word with no step letters is one syllable over the caller's own
    tuple, and the word problem hands that tuple to the level below."""
    for t in _fresh_towers():
        lo = t.rank - t.steps[-1].n
        ints = Word.make((1, 2, -1, 2, 2)).ints
        syls = amalgam_reduce(ints, lo, _no_edge)
        assert len(syls) == 1 and syls[0][1] is ints
        wp_ice(t, Word(ints))
        assert any(key is ints for key in t.lower()._wp_memo)


def _no_edge(f, body):
    """An edge test that never fires, so amalgam_reduce returns its cut."""
    return None


def _syllables(t, syls):
    """Library (factor, body) syllables in the reference's (kind, word,
    vec) form: a step syllable's word is its lower letters, reduced, and
    vec its step-letter exponents."""
    lo = t.rank - t.steps[-1].n
    out = []
    for f, body in syls:
        if not f:
            out.append((0, Word(body), None))
            continue
        vec = [body.count(x) - body.count(-x) for x in range(lo + 1, t.rank + 1)]
        out.append((1, Word.make(x for x in body if abs(x) <= lo), vec))
    return out


def _pinch_words(t, rng, count):
    """Products of random pieces over the top amalgam of t: step letters,
    lower words, conjugated relators, and powers of the step's g with a
    relator of the level below spliced in.  The last are edge elements
    that are not free powers of one word, so the order in which they
    join a step syllable shows in its word."""
    top = t.steps[-1]
    lo = t.rank - top.n
    rels = presentation_of(t).relators
    low_rels = presentation_of(t.lower()).relators or [Word(())]
    out = []
    for _ in range(count):
        w = Word(())
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(4)
            if kind == 0:
                piece = W(rng.choice((1, -1)) * rng.randint(lo + 1, t.rank))
            elif kind == 1:
                piece = random_reduced_word(rng, lo, rng.randint(1, 4))
            elif kind == 2:
                c = random_reduced_word(rng, t.rank, rng.randint(0, 3))
                piece = conjugate(rng.choice(rels), c)
            else:
                c = random_reduced_word(rng, lo, rng.randint(0, 2))
                piece = top.g ** rng.choice((-2, -1, 1, 2))
                piece = piece * conjugate(rng.choice(low_rels), c)
            w = w * piece
        if rng.random() < 0.5:
            # a conjugate, so that cyclic reduction has ends to merge
            w = conjugate(w, random_reduced_word(rng, t.rank, rng.randint(1, 4)))
        out.append(w)
    return out


# a stack that tests a lower syllable before every cancellation around it
# has happened reduces these two words differently
PINNED_PINCH_WORDS = [
    (TA, W(-2, -2, -4, -2, -3, 1, 3, 1, -2, -2, 4, -3, -1, -4, 3, 4, -3, 1, 1, 2, 4, 4)),
    (TB, W(3, -1, -4, -4, -1, -4, -2, 4, 3, -4, -3, 2, 4, 1, 4, 4, 1, -2, -2)),
]


def test_pinch_matches_reference():
    rng = random.Random(20261018)
    cases = list(PINNED_PINCH_WORDS)
    for t in (T1, T3, TA, TB):
        level = t
        while level.steps:
            cases += [(level, w) for w in _pinch_words(level, rng, 300)]
            level = level.lower()
    for t, w in cases:
        for cyclic in (False, True):
            got, conj = _pinch(t, w, cyclic)
            want, want_conj = pinch_reference(t, w, cyclic)
            assert _syllables(t, got) == [(s.kind, s.word, s.vec) for s in want], (t, w, cyclic)
            assert conj == want_conj, (t, w, cyclic)


def test_tower_outputs_are_pinned():
    """sha256 over wp_ice answers and centralizer_ice bases of a seeded
    word list on T1 and T3: any change that moves one answer or one basis
    word changes it."""
    h = hashlib.sha256()
    for t, count in ((T1, 120), (T3, 40)):
        rng = random.Random(20261018)
        rels = presentation_of(t).relators
        for i in range(count):
            w = random_reduced_word(rng, t.rank, rng.randint(1, 10))
            if i % 2:
                c = random_reduced_word(rng, t.rank, rng.randint(0, 4))
                w = w * conjugate(rng.choice(rels), c)
            trivial = wp_ice(t, w)
            h.update(repr((w.ints, trivial)).encode())
            if not trivial:
                h.update(repr([b.ints for b in centralizer_ice(t, w)]).encode())
    assert h.hexdigest() == (
        "a5fe72e5c7ae89afa2170395c492ea91ddb3b50a06a937c560af47037486afa3"
    )


def _fresh_towers():
    """T1, T3, TA and TB rebuilt, so every level starts with empty memos."""
    return [tower_from_json(tower_to_json(t)) for t in (T1, T3, TA, TB)]


def _levels(t):
    while t.steps:
        yield t
        t = t.lower()


def _edge_batch(towers):
    """Seeded wp_ice and centralizer_ice calls on each tower."""
    rng = random.Random(20261018)
    for t in towers:
        rels = presentation_of(t).relators
        for i in range(40):
            w = random_reduced_word(rng, t.rank, rng.randint(1, 10))
            if i % 2:
                c = random_reduced_word(rng, t.rank, rng.randint(0, 4))
                w = w * conjugate(rng.choice(rels), c)
            if not wp_ice(t, w):
                centralizer_ice(t, w)


def test_edge_memo_matches_commutator():
    towers = _fresh_towers()
    _edge_batch(towers)
    for t, fresh in zip(towers, _fresh_towers()):
        for level, check in zip(_levels(t), _levels(fresh)):
            assert level._edge_memo, level
            g = level.steps[-1].g
            for ints, member in level._edge_memo.items():
                assert wp_ice(check.lower(), commutator(Word(ints), g)) is member


def test_edge_commutator_built_once_per_word(monkeypatch):
    towers = _fresh_towers()
    built = []

    def counting(u, v):
        if sys._getframe(1).f_code.co_name == "_in_edge":
            built.append(u)
        return commutator(u, v)

    monkeypatch.setattr(ice, "commutator", counting)
    _edge_batch(towers)
    entries = sum(len(level._edge_memo) for t in towers for level in _levels(t))
    assert entries and len(built) == entries


def _tower_doc_reference(t):
    """A tower's file, each step word written over the names of the
    levels below it."""
    steps = []
    for k, step in enumerate(t.steps):
        below = tower_names(ice.IceTower(t.base_rank, t.steps[:k]))
        steps.append({"g": format_word(step.g, below), "n": step.n})
    return {"base_rank": t.base_rank, "steps": steps}


HEIGHT_THREE = {
    "base_rank": 2,
    "steps": [
        {"g": "a", "n": 1},
        {"g": "b*t", "n": 1},
        {"g": "a^-1*b^-1*a*b", "n": 1},
    ],
}


def test_tower_files_round_trip():
    towers = [t for t, _ in itertools.islice(ice.enumerate_ice(), 400)]
    towers.append(tower_from_json(HEIGHT_THREE))
    assert max(len(t.steps) for t in towers) == 3
    for t in towers:
        doc = _tower_doc_reference(t)
        assert tower_to_json(t) == doc
        assert tower_to_json(tower_from_json(doc)) == doc
    assert tower_to_json(towers[-1]) == HEIGHT_THREE
