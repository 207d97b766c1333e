import pytest
from hypothesis import given, settings, strategies as st

from limitforge.words import (
    EMPTY,
    Word,
    WordSyntaxError,
    commutator,
    format_word,
    parse_word,
    reduce_ints,
    slot,
    unslot,
    validate_word,
    words_of_length,
    words_upto,
)

NAMES = ("a", "b", "c", "d")

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=64)


def test_reduce_examples():
    assert reduce_ints((1, -1)) == ()
    assert reduce_ints((1, 2, -2, -1)) == ()
    assert reduce_ints((1, 2, -2, 1)) == (1, 1)
    assert reduce_ints(()) == ()
    # cancellation cascades through the middle
    assert reduce_ints((2, 1, -1, 1, -1, -2, 3)) == (3,)


def test_word_make_and_mul():
    w = Word.make((1, 2, -2))
    assert w.ints == (1,)
    assert (w * w.inv()).ints == ()
    assert (w * Word((2,))).ints == (1, 2)
    assert Word((1, 2)) ** 2 == Word((1, 2, 1, 2))
    assert Word((1,)) ** -3 == Word((-1, -1, -1))
    assert Word((1, 2)) ** 0 == EMPTY
    assert (Word((2,)) * Word((1,)) * Word((2,)).inv()).ints == (2, 1, -2)


def test_commutator_is_u_inv_v_inv_u_v():
    u, v = Word((1,)), Word((2,))
    assert commutator(u, v).ints == (-1, -2, 1, 2)
    assert commutator(u, u).ints == ()


small_words = st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=8)


@settings(derandomize=True, max_examples=300)
@given(small_words, small_words, st.sampled_from(("free", "u", "u^-1", "u*v", "v*u^-1")))
def test_commutator_matches_word_products(xs, ys, shape):
    """The one-Word commutator reduces as the four-factor product does,
    also when v is built from u so that letters cancel at the joins."""
    u, w = Word.make(xs), Word.make(ys)
    v = {"free": w, "u": u, "u^-1": u.inv(), "u*v": u * w, "v*u^-1": w * u.inv()}[shape]
    got = commutator(u, v)
    assert got == u.inv() * v.inv() * u * v
    assert got.ints == reduce_ints(
        tuple(-x for x in reversed(u.ints)) + tuple(-x for x in reversed(v.ints)) + u.ints + v.ints
    )


def test_slot_order_interleaves_inverses():
    # a, a^-1, b, b^-1, ... so short alphabets sort ahead of long ones
    assert [slot(x) for x in (1, -1, 2, -2, 3)] == [0, 1, 2, 3, 4]
    for s in range(10):
        assert slot(unslot(s)) == s


def test_parse_format_examples():
    assert parse_word("a*b^-1", NAMES).ints == (1, -2)
    assert parse_word("a^3", NAMES).ints == (1, 1, 1)
    assert parse_word("[a,b]", NAMES).ints == (-1, -2, 1, 2)
    assert parse_word("1", NAMES).ints == ()
    assert format_word(Word((1, 1, -2)), NAMES) == "a^2*b^-1"
    assert format_word(EMPTY, NAMES) == "1"


def test_parse_rejects_garbage():
    with pytest.raises(WordSyntaxError):
        parse_word("(a*b)^2", NAMES)
    with pytest.raises(WordSyntaxError):
        parse_word("q", ("a", "b"))
    with pytest.raises(WordSyntaxError):
        parse_word("a^", NAMES)


def test_separators_are_weightless():
    # stars and spaces only separate atoms, they never bind
    assert parse_word("a b", NAMES) == parse_word("a*b", NAMES)
    assert parse_word("a**b", NAMES) == parse_word("a*b", NAMES)


def test_words_of_length_counts():
    # rank 2: 2r * (2r-1)^(n-1) reduced words of length n
    assert sum(1 for _ in words_of_length(2, 0)) == 1
    assert sum(1 for _ in words_of_length(2, 1)) == 4
    assert sum(1 for _ in words_of_length(2, 2)) == 12
    assert sum(1 for _ in words_of_length(2, 3)) == 36
    ws = list(words_upto(2, 2))
    assert len(ws) == 17
    assert ws[0] == EMPTY
    assert len(set(ws)) == len(ws)


def test_words_of_length_are_reduced_and_sorted():
    ws = list(words_of_length(2, 3))
    assert all(w.ints == reduce_ints(w.ints) for w in ws)
    assert ws == sorted(ws, key=lambda w: w.slots())


def test_validate_word():
    validate_word(Word((1, -2)), 2)
    with pytest.raises(ValueError):
        validate_word(Word((3,)), 2)


@settings(derandomize=True, max_examples=200)
@given(raw_words)
def test_reduce_idempotent(xs):
    once = reduce_ints(tuple(xs))
    assert reduce_ints(once) == once


@settings(derandomize=True, max_examples=200)
@given(raw_words)
def test_inverse_cancels(xs):
    w = Word.make(xs)
    assert (w * w.inv()).ints == ()
    assert (w.inv() * w).ints == ()
    assert w.inv().inv() == w


@settings(derandomize=True, max_examples=200)
@given(raw_words, raw_words)
def test_concat_associative_with_reduction(xs, ys):
    u, v = Word.make(xs), Word.make(ys)
    assert (u * v).ints == reduce_ints(tuple(xs) + tuple(ys))


@settings(derandomize=True, max_examples=200)
@given(raw_words)
def test_format_parse_round_trip(xs):
    w = Word.make(xs)
    assert parse_word(format_word(w, NAMES), NAMES) == w
