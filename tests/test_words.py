import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.coset import CosetTable, RSResult
from limitforge.ice import Classification, ExtensionStep, IceTower, LimitGroupEmission
from limitforge.presentation import Presentation, SimplifyTrace
from limitforge.recognize import (
    Free,
    Limit,
    NotFree,
    NotLimit,
    Sentence,
    Unknown,
    Witness,
)
from limitforge.retracts import (
    Retraction,
    RetractionFound,
    SearchExhausted,
    SubgroupPresentationResult,
)
from limitforge.words import (
    EMPTY,
    Word,
    WordSyntaxError,
    commutator,
    format_word,
    invert_ints,
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


def test_inverse_and_commutator_kernels_exhaustive():
    """Over every reduced word of length <= 4 in rank 2, the letter-tuple
    kernels equal Word.make of the raw letter sequence they stand for."""
    short = list(words_upto(2, 4))
    assert len(short) == 1 + 4 + 12 + 36 + 108
    for u in short:
        raw_inv = [-x for x in reversed(u.ints)]
        got = invert_ints(u.ints)
        assert type(got) is tuple and Word(got) == Word.make(raw_inv)
        for v in short:
            raw = raw_inv + [-x for x in reversed(v.ints)] + list(u.ints) + list(v.ints)
            assert commutator(u, v) == Word.make(raw)


def test_slot_order_interleaves_inverses():
    # a, a^-1, b, b^-1, ... so short alphabets sort ahead of long ones
    assert [slot(x) for x in (1, -1, 2, -2, 3)] == [0, 1, 2, 3, 4]
    for s in range(10):
        assert slot(unslot(s)) == s


def test_max_index_examples():
    assert EMPTY.max_index() == 0
    assert Word((-2,)).max_index() == 2
    assert Word((-3, -1)).max_index() == 3
    assert Word((1, -4, 2)).max_index() == 4


@settings(derandomize=True, max_examples=200)
@given(raw_words)
def test_slot_kernels_match_per_letter_slot(xs):
    w = Word.make(xs)
    assert w.slots() == tuple(slot(x) for x in w.ints)
    assert w.max_index() == max((abs(x) for x in w.ints), default=0)


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


# ---------------------------------------------------------------------------
# Value classes: every immutable record of the package

_A, _B = Word((1,)), Word((2,))
_P = Presentation(("a", "b"), [commutator(_A, _B)])
_Q = Presentation(("a", "b"), [_A])
_TABLE = CosetTable(2, ((0, 0, 0, 0),))
_TRACE = SimplifyTrace((_A, _B), (0, 1))
_RS = RSResult(_TABLE, _P, (_A, _B), _TRACE)
_STEP = ExtensionStep(_A, 1, ("t",), (_A,))
_TOWER = IceTower(2, (_STEP,))
_RETRACTION = Retraction(_P, (_A, _B), (_A, _B))
_FOUND = RetractionFound(_TABLE, _RS, _RETRACTION, 1)
_RESULT = SubgroupPresentationResult(_P, (_A, _B), _FOUND)
_EMISSION = LimitGroupEmission(_P, _TOWER, (_A, _B), _RESULT)
_WITNESS = Witness((_A,), "torsion", {"g": _A, "n": 2})

# (class, its fields in order, arguments, arguments that differ in one field)
VALUE_CLASSES = [
    (Word, ("ints",), ((1, -2),), ((1, 2),)),
    (CosetTable, ("ngens", "rows", "subgens"), (2, ((0, 0, 0, 0),), (_A,)), (2, ((0, 0, 0, 0),))),
    (RSResult, ("table", "presentation", "gens_ambient", "trace"), (_TABLE, _P, (_A,), _TRACE),
     (_TABLE, _Q, (_A,), _TRACE)),
    (ExtensionStep, ("g", "n", "names", "basis"), (_A, 1, ("t",), (_A,)), (_A, 2, ("t",), (_A,))),
    (IceTower, ("base_rank", "steps"), (2, (_STEP,)), (2, ())),
    (Classification, ("kind", "level", "conjugator"), ("parabolic", 1, _B), ("parabolic", 1, _A)),
    (LimitGroupEmission, ("presentation", "tower", "s_words", "result"),
     (_P, _TOWER, (_A, _B), _RESULT), (_P, _TOWER, (_B, _A), _RESULT)),
    (Presentation, ("names", "relators"), (("a", "b"), (_A,)), (("a", "b"), (_B,))),
    (SimplifyTrace, ("gen_images", "kept"), ((_A, _B), (0, 1)), ((_A, _B), (1, 0))),
    (Sentence, ("variables", "equations", "inequations"), (("x", "y"), (_A,), (_B,)),
     (("x", "y"), (_B,), (_B,))),
    (Witness, ("elements", "kind", "data"), ((_A,), "torsion", {"g": _A, "n": 2}),
     ((_A,), "torsion", {"g": _A, "n": 3})),
    (Limit, ("presentation", "matched", "emission", "report", "position"),
     (_P, _P, _EMISSION, {}, 0), (_P, _Q, _EMISSION, {}, 0)),
    (NotLimit, ("presentation", "witness", "report"), (_P, _WITNESS, {}), (_Q, _WITNESS, {})),
    (Unknown, ("presentation", "report"), (_P, {"used": 1}), (_P, {"used": 2})),
    (Free, ("presentation", "free_presentation", "report"), (_P, _Q, {}), (_Q, _Q, {})),
    (NotFree, ("presentation", "reason", "witness", "report"), (_P, "torsion", None, {}),
     (_P, "torsion", _WITNESS, {})),
    (Retraction, ("k_pres", "y_words", "s_exprs"), (_P, (_A,), (_B,)), (_P, (_A,), (_A,))),
    (RetractionFound, ("table", "rs", "retraction", "cost"), (_TABLE, _RS, _RETRACTION, 1),
     (_TABLE, _RS, _RETRACTION, 2)),
    (SearchExhausted, ("steps",), (5,), (6,)),
    (SubgroupPresentationResult, ("presentation", "gens_ambient", "witness"),
     (_P, (_B,), _FOUND), (_P, (_A,), _FOUND)),
]


@pytest.mark.parametrize(
    "cls, fields, args, other", VALUE_CLASSES, ids=[case[0].__name__ for case in VALUE_CLASSES]
)
def test_value_class_semantics(cls, fields, args, other):
    """Equal by class and fields, hashed as the field tuple, shown as
    Class(field=value, ...), and immutable."""
    a, b = cls(*args), cls(*args)
    values = tuple(getattr(a, f) for f in fields)
    assert a == b and not a != b
    assert a != cls(*other)
    assert a.__eq__(values) is NotImplemented
    assert a != type("Sub", (cls,), {})(*args)
    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    if cls is not Presentation:  # which prints as its text
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(a) == f"{cls.__qualname__}({shown})"
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == b
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a, protocol=0)),
                 pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is cls
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], values[0])


def test_retraction_found_compares_without_its_quotients():
    a = RetractionFound(_TABLE, _RS, _RETRACTION, 1, {(_A,): "memo"})
    assert a == _FOUND and hash(a) == hash(_FOUND)
    assert repr(a) == repr(_FOUND) and "quotients" not in repr(a)
    assert a.quotients == {(_A,): "memo"} and _FOUND.quotients == {}
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin.quotients == {(_A,): "memo"}


def test_copies_keep_memos():
    """A copied value keeps what its `__dict__` held, as the frozen
    dataclasses did."""
    w = Word((1, 2))
    object.__setattr__(w, "_canonical", False)
    assert pickle.loads(pickle.dumps(w))._canonical is False
    t = IceTower(2, (_STEP,))
    assert t.rank == 3
    assert vars(copy.copy(t))["rank"] == 3 == vars(copy.deepcopy(t))["rank"]
