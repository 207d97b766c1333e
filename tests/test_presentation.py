"""Presentations: parsing, canonical relators, Tietze moves, enumeration."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from limitforge import presentation
from limitforge.presentation import (
    NormalizeCapError,
    Presentation,
    PresentationError,
    _addable_relators,
    _children,
    _least_rotation,
    abelianization,
    canonical_relator,
    consequence_stream,
    enumerate_presentations,
    normalize_key,
    parse,
    serialize,
    substitute,
    tietze_simplify,
)
from limitforge.words import EMPTY, Word, commutator

from oracles import (
    addable_relators_reference,
    canonical_relator_reference,
    consequence_stream_reference,
    enumerate_presentations_reference,
)


def W(*ints):
    return Word.make(ints)


F2 = parse("< a, b | >")
Z2 = parse("< a, b | [a,b] >")


def test_parse_serialize_round_trip():
    for text in (
        "< a | >",
        "< a, b | [a,b] >",
        "< a, b, t | a*t*a^-1*t^-1 >",
        "< x1, x2 | x1^2, x2^3 >",
    ):
        p = parse(text)
        assert parse(serialize(p)) == p


def test_parse_errors():
    with pytest.raises(PresentationError):
        parse("no angle brackets")
    with pytest.raises(PresentationError):
        Presentation(("a", "a"))
    with pytest.raises(PresentationError):
        Presentation(("a",), (W(2),))


def test_canonical_relator_examples():
    # rotations and inversion collapse to one representative
    r = canonical_relator
    assert r(W(2, 1, -2, -1)) == r(commutator(W(1), W(2)))
    assert r(W(1, 2)) == r(W(2, 1))
    assert r(W(-2, -1)) == r(W(1, 2))
    assert r(W(1, 2, -1)) == W(2)
    assert r(EMPTY) == EMPTY


def test_construction_dedups_and_sorts():
    p = Presentation(("a", "b"), (W(2, 1, -2, -1), commutator(W(1), W(2)), EMPTY, W(1, -1)))
    assert len(p.relators) == 1
    assert p.relators[0] == canonical_relator(commutator(W(1), W(2)))


def test_tietze_simplify_eliminates_defined_generator():
    p = parse("< a, b, c | c^-1*a*b >")
    q, trace = tietze_simplify(p)
    assert q.rank == 2
    assert q.relators == ()
    # every original generator gets an expression over the survivors
    assert len(trace.gen_images) == 3
    for img in trace.gen_images:
        assert img.max_index() <= q.rank


def test_tietze_simplify_keeps_what_it_cannot_remove():
    q, _ = tietze_simplify(Z2)
    assert q == Z2


def test_normalize_key_is_renaming_invariant():
    p1 = parse("< a, b | a^2*b >")
    p2 = parse("< x, y | y^2*x >")
    assert normalize_key(p1) == normalize_key(p2)
    assert normalize_key(F2) != normalize_key(Z2)


def test_normalize_key_caps_at_six_generators():
    p = Presentation(tuple("abcdefg"))
    with pytest.raises(NormalizeCapError):
        normalize_key(p)


def test_substitute():
    # replace letters by words, reducing as it goes
    assert substitute(W(1, 2), (W(2), W(-2))) == EMPTY
    assert substitute(W(1, -1), (W(1, 2),)) == EMPTY
    assert substitute(EMPTY, ()) == EMPTY


def test_enumerate_presentations_starts_at_input_and_dedups():
    stream = enumerate_presentations(Z2)
    first = next(stream)
    assert first == Z2
    seen = [serialize(first)]
    for q in itertools.islice(stream, 40):
        assert serialize(q) not in seen
        seen.append(serialize(q))


def test_tietze_stream_order_is_pinned():
    """canonical_relator fixes relator order and so the order of the
    Tietze stream; the witness race walks that stream."""
    genus2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")
    digest = hashlib.sha256()
    for q in itertools.islice(enumerate_presentations(genus2), 100):
        digest.update(serialize(q).encode() + b"\n")
    assert digest.hexdigest() == (
        "343f80008888e18100914048a099addf65471303372b5518fcf3534fa5538d4c"
    )


def test_tietze_stream_is_pinned_past_full_queues():
    """The first 1,000 nodes of Z^3, as the walk that expands every
    popped node gives them.  A walk that stops expanding one node before
    its queue is full moves node 767; most streams do not show it."""
    z3 = parse("< a, b, c | [a,b], [a,c], [b,c] >")
    digest = hashlib.sha256()
    for q in itertools.islice(enumerate_presentations(z3), 1000):
        digest.update(serialize(q).encode() + b"\n")
    assert digest.hexdigest() == (
        "05541d23f0f3c2dca529f7c39ddb0a46a4eab678da20130ebeab8fda1fcb013a"
    )


# (presentation, length of the Tietze-stream prefix compared)
STREAM_INPUTS = {
    "genus2": ("< a, b, c, d | [a,b]*[c,d]^-1 >", 200),
    "F2xZ": ("< a, b, z | [a,z], [b,z] >", 200),
    "klein": ("< a, b | b*a*b^-1*a >", 60),
    "Z3": ("< a, b, c | [a,b], [a,c], [b,c] >", 60),
    "t1": ("< a, b, t | [a,t] >", 60),
    "a2b3": ("< a, b | a^2*b^3 >", 60),
}


@pytest.mark.parametrize("name", sorted(STREAM_INPUTS))
def test_tietze_stream_matches_reference(name):
    """The lazy Tietze expansion emits the reference's stream."""
    text, count = STREAM_INPUTS[name]
    p = parse(text)
    got = itertools.islice(enumerate_presentations(p), count)
    want = itertools.islice(enumerate_presentations_reference(p), count)
    assert [serialize(q) for q in got] == [serialize(q) for q in want]


@pytest.mark.parametrize("name", sorted(STREAM_INPUTS))
def test_addable_relators_match_reference(name):
    """Whole candidate streams, past the prefix that Tietze expansion
    reads, for every bound up to 4."""
    p = parse(STREAM_INPUTS[name][0])
    for bound in range(1, 5):
        got = [w.ints for w in _addable_relators(p, bound)]
        assert got == [w.ints for w in addable_relators_reference(p, bound)]


@pytest.mark.parametrize("name", sorted(STREAM_INPUTS))
def test_consequence_stream_matches_reference(name):
    p = parse(STREAM_INPUTS[name][0])
    got = itertools.islice(consequence_stream(p), 5000)
    want = itertools.islice(consequence_stream_reference(p), 5000)
    assert [w.ints for w in got] == [w.ints for w in want]


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=16))
def test_canonical_relator_cache_is_invisible(xs):
    """canonical_relator keeps its result on the word: a second call
    gives the same word, a nonempty canonical word is its own result,
    and the word still compares, hashes and prints as an uncached twin
    does."""
    w = Word.make(xs)
    twin = Word(w.ints)
    want = canonical_relator_reference(twin)
    first = canonical_relator(w)
    assert first == want
    assert canonical_relator(w) is first
    assert canonical_relator(first) is first
    if twin == want and twin.ints:
        assert first is w
    assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)
    assert hash(first) == hash(want) and repr(first) == repr(want)


@settings(derandomize=True, max_examples=60)
@given(
    st.sampled_from(("genus2", "F2xZ", "Z3")),
    st.lists(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0), max_size=8),
)
def test_single_conjugate_canonicalizes_to_its_relator(name, conj):
    """Tietze expansion never offers a single conjugate of a relator as a
    new relator, because it always canonicalizes back to that relator."""
    q = parse(
        {
            "genus2": "< a, b, c, d | [a,b]*[c,d]^-1 >",
            "F2xZ": "< a, b, z | [a,z], [b,z] >",
            "Z3": "< a, b, c | [a,b], [a,c], [b,c] >",
        }[name]
    )
    c = Word.make(x for x in conj if abs(x) <= q.rank)
    for r in q.relators:
        for s in (r, r.inv()):
            assert canonical_relator(c * s * c.inv()) in q.relators


def test_consequence_stream_yields_trivial_words():
    from oracles import t1_nontrivial_witness

    t1 = parse("< a, b, t | [a,t] >")
    for w in itertools.islice(consequence_stream(t1), 60):
        assert t1_nontrivial_witness(w, 12) is None


def test_consequence_stream_free_group_terminates():
    assert list(consequence_stream(F2)) == [EMPTY]


def test_abelianization():
    assert abelianization(F2) == (2, ())
    assert abelianization(Z2) == (2, ())
    assert abelianization(parse("< a | a^2 >")) == (0, (2,))
    assert abelianization(parse("< a, b | b*a*b^-1*a >")) == (1, (2,))


@settings(derandomize=True, max_examples=120)
@given(st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=10))
def test_canonical_relator_fixed_point(xs):
    w = Word.make(xs)
    c = canonical_relator(w)
    assert canonical_relator(c) == c
    assert canonical_relator(w.inv()) == c
    if c.ints:
        # stable under rotation of the original's cyclic core
        k = len(xs) // 2
        rot = Word.make(tuple(xs[k:]) + tuple(xs[:k]))
        assert canonical_relator(rot).ints  # rotation of a nontrivial core


# the least slot only in the inverse, (ab)^k, a^n, conjugated cores and
# single letters: the rotations that start at the least slot tie or are few
LEAST_ROTATION_CASES = (
    (-1, 2, 2),
    (-1, -2, 3, -2),
    (1, 2) * 3,
    (1, -2) * 2,
    (-2, -1) * 4,
    (1,) * 5,
    (-1,) * 3,
    (2, 1, 1, -2),
    (-3, 1, -2, 1, 2, 3),
    (2, -1, 3, -1, 3, -2),
    (1,),
    (-2,),
)


@pytest.mark.parametrize("xs", LEAST_ROTATION_CASES)
def test_least_rotation_matches_reference(xs):
    w = Word.make(xs)
    for v in (w, w.inv()):
        got = _least_rotation(v)
        assert got == canonical_relator_reference(v)
        if got == v:
            assert got is v


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=24))
def test_canonical_relator_matches_reference(xs):
    w = Word.make(xs)
    assert canonical_relator(w) == canonical_relator_reference(w)


# a drop child (a^4 follows from a^2), eliminations, added relators and
# fresh generators; random presentations add the rest.  In rank 1, a^2 is
# off the lattice of < a | a^4 >, so its consequence stream, which offers
# few distinct words, is never read.
CHILD_INPUTS = (
    "< a, b | a^2, a^4 >",
    "< a, b, z | [a,z], [b,z] >",
    "< a, b, t | [a,t], b*t*a^-1 >",
    "< a, b | b*a*b^-1*a >",
    "< a | a^2, a^4 >",
)


@st.composite
def _presentations(draw):
    rank = draw(st.integers(min_value=2, max_value=3))
    letters = st.integers(min_value=-rank, max_value=rank).filter(lambda x: x != 0)
    relators = draw(st.lists(st.lists(letters, min_size=1, max_size=6), max_size=3))
    names = ("a", "b", "c")[:rank]
    return Presentation(names, [Word.make(r) for r in relators])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from(CHILD_INPUTS).map(parse) | _presentations(),
    st.integers(min_value=1, max_value=2),
)
def test_tietze_children_equal_validated_presentations(q, bound):
    """Every Tietze child, however it reuses its parent's relators, is
    the Presentation the validating constructor builds from its parts."""
    for child in _children(q, bound):
        rebuilt = Presentation(child.names, child.relators)
        assert child == rebuilt
        assert hash(child) == hash(rebuilt)
        assert serialize(child) == serialize(rebuilt)


@pytest.mark.parametrize("text", ["< a | a^2 >", "< a | a^4 >"])
def test_torsion_tietze_streams_do_not_grind(text):
    """Dropping a relator whose exponent vector is off the lattice of the
    others reads no consequences of the others.  Here those are powers of
    a that never equal the dropped power, and reading them took seconds
    per node."""
    p = parse(text)
    nodes = list(itertools.islice(enumerate_presentations(p), 1000))
    assert len(set(nodes)) == 1000
    assert {abelianization(q) for q in nodes} == {abelianization(p)}


@pytest.mark.parametrize(
    "text, most",
    [("< a, b, c, d | [a,b]*[c,d]^-1 >", 120), ("< a | a^2 >", 160)],
)
def test_full_queue_expands_no_node(monkeypatch, text, most):
    """Once a bound's queue holds every node that bound will pop, a
    popped node is not expanded: its children would never be dequeued.
    Without that guard the first 1,000 nodes took 1,354 and 798 calls."""
    calls = []
    children = presentation._children

    def counting(q, bound):
        calls.append(q)
        return children(q, bound)

    monkeypatch.setattr(presentation, "_children", counting)
    nodes = list(itertools.islice(enumerate_presentations(parse(text)), 1000))
    assert len(set(nodes)) == 1000
    assert len(calls) <= most


def test_tietze_children_include_every_move():
    """The inputs of the children test reach all four moves."""
    children = _children(parse(CHILD_INPUTS[0]), 1)
    assert parse("< a, b | a^2 >") in children  # a^4 dropped
    assert any(len(c.relators) == 3 and c.rank == 2 for c in children)  # one added
    assert any(c.rank == 3 for c in children)  # a fresh generator
    eliminated = _children(parse(CHILD_INPUTS[2]), 1)
    assert any(c.rank == 2 for c in eliminated)
