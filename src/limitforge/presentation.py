"""Finitely presented groups as data.

Parsing and printing, Tietze simplification with a trace, a fair
enumeration of Tietze-equivalent presentations, canonicalization up to
renaming, and consequence enumeration.

Relators are stored in a fixed normal form: each is cyclically reduced and
replaced by the slot-lex least rotation of itself or its inverse; the relator
list is sorted and deduplicated. Construction applies this normal form, so
two presentations compare equal iff they have the same generator names and
the same relator set up to rotation and inversion. Canonicalization across
generator renamings is the separate normalize_key() pass.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import deque

from .abelian import Lattice, exponent_vector, abelian_invariants as _abelian_invariants
from .freegroup import eval_hom
from .words import (
    EMPTY,
    Value,
    Word,
    _set,
    format_word,
    invert_ints,
    parse_word,
    reduce_ints,
    unslot,
    words_of_length,
    words_upto,
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class PresentationError(ValueError):
    pass


class TietzeError(ValueError):
    pass


class NormalizeCapError(ValueError):
    pass


def canonical_relator(w: Word) -> Word:
    """Slot-lex least word among cyclic rotations of w and of its inverse.

    The result is kept on w, so asking again costs one attribute read,
    and a nonempty word that is canonical already is its own result.  A canonical
    word is marked with False rather than with itself, so that the mark
    makes no reference cycle.
    """
    c = w._canonical
    if c is False:
        return w
    if c is None:
        c = _least_rotation(w)
        if c is w:
            object.__setattr__(w, "_canonical", False)
        else:
            object.__setattr__(w, "_canonical", c)
            object.__setattr__(c, "_canonical", False)
    return c


def _least_rotation(w: Word) -> Word:
    core = w.ints
    i, j = 0, len(core)
    while j - i >= 2 and core[i] == -core[j - 1]:
        i += 1
        j -= 1
    if i == j:
        return EMPTY
    # compare rotations as slot tuples; slot(-x) == slot(x) ^ 1.  The
    # least rotation starts at the least slot of keys and inv, which is
    # min(keys) with its inverse bit cleared, so only those rotations
    # are compared
    keys = tuple([2 * x - 2 if x > 0 else -2 * x - 1 for x in core[i:j]])
    inv = tuple([s ^ 1 for s in reversed(keys)])
    least = min(keys) & ~1
    best = min(
        seq[k:] + seq[:k] for seq in (keys, inv) for k, s in enumerate(seq) if s == least
    )
    if best == keys and j - i == len(core):
        return w
    return Word(tuple([unslot(s) for s in best]))


class Presentation(Value):
    __slots__ = ("names", "relators")

    def __init__(self, names: tuple[str, ...], relators: tuple[Word, ...] = ()):
        names = tuple(names)
        seen = set()
        for n in names:
            if not _IDENT_RE.match(n):
                raise PresentationError(f"bad generator name {n!r}")
            if n in seen:
                raise PresentationError(f"duplicate generator {n!r}")
            seen.add(n)
        rels = []
        seen_rel = set()
        for r in relators:
            if r.max_index() > len(names):
                raise PresentationError(
                    f"relator {r.ints} uses a generator beyond rank {len(names)}"
                )
            c = canonical_relator(r)
            if c.ints and c.ints not in seen_rel:
                seen_rel.add(c.ints)
                rels.append(c)
        rels.sort(key=_relator_key)
        _set(self, "names", names)
        _set(self, "relators", tuple(rels))

    @property
    def rank(self) -> int:
        return len(self.names)

    def word(self, text: str) -> Word:
        return parse_word(text, self.names)

    def __repr__(self):
        return f"Presentation({serialize(self)!r})"


def _relator_key(w: Word):
    """The order of a presentation's relators: shortest first, then slot-lex."""
    return (len(w), w.slots())


def _normal(names: tuple[str, ...], relators: tuple[Word, ...]) -> Presentation:
    """The Presentation of parts in normal form already: valid distinct
    names, and relators within rank, canonical, distinct and sorted."""
    p = object.__new__(Presentation)
    _set(p, "names", names)
    _set(p, "relators", relators)
    return p


def _with_relator(q: Presentation, names: tuple[str, ...], r: Word) -> Presentation | None:
    """q's relators plus r, on `names` (q's names and perhaps fresh ones);
    None when r is trivial in the free group or q has it already.  Only
    r is checked and canonicalized: it goes into q's sorted relators by
    bisection, and equal keys are equal words."""
    if r.max_index() > len(names):
        raise PresentationError(f"relator {r.ints} uses a generator beyond rank {len(names)}")
    c = canonical_relator(r)
    if not c.ints:
        return None
    rels = q.relators
    i = bisect_left(rels, _relator_key(c), key=_relator_key)
    if i < len(rels) and rels[i] == c:
        return None
    return _normal(names, rels[:i] + (c,) + rels[i:])


def parse(text: str) -> Presentation:
    s = text.strip()
    if not s.startswith("<") or not s.endswith(">"):
        raise PresentationError("presentation must be wrapped in < ... >")
    body = s[1:-1]
    if "|" not in body:
        raise PresentationError("missing | between generators and relators")
    left, _, right = body.partition("|")
    if left.strip():
        names = tuple(t.strip() for t in left.split(","))
        if any(not t for t in names):
            raise PresentationError("empty generator name")
    else:
        names = ()
    relators = [parse_word(t, names) for t in _split_top(right)]
    return Presentation(names, relators)


def _split_top(text: str) -> list[str]:
    """Split on commas outside [ ] commutator brackets."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p for p in (q.strip() for q in parts) if p]


def serialize(p: Presentation) -> str:
    gens = ", ".join(p.names)
    rels = ", ".join(format_word(r, p.names) for r in p.relators)
    if rels:
        return f"< {gens} | {rels} >"
    return f"< {gens} | >"


# ---------------------------------------------------------------------------
# Tietze moves


def _single_occurrence_pairs(p: Presentation):
    """(relator index, generator index) pairs where the relator uses the
    generator exactly once."""
    out = []
    for i, r in enumerate(p.relators):
        counts: dict[int, int] = {}
        for x in r.ints:
            counts[abs(x) - 1] = counts.get(abs(x) - 1, 0) + 1
        for g, c in sorted(counts.items()):
            if c == 1:
                out.append((i, g))
    return out


def _remove_generator(p: Presentation, gidx: int):
    """Eliminate generator gidx using a defining relator.

    Returns (new presentation, images: old generator -> Word over new gens).
    """
    lv = gidx + 1
    cands = [i for i, g in _single_occurrence_pairs(p) if g == gidx]
    if not cands:
        raise TietzeError(f"generator {p.names[gidx]!r} has no defining relator")
    i = min(cands, key=lambda k: (len(p.relators[k]), k))
    r = p.relators[i].ints
    pos = next(k for k, x in enumerate(r) if abs(x) == lv)
    if r[pos] < 0:
        r = invert_ints(r)
        pos = next(k for k, x in enumerate(r) if abs(x) == lv)
    # r = u g v is trivial, so g = (v u)^-1 over the old alphabet
    g_word = invert_ints(reduce_ints(r[pos + 1 :] + r[:pos]))

    def renum(x: int) -> int:
        k = abs(x)
        nk = k if k < lv else k - 1
        return nk if x > 0 else -nk

    images = []
    for k in range(1, p.rank + 1):
        if k == lv:
            images.append(Word(tuple(renum(x) for x in g_word)))
        else:
            images.append(Word((renum(k),)))
    new_rels = [
        eval_hom(images, p.relators[j]) for j in range(len(p.relators)) if j != i
    ]
    q = Presentation(p.names[:gidx] + p.names[gidx + 1 :], new_rels)
    return q, tuple(images)


class SimplifyTrace(Value):
    __slots__ = ("gen_images", "kept")

    def __init__(self, gen_images: tuple[Word, ...], kept: tuple[int, ...]):
        _set(self, "gen_images", gen_images)  # original generator -> word over result gens
        _set(self, "kept", kept)  # result generator -> original generator index


def tietze_simplify(p: Presentation) -> tuple[Presentation, SimplifyTrace]:
    """Eliminate generators with single-occurrence defining relators.

    Trivial and duplicate relators disappear on construction; this pass adds
    deterministic generator elimination, cheapest defining relator first.
    """
    cur = p
    images = [Word((k,)) for k in range(1, p.rank + 1)]
    kept = list(range(p.rank))
    while True:
        pairs = _single_occurrence_pairs(cur)
        if not pairs:
            break
        _, g = min(pairs, key=lambda ig: (len(cur.relators[ig[0]]), ig[0], ig[1]))
        cur, subst = _remove_generator(cur, g)
        images = [eval_hom(subst, w) for w in images]
        kept.pop(g)
    return cur, SimplifyTrace(tuple(images), tuple(kept))


# ---------------------------------------------------------------------------
# Fair enumeration of Tietze-equivalent presentations

# Per-round caps: every reachable presentation appears once the round bound
# outgrows its move sizes and depth, so the caps only shape the order.
_NODE_CAP = 48
_NODE_GROWTH = 4
_CHILD_CAP = 6
_CONSEQ_CAP = 12
_END = object()  # _read_through marker: the source is exhausted


def _fresh_name(names) -> str:
    k = 0
    while f"g{k}" in names:
        k += 1
    return f"g{k}"


def _read_through(items: list, source):
    """Yield items, then the rest of the iterator source, appending what
    it gives to items; walks nested over one list and source share the
    items either of them has read."""
    i = 0
    while True:
        if i == len(items):
            item = next(source, _END)
            if item is _END:
                return
            items.append(item)
        yield items[i]
        i += 1


def _addable_relators(q: Presentation, bound: int):
    """Candidate redundant relators: products of two conjugated relators
    with total conjugator length < bound.

    A single conjugate conj * r^+-1 * conj^-1 is not yielded: its
    canonical relator is r itself, already in q.relators.
    """
    signed = [s for r in q.relators for s in (r, r.inv())]
    source = (
        (len(conj), conj * r * conj.inv())
        for conj in words_upto(q.rank, bound - 1)
        for r in signed
    )
    singles: list[tuple[int, Word]] = []
    for c1, w1 in _read_through(singles, source):
        # singles come in nondecreasing conjugator length
        for c2, w2 in _read_through(singles, source):
            if c1 + c2 > bound - 1:
                break
            yield w1 * w2


def _children(q: Presentation, bound: int):
    out = []
    # drop a relator derivable from the others within a bounded search;
    # every consequence of the others has its exponent vector in their
    # rows' lattice, so a relator whose vector is off it is not searched
    rows = [exponent_vector(r, q.rank) for r in q.relators]
    for j, row in enumerate(rows):
        if any(row) and row not in Lattice(rows[:j] + rows[j + 1 :], q.rank):
            continue
        rest = _normal(q.names, q.relators[:j] + q.relators[j + 1 :])
        target = q.relators[j]
        stream = consequence_stream(rest)
        if any(
            w == target
            for w in itertools.islice(stream, _CONSEQ_CAP * bound)
        ):
            out.append(rest)
    # eliminate a generator with a defining relator
    for g in sorted({g for _, g in _single_occurrence_pairs(q)}):
        out.append(_remove_generator(q, g)[0])
    # add a redundant relator
    added = 0
    for w in _addable_relators(q, bound):
        if added >= _CHILD_CAP * bound:
            break
        child = _with_relator(q, q.names, w)
        if child is not None:
            out.append(child)
            added += 1
    # define a fresh generator: its relator uses the new letter once, so
    # it is never trivial nor one of q's
    names = q.names + (_fresh_name(q.names),)
    added = 0
    for w in words_upto(q.rank, bound):
        if added >= _CHILD_CAP * bound:
            break
        out.append(_with_relator(q, names, Word(reduce_ints((-len(names),) + w.ints))))
        added += 1
    return out


def enumerate_presentations(p: Presentation):
    """Fair stream of presentations Tietze-equivalent to p, starting at p.

    Never terminates; consume with a budget.
    """
    # presentations are equal exactly when their serializations are
    emitted: set[Presentation] = set()
    node_cap = _NODE_CAP
    for bound in itertools.count(1):
        seen = {p}
        queue = deque([(p, 0)])
        nodes = 0
        while queue and nodes < node_cap:
            q, depth = queue.popleft()
            nodes += 1
            if q not in emitted:
                emitted.add(q)
                yield q
            # every enqueue adds to seen, so the queue holds len(seen) - nodes
            # entries; once len(seen) reaches node_cap it holds every node
            # this bound will pop, and a child enqueued now is never dequeued
            if depth >= bound or len(seen) >= node_cap:
                continue
            for child in _children(q, bound):
                if child not in seen:
                    seen.add(child)
                    queue.append((child, depth + 1))
        node_cap *= _NODE_GROWTH


# ---------------------------------------------------------------------------
# Canonical form under renaming


def normalize_key(p: Presentation):
    """Canonical key invariant under generator renaming, relator order,
    rotation, and inversion. Capped at 6 generators."""
    if p.rank > 6:
        raise NormalizeCapError("normalize is capped at 6 generators")
    best = None
    for perm in itertools.permutations(range(p.rank)):
        rels = []
        for r in p.relators:
            w = Word(
                tuple(
                    (perm[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in r.ints
                )
            )
            c = canonical_relator(w)
            rels.append((len(c), c.slots()))
        cand = tuple(sorted(rels))
        if best is None or cand < best:
            best = cand
    return (p.rank, best)


# ---------------------------------------------------------------------------
# Consequence enumeration


def compositions(total: int, k: int):
    """Tuples of k >= 1 positive ints summing to total, first part low."""
    if k == 1:
        yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in compositions(total - first, k - 1):
            yield (first,) + rest


def consequence_stream(p: Presentation):
    """Fair stream of exactly the words trivial in the presented group.

    Emits the empty word, then freely reduced products of conjugated
    relators by increasing total cost (cost of one factor c r c^-1 is
    |c| + 1, with cyclic rotations of relators available at cost 1).
    Deduplicated. Terminates only for relator-free presentations.
    """
    yield EMPTY
    if not p.relators:
        return
    seen: set[tuple[int, ...]] = {()}
    # distinct cyclic rotations of each relator and its inverse, in order
    rotations = list(
        dict.fromkeys(
            base[k:] + base[:k]
            for r in p.relators
            for base in (r.ints, invert_ints(r.ints))
            for k in range(len(base))
        )
    )
    # factors of each cost, computed only as far as some product reads
    factor_cache: dict[int, tuple[list, object]] = {}

    def factors(cost: int):
        if cost not in factor_cache:
            source = (
                reduce_ints(conj.ints + rot + invert_ints(conj.ints))
                for conj in words_of_length(p.rank, cost - 1)
                for rot in rotations
            )
            factor_cache[cost] = ([], source)
        return _read_through(*factor_cache[cost])

    def products(comp):
        if len(comp) == 1:
            yield from factors(comp[0])
            return
        for head in factors(comp[0]):
            for tail in products(comp[1:]):
                yield reduce_ints(head + tail)

    for total in itertools.count(1):
        for k in range(1, total + 1):
            for comp in compositions(total, k):
                for prod in products(comp):
                    if prod not in seen:
                        seen.add(prod)
                        yield Word(prod)


def relator_lattice(p: Presentation) -> Lattice:
    """The span L of the relator exponent vectors.  Abelianization maps
    the presented group onto Z^rank / L, so a word whose exponent vector
    is not in L is nontrivial."""
    return Lattice([exponent_vector(r, p.rank) for r in p.relators], p.rank)


def abelianization(p: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of the abelianized group."""
    return _abelian_invariants(p.rank, p.relators)
