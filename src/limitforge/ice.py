"""Iterated centralizer extensions over free groups.

A tower records a base free group and a sequence of extension steps;
step k adjoins a free abelian factor commuting with the centralizer of
a chosen element.  Because each level is an amalgam over that
centralizer, words reduce by pinching edge-group syllables through the
abelian side, which yields a total word problem, an element
classification (conjugate into a noncyclic maximal abelian subgroup or
not), and centralizer bases.  On top of those sit two fair streams:
all towers, and presentations of all finitely generated subgroups of
tower groups.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .abelian import exponent_vector
from .freegroup import FreeGroup, amalgam_close, amalgam_push, amalgam_reduce, primitive_root
from .oracles import WordOracle
from .presentation import Presentation
from .retracts import (
    RetractionSearch,
    SubgroupAtlas,
    SubgroupPresentationResult,
    present_from_retraction,
)
from .words import (
    EMPTY,
    Word,
    commutator,
    format_word,
    parse_word,
    reduce_ints,
    validate_word,
    words_of_length,
    words_upto,
)

_EXT_POOL = "tuvwxyz"

# caps for the two bounded searches (conjugators into a cyclic edge
# group, and edge corrections during root extraction)
_RESIDUAL_LEN = 3
_ROOT_GRID = 2


@dataclass(frozen=True)
class ExtensionStep:
    """One centralizer extension: adjoin Z^n commuting with Z(g)."""

    g: Word
    n: int
    names: tuple[str, ...]
    basis: tuple[Word, ...]


@dataclass(frozen=True)
class IceTower:
    base_rank: int
    steps: tuple[ExtensionStep, ...] = ()

    def __post_init__(self):
        if self.base_rank < 1:
            raise ValueError("base rank must be positive")
        object.__setattr__(self, "steps", tuple(self.steps))

    @cached_property
    def rank(self) -> int:
        return self.base_rank + sum(s.n for s in self.steps)

    def lower(self) -> "IceTower":
        if not self.steps:
            raise ValueError("the base tower has no lower level")
        return self._lower

    @cached_property
    def _lower(self) -> "IceTower":
        # one object per level, so the level's word-problem memo is shared
        return IceTower(self.base_rank, self.steps[:-1])

    @cached_property
    def _wp_memo(self) -> dict[tuple[int, ...], bool]:
        return {}

    @cached_property
    def _edge_memo(self) -> dict[tuple[int, ...], bool]:
        # lower-level word -> whether it lies in the top step's edge group
        return {}


def _fresh_ext_names(used: set, n: int) -> tuple[str, ...]:
    out: list[str] = []
    i = 0
    while len(out) < n:
        name = _EXT_POOL[i] if i < len(_EXT_POOL) else f"t{i - len(_EXT_POOL) + 1}"
        i += 1
        if name not in used:
            used.add(name)
            out.append(name)
    return tuple(out)


def tower_names(t: IceTower) -> tuple[str, ...]:
    names = list(FreeGroup.standard(t.base_rank).names)
    for step in t.steps:
        names.extend(step.names)
    return tuple(names)


def presentation_of(t: IceTower) -> Presentation:
    """Amalgam presentation: new generators commute with the step basis."""
    relators = []
    offset = t.base_rank
    for step in t.steps:
        tees = [Word((offset + i + 1,)) for i in range(step.n)]
        for tee in tees:
            for c in step.basis:
                relators.append(commutator(tee, c))
        for i in range(step.n):
            for j in range(i + 1, step.n):
                relators.append(commutator(tees[i], tees[j]))
        offset += step.n
    return Presentation(tower_names(t), relators)


# ---------------------------------------------------------------------------
# Syllable pinching over the top amalgam


def _syl_word(t: IceTower, f: int, body: tuple[int, ...]) -> Word:
    """A syllable as a word.  A step syllable's body keeps its letters in
    the order they joined; its lower letters, read in order, multiply to
    its edge-group part, which commutes with the step letters and comes
    first, and then each step letter's power follows."""
    if not f:
        return Word(body)
    lo = t.rank - t.steps[-1].n
    word = Word.make(x for x in body if -lo <= x <= lo)
    for x in range(lo + 1, t.rank + 1):
        word = word * Word((x,)) ** (body.count(x) - body.count(-x))
    return word


def _pinch(t: IceTower, w: Word, cyclic: bool):
    """Reduce w to an alternating normal form over the top amalgam.

    Returns (syllables, conjugator): the syllables are amalgam_reduce's
    (factor, body) pairs, factor 1 for step syllables; with cyclic=True
    the form is also cyclically reduced and conj^-1 * w * conj equals the
    returned word.  A lower syllable in the edge group joins a step
    syllable as it stands, since edge elements commute with the step
    generators; a step syllable whose step letters cancel is its lower
    letters.
    """
    lo = t.rank - t.steps[-1].n
    tees = range(lo + 1, t.rank + 1)

    def edge(f: int, body: tuple[int, ...]):
        if not f:
            return body if _in_edge(t, body) else None
        for x in tees:
            if body.count(x) != body.count(-x):
                return None
        return reduce_ints(x for x in body if -lo <= x <= lo)

    syls = amalgam_reduce(w.ints, lo, edge)
    conj = EMPTY
    # The stack's bottom is the first syllable.  Every lower syllable with a
    # step neighbour has failed the edge test, so the ends reduce only when
    # they have one factor: the first moves onto the top, merges there, and
    # only the top needs settling.
    while cyclic and len(syls) >= 2 and syls[0][0] == syls[-1][0]:
        f, body = syls.pop(0)
        conj = conj * _syl_word(t, f, body)
        amalgam_push(syls, f, body, edge)
        amalgam_close(syls, edge)
    return syls, conj


def _in_edge(t: IceTower, ints: tuple[int, ...]) -> bool:
    """Whether the reduced word ints of the level below lies in the edge
    group of the top step, that is, commutes with its g.  Memoized on the
    tower; the commutator is decided uncached, since no other path asks."""
    memo = t._edge_memo
    got = memo.get(ints)
    if got is None:
        got = memo[ints] = _wp_uncached(t.lower(), commutator(Word(ints), t.steps[-1].g).ints)
    return got


def _wp(t: IceTower, ints: tuple[int, ...]) -> bool:
    memo = t._wp_memo
    got = memo.get(ints)
    if got is None:
        got = memo[ints] = _wp_uncached(t, ints)
    return got


def _wp_uncached(t: IceTower, ints: tuple[int, ...]) -> bool:
    """ints is reduced; a word with no top step letters reaches the level
    below as this same tuple, so both memos share it."""
    if not t.steps:
        return not ints
    syls, _ = _pinch(t, Word(ints), cyclic=False)
    if not syls:
        return True
    if len(syls) > 1:
        return False
    f, body = syls[0]
    return not f and _wp(t.lower(), body)


def wp_ice(t: IceTower, w: Word) -> bool:
    """Total word-problem decision; True means w is trivial in the tower."""
    validate_word(w, t.rank)
    return _wp(t, w.ints)


def ice_oracle(t: IceTower) -> WordOracle:
    return WordOracle(lambda w: wp_ice(t, w), True, "ice")


# ---------------------------------------------------------------------------
# Classification and centralizers


@dataclass(frozen=True)
class Classification:
    kind: str  # "parabolic" | "hyperbolic"
    level: int | None = None  # 1-based step index of the abelian subgroup
    conjugator: Word | None = None  # h with h^-1 g h inside that subgroup


def _classify(t: IceTower, w: Word) -> Classification:
    if not t.steps:
        return Classification("hyperbolic")
    syls, conj = _pinch(t, w, cyclic=True)
    if len(syls) >= 2:
        return Classification("hyperbolic")
    f, body = syls[0]
    if f:
        return Classification("parabolic", len(t.steps), conj)
    return _under_top(t, Word(body), conj)


def _under_top(t: IceTower, u: Word, conj: Word) -> Classification:
    """Classify a word from the level below inside the extended tower."""
    top = t.steps[-1]
    low = t.lower()
    k = len(t.steps)
    if _in_edge(t, u.ints):
        # u centralizes g, so it sits inside the extended subgroup itself
        return Classification("parabolic", k, conj)
    sub = _classify(low, u)
    if sub.kind == "parabolic":
        edge = _classify(low, top.g)
        if edge.kind == "parabolic" and edge.level == sub.level:
            # same maximal abelian iff the conjugators differ by a member
            x = edge.conjugator.inv() * sub.conjugator
            probe = low.steps[sub.level - 1].basis[0]
            if _wp(low, commutator(x, probe).ints):
                h = conj * sub.conjugator * edge.conjugator.inv()
                return Classification("parabolic", k, h)
        return Classification("parabolic", sub.level, conj * sub.conjugator)
    if len(top.basis) == 1 and _parallel(u, top.g, low.rank):
        for c in words_upto(low.rank, _RESIDUAL_LEN):
            if _in_edge(t, (c.inv() * u * c).ints):
                return Classification("parabolic", k, conj * c)
    return Classification("hyperbolic")


def _parallel(u: Word, g: Word, rank: int) -> bool:
    """Whether u's exponent vector is a rational multiple of g's; when g's
    is zero, whether u's is zero too.  Exponent sums are a homomorphism of
    every tower, since its relators are commutators, and conjugation keeps
    them; a hyperbolic conjugate of u inside the cyclic edge group shares
    a root with g, so its vector is parallel to g's."""
    vu, vg = exponent_vector(u, rank), exponent_vector(g, rank)
    k = next((i for i, x in enumerate(vg) if x), None)
    if k is None:
        return not any(vu)
    return all(a * vg[k] == b * vu[k] for a, b in zip(vu, vg))


def _edge_corrections(t: IceTower):
    """Small edge-group elements, identity first, for root candidates."""
    basis = t.steps[-1].basis[:3]
    vecs = sorted(
        itertools.product(range(-_ROOT_GRID, _ROOT_GRID + 1), repeat=len(basis)),
        key=lambda v: (max(map(abs, v), default=0), v),
    )
    for v in vecs:
        w = EMPTY
        for b, e in zip(basis, v):
            w = w * b**e
        yield w


def _max_root(t: IceTower, w: Word) -> tuple[Word, int]:
    """Maximal root of a hyperbolic word: (r, e) with r^e = w."""
    if not t.steps:
        return primitive_root(w)
    syls, conj = _pinch(t, w, cyclic=True)
    if len(syls) == 1:
        f, body = syls[0]
        if f:
            raise ValueError("root extraction expects a hyperbolic word")
        root, e = _max_root(t.lower(), Word(body))
        return conj * root * conj.inv(), e
    core = EMPTY
    for s in syls:
        core = core * _syl_word(t, *s)
    count = len(syls)
    # Reduced forms of one element differ by edge elements between
    # neighbouring syllables, and those carry no top step letters; so the
    # syllables' step-letter exponents of a d-th root's power repeat with
    # period d, and a d whose sequence does not repeat has no root.
    lo = t.rank - t.steps[-1].n
    vecs = [exponent_vector(Word(body), t.rank)[lo:] for _, body in syls]
    for d in range(2, count, 2):
        if count % d or vecs[d:] != vecs[:-d]:
            continue
        e = count // d
        prefix = EMPTY
        for s in syls[:d]:
            prefix = prefix * _syl_word(t, *s)
        for delta in _edge_corrections(t):
            cands = [prefix * delta]
            if delta.ints:
                cands.append(delta * prefix)
            for cand in cands:
                if cand.ints and _wp(t, (cand**e * core.inv()).ints):
                    root, e2 = _max_root(t, cand)
                    return conj * root * conj.inv(), e * e2
    return conj * core * conj.inv(), 1


def centralizer_ice(t: IceTower, w: Word) -> tuple[Word, ...]:
    """Free abelian basis of the centralizer of a nontrivial word."""
    validate_word(w, t.rank)
    if _wp(t, w.ints):
        raise ValueError("the identity centralizes everything")
    cls = _classify(t, w)
    if cls.kind == "hyperbolic":
        root, _ = _max_root(t, w)
        return (root,)
    step = t.steps[cls.level - 1]
    start = t.base_rank + sum(s.n for s in t.steps[: cls.level - 1])
    h = cls.conjugator
    members = list(step.basis)
    members += [Word((start + i + 1,)) for i in range(step.n)]
    return tuple(h * m * h.inv() for m in members)


def extend_centralizer(t: IceTower, g: Word, n: int) -> IceTower:
    validate_word(g, t.rank)
    if n < 1:
        raise ValueError("the abelian factor needs positive rank")
    if _wp(t, g.ints):
        raise ValueError("cannot extend the centralizer of the identity")
    basis = centralizer_ice(t, g)
    used = set(tower_names(t))
    names = _fresh_ext_names(used, n)
    return IceTower(t.base_rank, t.steps + (ExtensionStep(g, n, names, basis),))


# ---------------------------------------------------------------------------
# Tower file format


def tower_to_json(t: IceTower) -> dict:
    # each step's word uses only the names of the levels below it, which
    # are a prefix of the tower's names
    names = tower_names(t)
    steps = [{"g": format_word(step.g, names), "n": step.n} for step in t.steps]
    return {"base_rank": t.base_rank, "steps": steps}


def _field(doc, key: str, kind: type, where: str):
    if not isinstance(doc, dict):
        raise ValueError(f"tower file: {where} must be a JSON object")
    if key not in doc:
        raise ValueError(f"tower file: {where} has no {key!r} field")
    # an exact type test, so that true and false are not counts
    if type(doc[key]) is not kind:
        raise ValueError(f"tower file: {where} field {key!r} must be of type {kind.__name__}")
    return doc[key]


def tower_from_json(data: dict) -> IceTower:
    """Read a tower file; ValueError names a missing or ill-typed field."""
    t = IceTower(_field(data, "base_rank", int, "the tower"))
    steps = data.get("steps", [])
    if not isinstance(steps, list):
        raise ValueError("tower file: the tower field 'steps' must be a list")
    for k, item in enumerate(steps):
        g = parse_word(_field(item, "g", str, f"step {k}"), tower_names(t))
        t = extend_centralizer(t, g, _field(item, "n", int, f"step {k}"))
    return t


# ---------------------------------------------------------------------------
# Enumeration of towers and of limit-group presentations


def enumerate_ice():
    """Fair stream of (tower, presentation).

    Order: ascending total size (base rank plus, per step, the rank of
    the abelian factor plus the length of the centralized word), ties by
    base rank, then by step shape with shorter centralized words first.
    """
    cost = 0
    while True:
        cost += 1
        for base in range(1, cost + 1):
            yield from _towers_rec(IceTower(base), cost - base)


def _towers_rec(t: IceTower, rem: int):
    if rem == 0:
        yield (t, presentation_of(t))
        return
    for s in range(2, rem + 1):
        if rem - s == 1:
            continue  # no step costs 1, the branch cannot finish
        for glen in range(1, s):
            n = s - glen
            for g in words_of_length(t.rank, glen):
                if _wp(t, g.ints):
                    continue
                yield from _towers_rec(extend_centralizer(t, g, n), rem - s)


def _subset_stream(rank: int):
    """All finite sets of nonempty words, by total length, then count
    descending (many short generators before few long ones), then pool
    order."""
    yield ()
    total = 0
    while True:
        total += 1
        pool = [w for w in words_upto(rank, total) if w.ints]
        for count in range(total, 0, -1):
            yield from _pick_words(pool, 0, count, total)


def _pick_words(pool, start: int, count: int, total: int):
    if count == 0:
        if total == 0:
            yield ()
        return
    for i in range(start, len(pool)):
        w = pool[i]
        if len(w.ints) > total - (count - 1):
            break  # pool is sorted by length; nothing later fits
        for rest in _pick_words(pool, i + 1, count - 1, total - len(w.ints)):
            yield (w,) + rest


@dataclass(frozen=True)
class LimitGroupEmission:
    presentation: Presentation
    tower: IceTower
    s_words: tuple[Word, ...]
    result: SubgroupPresentationResult


class LimitEnumeration:
    """Dovetail towers against generating sets, emitting presentations.

    Round i admits tower i, with the first set of its subset stream;
    each later round draws the next S_PER_UNIT sets of every admitted
    tower.  A tower whose presentation an earlier tower already has
    (towers over g and g^-1, say) is not admitted, though round i is
    still its round: the earlier tower draws every S from the same
    stream in the same or an earlier round, and a search on the same
    presentation and S takes the same steps to the same retraction,
    so no emitted group is lost.  A fresh pair's retraction search
    gets FRESH_STEPS; unfinished pairs get ROUND_STEPS more each later
    round, so every pair eventually receives an unbounded budget while
    rounds stay linear in the number of pending pairs.  Each admitted
    tower keeps one record, (tower, oracle, atlas, subset stream), and
    each pair one list, [tower, search, steps owed], since the search
    holds S and the oracle.
    """

    S_PER_UNIT = 8
    FRESH_STEPS = 256
    ROUND_STEPS = 64

    def __init__(self):
        self._ice = enumerate_ice()
        self._towers: list[tuple] = []
        self._presented: set[Presentation] = set()
        self._todo: deque[list] = deque()  # pairs yet to run this round
        self._kept: list[list] = []  # pairs of this round still searching
        self.round = 0
        self.steps = 0

    def _open_round(self) -> None:
        self.round += 1
        for pair in self._kept:
            pair[2] = self.ROUND_STEPS
        self._todo.extend(self._kept)
        self._kept = []
        t, p = next(self._ice)
        if p not in self._presented:
            self._presented.add(p)
            self._towers.append((t, ice_oracle(t), SubgroupAtlas(p), _subset_stream(t.rank)))
        for tower, oracle, atlas, subsets in self._towers:
            for _ in range(1 if tower is t else self.S_PER_UNIT):
                search = RetractionSearch(atlas.p, next(subsets), oracle, atlas)
                self._todo.append([tower, search, self.FRESH_STEPS])

    def next_round(self, limit: int | None = None) -> list[LimitGroupEmission]:
        """Run a round of retraction searches; returns its emissions.

        With `limit`, the call stops once it has spent `limit` steps, in
        the middle of a pair if need be; the rest of the round stays
        pending, and the next call finishes it before opening another.
        """
        if not self._todo:
            self._open_round()
        out: list[LimitGroupEmission] = []
        spent = 0
        while self._todo:
            pair = self._todo[0]
            tower, search, owed = pair
            before = search.steps
            found = search.run(owed if limit is None else min(owed, limit - spent))
            used = search.steps - before
            spent += used
            self.steps += used
            owed -= used
            pair[2] = owed
            if found is None and owed > 0:
                break  # out of limit: the pair resumes in the next call
            self._todo.popleft()
            if found is None:
                self._kept.append(pair)
                continue
            res = present_from_retraction(search.s_words, found, search.oracle)
            if isinstance(res, SubgroupPresentationResult):
                out.append(LimitGroupEmission(res.presentation, tower, search.s_words, res))
        return out


def enumerate_limit_groups():
    """Fair stream of limit-group presentations, each from a verified
    (tower, generating set, retraction) witness.  A tower that repeats
    an earlier tower's presentation adds no pairs: the earlier tower's
    pairs emit the same presentations no later."""
    enum = LimitEnumeration()
    while True:
        for emission in enum.next_round():
            yield emission.presentation
