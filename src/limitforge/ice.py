"""Iterated centralizer extensions over free groups.

A tower records a base free group and a sequence of extension steps;
step k adjoins a free abelian factor commuting with the centralizer of
a chosen element.  Because each level is an amalgam over that
centralizer, words reduce by pinching edge-group syllables through the
abelian side, which yields a total word problem, an element
classification (conjugate into a noncyclic maximal abelian subgroup or
not), and centralizer bases.  On top of those sit two fair streams:
all towers, and presentations of all finitely generated subgroups of
tower groups.  The streams import presentations, oracles and the
retraction search where they use them, so the tower engine loads
without those modules.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import repeat
from math import comb, gcd

from .abelian import Lattice, exponent_vector, solve
from .freegroup import (
    amalgam_close,
    amalgam_push,
    amalgam_reduce,
    cyclic_reduce,
    eval_hom,
    is_power_of,
    primitive_root,
    standard_names,
)
from .words import (
    EMPTY,
    Value,
    Word,
    _set,
    commutator,
    format_word,
    parse_word,
    reduce_ints,
    validate_word,
    words_of_length,
)

_EXT_POOL = "tuvwxyz"


class ExtensionStep(Value):
    """One centralizer extension: adjoin Z^n commuting with Z(g)."""

    __slots__ = ("g", "n", "names", "basis")

    def __init__(self, g: Word, n: int, names: tuple[str, ...], basis: tuple[Word, ...]):
        _set(self, "g", g)
        _set(self, "n", n)
        _set(self, "names", names)
        _set(self, "basis", basis)


class IceTower(Value):
    __slots__ = ("base_rank", "steps", "__dict__")

    def __init__(self, base_rank: int, steps: tuple[ExtensionStep, ...] = ()):
        if base_rank < 1:
            raise ValueError("base rank must be positive")
        _set(self, "base_rank", base_rank)
        _set(self, "steps", tuple(steps))

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
    def _wp_memo(self) -> dict[tuple[int, ...], bool | tuple]:
        # word -> _wp_uncached(self, word): True or the word's syllables
        return {}

    @cached_property
    def _edge_memo(self) -> dict[tuple[int, ...], bool]:
        # lower-level word -> whether it lies in the top step's edge group
        return {}

    @cached_property
    def _edge_lattice(self) -> Lattice:
        # the span of the exponent vectors of the top step's basis.  Exponent
        # sums are a homomorphism of every tower, since its relators are
        # commutators, and the edge group is generated by that basis, so a
        # word whose vector is outside the span is not in it, nor is any
        # conjugate of such a word
        return Lattice([exponent_vector(b, self.rank) for b in self.steps[-1].basis], self.rank)

    @cached_property
    def _edge_images(self) -> list[tuple[list[Word], Word, list[int]]]:
        # the retractions of the level below that keep the top step's edge
        # group nontrivial, each with its images, the root r of the edge
        # group's image and the exponents of the basis's images over r
        low = self.lower()
        out = []
        for exps in _exponent_choices(low.rank - low.base_rank):
            images = _retraction(low, exps)
            ks = [eval_hom(images, k) for k in self.steps[-1].basis]
            r = next((primitive_root(k)[0] for k in ks if k), None)
            if r is not None:
                out.append((images, r, [is_power_of(k, r) for k in ks]))
        return out


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
    names = list(standard_names(t.base_rank))
    for step in t.steps:
        names.extend(step.names)
    return tuple(names)


def presentation_of(t: IceTower) -> Presentation:
    """Amalgam presentation: new generators commute with the step basis."""
    from .presentation import Presentation

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


def _syl_letters(t: IceTower, f: int, body: tuple[int, ...]):
    """A syllable's letters as its word writes them, before free
    reduction.  A step syllable's body keeps its letters in the order
    they joined; its lower letters, read in order, multiply to its
    edge-group part, which commutes with the step letters and comes
    first, and then each step letter's power follows.  No two of these
    parts share a letter, so only the edge-group part can cancel."""
    if not f:
        return body
    lo = t.rank - t.steps[-1].n
    ints = [x for x in body if -lo <= x <= lo]
    for x in range(lo + 1, t.rank + 1):
        e = body.count(x) - body.count(-x)
        ints += (x,) * e if e > 0 else (-x,) * -e
    return ints


def _syl_word(t: IceTower, f: int, body: tuple[int, ...]) -> Word:
    return Word(reduce_ints(_syl_letters(t, f, body)) if f else body)


def _pinch(t: IceTower, w: Word, cyclic: bool):
    """Reduce w to an alternating normal form over the top amalgam.

    Returns (syllables, conjugator): the syllables are amalgam_reduce's
    (factor, body) pairs, factor 1 for step syllables; with cyclic=True
    the form is also cyclically reduced and conj^-1 * w * conj equals the
    returned word.  A lower syllable in the edge group joins a step
    syllable as it stands, since edge elements commute with the step
    generators; a step syllable whose step letters cancel is its lower
    letters.  The cyclic form starts from the syllables of a nontrivial
    word in the word-problem memo.
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

    form = t._wp_memo.get(w.ints) if cyclic else None
    syls = list(form) if form.__class__ is tuple else amalgam_reduce(w.ints, lo, edge)
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
    group E of the top step, memoized on the tower.  Over base rank 1
    every level is free abelian, Z, then Z^(1+n) and so on, so E, the
    centralizer of a nontrivial g, is the whole level below.  Over a free
    level E is the cyclic group of the basis root.  Higher up, a word
    whose exponent vector is outside the span of the basis vectors is not
    in E, and any other is when it commutes with the step's g, decided
    uncached, since no other path asks."""
    if t.base_rank == 1:
        return True
    memo = t._edge_memo
    got = memo.get(ints)
    if got is None:
        u = Word(ints)
        if len(t.steps) == 1:
            got = is_power_of(u, t.steps[-1].basis[0]) is not None
        elif not t._edge_lattice.contains_word(u):
            got = False
        else:
            got = _wp_uncached(t.lower(), commutator(u, t.steps[-1].g).ints) is True
        memo[ints] = got
    return got


def _wp(t: IceTower, ints: tuple[int, ...]) -> bool:
    memo = t._wp_memo
    got = memo.get(ints)
    if got is None:
        got = memo[ints] = _wp_uncached(t, ints)
    return got is True


def _wp_uncached(t: IceTower, ints: tuple[int, ...]) -> bool | tuple:
    """True when the reduced word ints is trivial, else its syllables over
    the top amalgam as a tuple (False at the base).  A word with no top
    step letters reaches the level below as this same tuple, so both
    memos share it."""
    if not t.steps:
        return not ints
    syls, _ = _pinch(t, Word(ints), cyclic=False)
    if not syls or len(syls) == 1 and not syls[0][0] and _wp(t.lower(), syls[0][1]):
        return True
    return tuple(syls)


def wp_ice(t: IceTower, w: Word) -> bool:
    """Total word-problem decision; True means w is trivial in the tower."""
    validate_word(w, t.rank)
    return _wp(t, w.ints)


def ice_oracle(t: IceTower) -> WordOracle:
    from .oracles import WordOracle

    return WordOracle(lambda w: wp_ice(t, w), True, "ice")


# ---------------------------------------------------------------------------
# Classification and centralizers


class Classification(Value):
    """A parabolic word's level and conjugator; a hyperbolic word has
    level None."""

    __slots__ = ("level", "conjugator")

    def __init__(self, level: int | None = None, conjugator: Word | None = None):
        _set(self, "level", level)  # 1-based step index of the abelian subgroup
        _set(self, "conjugator", conjugator)  # h with h^-1 g h inside that subgroup


def _classify(t: IceTower, w: Word, pinched=None) -> Classification:
    """w's classification; pinched is _pinch(t, w, cyclic=True) when the
    caller has it already."""
    if not t.steps:
        return Classification()
    syls, conj = _pinch(t, w, cyclic=True) if pinched is None else pinched
    if len(syls) >= 2:
        return Classification()
    f, body = syls[0]
    if f:
        return Classification(len(t.steps), conj)
    return _under_top(t, Word(body), conj)


def _under_top(t: IceTower, u: Word, conj: Word) -> Classification:
    """Classify a word from the level below inside the extended tower."""
    top = t.steps[-1]
    low = t.lower()
    k = len(t.steps)
    if _in_edge(t, u.ints):
        # u centralizes g, so it sits inside the extended subgroup itself
        return Classification(k, conj)
    sub = _classify(low, u)
    if sub.level is not None:
        edge = _classify(low, top.g)
        if edge.level == sub.level:
            # u and g lie in conjugates of one maximal abelian subgroup,
            # and the edge group is g's conjugate of it
            h = conj * sub.conjugator * edge.conjugator.inv()
            return Classification(k, h)
        return Classification(sub.level, conj * sub.conjugator)
    # a one-element basis is the root of a hyperbolic g, and a conjugate
    # of u inside its group has u's exponent vector
    if len(top.basis) == 1 and t._edge_lattice.contains_word(u):
        c = _conj_into(low, u, top.basis[0])
        if c is not None:
            return Classification(k, conj * c)
    return Classification()


# ---------------------------------------------------------------------------
# Edge equations
#
# The edge group E of a step is maximal abelian in the level below, and
# limit groups are CSA, so E is malnormal there.  Roots and conjugators
# therefore come from one equation p = a q b with a, b in E and q outside
# E, whose a is unique when it exists.  Over a free level it is solved by
# peeling powers of E's root; higher up, through retractions onto the
# base free group, which give linear equations on a's exponents in E's
# basis, and one word problem checks the only candidate.


def _along(core: Word, ints: tuple[int, ...]) -> int:
    """Signed length of the longest common prefix of ints with core^N
    (positive) or core^-N (negative), for cyclically reduced core."""
    for sign, rep in ((1, core.ints), (-1, core.inv().ints)):
        n = len(rep)
        k = 0
        while k < len(ints) and ints[k] == rep[k % n]:
            k += 1
        if k:
            return sign * k
    return 0


def _peel(r: Word, p: Word, q: Word) -> int | None:
    """x with p = r^x q r^y for some y in a free group, or None; r is a
    primitive root and q lies outside <r>.

    Conjugated so that r is cyclically reduced, r translates the Cayley
    tree by |r| along the line of its powers through 1, and a vertex w
    projects onto that line where w stops following r's powers.  p
    projects x steps beyond some vertex of the line q<r>, and the whole
    of that line projects within one step of q's projection: lines
    sharing a whole step would give commuting conjugates of r.  So only
    the x next to the difference of the two projections can work, and a
    power test checks each."""
    core, c = cyclic_reduce(r)
    p, q = c.inv() * p * c, c.inv() * q * c
    near = (_along(core, p.ints) - _along(core, q.ints)) // len(core)
    for x in range(near - 1, near + 3):
        if is_power_of(q.inv() * core ** -x * p, core) is not None:
            return x
    return None


def _exponent_choices(n: int):
    """Exponents for the n extension letters of a tower's retractions,
    without repeats: all 1, then each letter alone at 2, then all 0, then
    each letter alone at 1.  Where the exponents of the edge basis's
    images are affine in these, as over one level of extension letters,
    the first n + 1 give every row that any choice gives; the rest add
    choices that kill most letters, for products of exponents across
    stacked steps.  Every image stays a word of bounded length."""
    ones = (1,) * n
    units = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    choices = [ones] + [tuple(1 + u for u in unit) for unit in units]
    choices += [(0,) * n] + units
    return list(dict.fromkeys(choices))


def _retraction(t: IceTower, exps: tuple[int, ...]) -> list[Word]:
    """Images of t's generators in its base free group: the i-th
    extension letter (0-based over all steps) goes to the image of its
    step's g to the power exps[i].  This is a homomorphism, since each
    edge group is abelian and holds its g, so its image commutes with
    g's."""
    images = [Word((x,)) for x in range(1, t.base_rank + 1)]
    for step in t.steps:
        g = eval_hom(images, step.g)
        for _ in range(step.n):
            images.append(g ** exps[len(images) - t.base_rank])
    return images


def _double_coset(t: IceTower, p: Word, q: Word) -> Word | None:
    """a in the top step's edge group E with p = a q b for some b in E,
    or None; p and q are words of the level below, q outside E.

    Raises NotImplementedError when the retractions leave a's exponents
    undetermined: the solver never guesses."""
    basis = t.steps[-1].basis
    low = t.lower()
    if not low.steps:
        x = _peel(basis[0], p, q)
        return None if x is None else basis[0] ** x
    rows: list[list[int]] = []
    rhs: list[int] = []
    for images, r, row in t._edge_images:
        fq = eval_hom(images, q)
        if is_power_of(fq, r) is not None:
            continue  # this image says nothing about a
        # E's image is abelian, so it lies in the cyclic group of r, and
        # the image equation has at most one solution
        x = _peel(r, eval_hom(images, p), fq)
        if x is None:
            return None
        rows.append(row)
        rhs.append(x)
        got = solve(rows, rhs, len(basis))
        if got is None:
            return None
        exps, kernel = got
        if not kernel:
            a = EMPTY
            for k, e in zip(basis, exps):
                a = a * k**e
            return a if _in_edge(t, (q.inv() * a.inv() * p).ints) else None
    raise NotImplementedError(
        f"edge equation over a {len(t.steps) - 1}-step tower: "
        f"its retractions leave the {len(basis)} exponents undetermined"
    )


def _conj_free(u: Word, r: Word) -> Word | None:
    """c with c^-1 u c a power of r in a free group, or None."""
    core, cu = cyclic_reduce(u)
    rcore, cr = cyclic_reduce(r)
    m, rest = divmod(len(core), len(rcore))
    if rest or not m:
        return None
    doubled = core.ints * 2
    for target in ((rcore**m).ints, (rcore**-m).ints):
        for k in range(len(core)):
            if doubled[k : k + len(core)] == target:
                # core = X Y with Y X = target, so X^-1 core X = target
                return cu * Word(core.ints[:k]) * cr.inv()
    return None


def _conj_into(t: IceTower, u: Word, r: Word) -> Word | None:
    """c with c^-1 u c a power of r, or None, for a hyperbolic u and a
    root r of a hyperbolic word.

    Cyclically reduced conjugates of one element of an amalgam are
    cyclic permutations of each other's syllables, conjugated by an edge
    element.  If r's reduced form is one lower syllable, so are the forms
    of its powers' conjugates, and the question moves down a level.
    Otherwise u must have m times r's syllables; for each rotation of
    u's that starts at a lower syllable, the edge element is the a of
    one edge equation between first syllables, and one word problem
    checks it."""
    if not t.steps:
        return _conj_free(u, r)
    syls, hu = _pinch(t, u, cyclic=True)
    rsyls, hr = _pinch(t, r, cyclic=True)
    if len(rsyls) == 1:
        if len(syls) != 1 or syls[0][0]:
            return None
        c = _conj_into(t.lower(), Word(syls[0][1]), Word(rsyls[0][1]))
        return None if c is None else hu * c * hr.inv()
    m, rest = divmod(len(syls), len(rsyls))
    if rest:
        return None
    words = [_syl_word(t, *s) for s in syls]
    rcore = _product(_syl_word(t, *s) for s in rsyls)
    for y in (rcore**m, rcore**-m):
        ysyls, hy = _pinch(t, y, cyclic=True)
        if ysyls[0][0]:
            hy = hy * _syl_word(t, *ysyls[0])
            ysyls = ysyls[1:] + ysyls[:1]
        target = _product(_syl_word(t, *s) for s in ysyls)
        head = Word(ysyls[0][1])
        prefix = EMPTY
        for k, (f, _) in enumerate(syls):
            if not f:
                a = _double_coset(t, words[k], head)
                if a is not None:
                    rotated = _product(words[k:] + words[:k])
                    if _wp(t, (a.inv() * rotated * a * target.inv()).ints):
                        return hu * prefix * a * hy.inv() * hr.inv()
            prefix = prefix * words[k]
    return None


def _product(words) -> Word:
    return Word(reduce_ints(x for w in words for x in w.ints))


def _max_root(t: IceTower, w: Word, pinched=None) -> tuple[Word, int]:
    """Maximal root of a hyperbolic word: (r, e) with r^e = w; pinched is
    _pinch(t, w, cyclic=True) when the caller has it already."""
    if not t.steps:
        return primitive_root(w)
    syls, conj = _pinch(t, w, cyclic=True) if pinched is None else pinched
    if len(syls) == 1:
        f, body = syls[0]
        if f:
            raise ValueError("root extraction expects a hyperbolic word")
        root, e = _max_root(t.lower(), Word(body))
        return conj * root * conj.inv(), e
    core = Word(reduce_ints(x for s in syls for x in _syl_letters(t, *s)))
    count = len(syls)
    # A d-th root's e-th power has a reduced form of its d syllables
    # repeated, and reduced forms of one element differ by edge elements
    # between neighbouring syllables.  So syllable vectors d apart differ
    # by a vector in the edge basis's span, and the root is s1...sd*c for
    # the one c in E that the edge equation at the first lower syllable
    # allows.  The least such d gives the maximal root.  Its e-th power
    # has e times its vector, so e = count / d divides the gcd of w's.
    periods = [d for d in range(2, count, 2) if not count % d]
    g = gcd(*exponent_vector(core, t.rank)) if periods else 0
    periods = [d for d in periods if not g % (count // d)]
    vecs = [exponent_vector(Word(body), t.rank) for _, body in syls] if periods else []
    i = 1 if syls[0][0] else 0
    words = None
    for d in periods:
        if not all([x - y for x, y in zip(vecs[j + d], vecs[j])] in t._edge_lattice for j in range(count - d)):
            continue
        words = words or [_syl_word(t, *s) for s in syls]
        a = _double_coset(t, words[i + d], words[i])
        if a is None:
            continue
        if i:
            # s_{d+1} and s_1 are step syllables with equal step letters;
            # their edge parts carry the correction from s_2 back to s_1
            a = words[d] * words[0].inv() * a
            if a.ints and _wp(t.lower(), a.ints):
                a = EMPTY
        root = _product(words[:d]) * a
        e = count // d
        if _wp(t, (root**e * core.inv()).ints):
            return conj * root * conj.inv(), e
    return conj * core * conj.inv(), 1


def centralizer_ice(t: IceTower, w: Word) -> tuple[Word, ...]:
    """Free abelian basis of the centralizer of a nontrivial word."""
    validate_word(w, t.rank)
    if _wp(t, w.ints):
        raise ValueError("the identity centralizes everything")
    # the root step starts from classification's cyclic normal form
    pinched = _pinch(t, w, cyclic=True) if t.steps else None
    cls = _classify(t, w, pinched)
    if cls.level is None:
        root, _ = _max_root(t, w, pinched)
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


def _subset_stream(rank: int, pool: list[Word], min_words: int = 0):
    """All finite sets of nonempty words, by total length, then count
    descending (many short generators before few long ones), then pool
    order.  A set of fewer than `min_words` words is counted, not built:
    the stream yields None in its place.  The streams of one rank may
    share `pool`: a stream extends it only by a length it lacks, up to
    the longest word of a set it builds, and `_pick_words` stops at the
    first word too long, so what another stream adds never changes what
    this yields."""
    least = max(min_words, 1)
    yield None if min_words else ()
    total = 0
    while True:
        total += 1
        longest = total - least + 1
        if longest > 0 and (not pool or len(pool[-1].ints) < longest):
            pool.extend(words_of_length(rank, longest))
        for count in range(total, least - 1, -1):
            yield from _pick_words(pool, 0, count, total)
        # counts descend, so the short sets close each total
        yield from repeat(None, sum(_block_size(rank, c, total) for c in range(1, least)))


def _block_size(rank: int, count: int, total: int, length: int = 1) -> int:
    """How many sets of `count` distinct reduced words, each at least
    `length` long, have total length `total`: there are 2r(2r-1)^(L-1)
    reduced words of length L."""
    if count == 0:
        return int(total == 0)
    words = 2 * rank * (2 * rank - 1) ** (length - 1)
    size = 0
    for k in range(min(count, total // length) + 1):  # k words of this length
        rest = total - k * length
        if rest >= (count - k) * (length + 1):
            size += comb(words, k) * _block_size(rank, count - k, rest, length + 1)
    return size


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


class LimitGroupEmission(Value):
    """The presentation of the span of S in a tower, with the retraction
    it was computed from."""

    __slots__ = ("presentation", "tower", "s_words", "found")

    def __init__(
        self,
        presentation: Presentation,
        tower: IceTower,
        s_words: tuple[Word, ...],
        found: RetractionFound,
    ):
        _set(self, "presentation", presentation)
        _set(self, "tower", tower)
        _set(self, "s_words", s_words)
        _set(self, "found", found)


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
    each pair one list, [tower, search, the search's `spent` when its
    share of the round is paid], since the search holds S and the
    oracle.  The subset streams of one rank share one word pool.

    With a `target` presentation, only pairs that can emit a group
    isomorphic to the target, or one with its abelianization, get a
    search.  Both rules are exact:

    - An S with fewer words than b1, the target's first Betti number,
      is counted in its stream but not built, and opens no search: the
      group it emits is generated by |S| elements, so its b1 is at most
      |S|.
    - When the target has as many generators as its b1 and at least one
      relator, a tower with no steps is not admitted, though its round
      is used as for a repeated presentation.  Every subgroup of that
      tower is free (Nielsen-Schreier), and the target is not: it is a
      quotient of F_b1 by a nontrivial relator, and F_b1 is Hopfian, so
      it has no proper quotient isomorphic to itself.

    Every surviving pair gets the same round, steps and retraction as
    without a target.  `skipped_pairs` and `skipped_towers` count what
    the rules left out.
    """

    S_PER_UNIT = 8
    FRESH_STEPS = 256
    ROUND_STEPS = 64

    def __init__(self, target: Presentation | None = None):
        from .presentation import abelianization

        b1 = 0 if target is None else abelianization(target)[0]
        self._min_words = b1
        self._free_ok = target is None or not (target.rank == b1 and target.relators)
        self._ice = enumerate_ice()
        self._towers: list[tuple] = []
        self._presented: set[Presentation] = set()
        self._pools: dict[int, list[Word]] = {}  # rank -> subset-stream pool
        self._todo: deque[list] = deque()  # pairs yet to run this round
        self._kept: list[list] = []  # pairs of this round still searching
        self.round = 0
        self.steps = 0
        self.skipped_pairs = 0
        self.skipped_towers = 0

    def _open_round(self) -> None:
        from .retracts import RetractionSearch, SubgroupAtlas

        self.round += 1
        for pair in self._kept:
            pair[2] += self.ROUND_STEPS
        self._todo.extend(self._kept)
        self._kept = []
        t, p = next(self._ice)
        if p not in self._presented:
            self._presented.add(p)
            if t.steps or self._free_ok:
                pool = self._pools.setdefault(t.rank, [])
                subsets = _subset_stream(t.rank, pool, self._min_words)
                self._towers.append((t, ice_oracle(t), SubgroupAtlas(p), subsets))
            else:
                self.skipped_towers += 1
        for tower, oracle, atlas, subsets in self._towers:
            for _ in range(1 if tower is t else self.S_PER_UNIT):
                s = next(subsets)
                if s is None:
                    self.skipped_pairs += 1
                    continue
                search = RetractionSearch(atlas.p, s, oracle, atlas)
                self._todo.append([tower, search, self.FRESH_STEPS])

    def next_round(self, limit: int | None = None) -> list[LimitGroupEmission]:
        """Run a round of retraction searches; returns its emissions.

        With `limit`, the call stops once it has spent `limit` steps, in
        the middle of a pair if need be; the rest of the round stays
        pending, and the next call finishes it before opening another.
        """
        from .retracts import present_from_retraction

        if not self._todo:
            self._open_round()
        out: list[LimitGroupEmission] = []
        stop = None if limit is None else self.steps + limit
        while self._todo:
            pair = self._todo[0]
            tower, search, paid = pair
            before = search.spent
            owed = paid - before
            found = search.run(owed if stop is None else min(owed, stop - self.steps))
            self.steps += search.spent - before
            if found is None and search.spent < paid:
                break  # out of limit: the pair resumes in the next call
            self._todo.popleft()
            if found is None:
                self._kept.append(pair)
                continue
            res = present_from_retraction(search.s_words, found)
            out.append(LimitGroupEmission(res.presentation, tower, search.s_words, found))
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
