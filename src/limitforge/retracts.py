"""Retraction search onto finitely generated subgroups.

Given an ambient presentation and a generating set S, the search looks
for a finite-index subgroup K containing S together with a retraction
of K onto the subgroup generated by S.  Composing with the subgroup
presentation of K and eliminating the kernel generators then yields a
presentation of that subgroup.  All verification goes through a word
oracle for the ambient group, so the pipeline works for any group whose
word problem the caller can decide.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .abelian import LANE_BITS, Lattice, exponent_vector, matvec
from .coset import CosetTable, RSResult, rs_presentation, subgroups_of_index
from .freegroup import eval_hom, standard_names
from .oracles import DOVETAIL_QUERY_CAP, WordOracle, dovetail_oracle
from .presentation import Presentation, compositions, tietze_simplify
from .words import EMPTY, Value, Word, _set, validate_word, words_of_length


class RetractionFound(Value):
    """A verified retraction of a finite-index K onto the subgroup
    generated by S, as the search found it.

    rs: the Reidemeister-Schreier result of K's coset table, whose
    presentation is K's on generators X;
    y_words[j]: image of X_j as a word over the abstract S alphabet;
    s_exprs[i]: the i-th element of S expressed as a word over X;
    cost: the search cost at which it was found.
    """

    __slots__ = ("rs", "y_words", "s_exprs", "cost", "quotients")
    # quotients holds the subgroup's presented quotients
    # (_Subgroup.quotients), which present_from_retraction reads and
    # fills; not part of the result
    _fields = __slots__[:4]

    def __init__(
        self,
        rs: RSResult,
        y_words: tuple[Word, ...],
        s_exprs: tuple[Word, ...],
        cost: int,
        quotients: dict | None = None,
    ):
        _set(self, "rs", rs)
        _set(self, "y_words", y_words)
        _set(self, "s_exprs", s_exprs)
        _set(self, "cost", cost)
        _set(self, "quotients", {} if quotients is None else quotients)

    def rho_images(self) -> tuple[Word, ...]:
        """Images of K's generators under the retraction, as words over X."""
        return tuple(eval_hom(self.s_exprs, y) for y in self.y_words)

    def check_words(self) -> tuple[Word, ...]:
        """Words over X that must be trivial in K for this to be a retraction.

        One word per relator (well-definedness) and one per element of S
        (the retraction fixes S pointwise).
        """
        rho = self.rho_images()
        eqs = [eval_hom(rho, r) for r in self.rs.presentation.relators]
        eqs += [eval_hom(rho, e) * e.inv() for e in self.s_exprs]
        return tuple(eqs)

    def verify(self, oracle: WordOracle):
        """Re-check every defining equation through the ambient oracle."""
        out = True
        for w in self.check_words():
            v = oracle(self.rs.embed(w))
            if v is False:
                return False
            if v is None:
                out = None
        return out


class SearchExhausted(Value):
    __slots__ = ("steps",)

    def __init__(self, steps: int):
        _set(self, "steps", steps)


class _Subgroup:
    """What one finite-index subgroup gives every search on its presentation.

    The Reidemeister-Schreier result and the lattice spanned by the
    relator exponent rows depend on the coset table alone, not on S;
    `quotients` maps the retraction images of the subgroup's generators
    to the simplified presentation of their span, and the result
    generators' indices among the subgroup's.
    """

    def __init__(self, rs: RSResult):
        self.rs = rs
        self.index = rs.table.index
        pres = rs.presentation
        self.rank = pres.rank
        rows = [exponent_vector(r, pres.rank) for r in pres.relators]
        self.lattice = Lattice(rows, pres.rank)
        self.quotients: dict[tuple[Word, ...], tuple[Presentation, tuple[int, ...]]] = {}


class SubgroupAtlas:
    """Exact-index coset tables, their subgroups and word pools, for one
    presentation.

    Searches on the same presentation with different S share one atlas,
    so each low-index stream, each Reidemeister-Schreier presentation
    and each pool of image words is computed once, and all of them are
    freed with the atlas.
    """

    def __init__(self, p: Presentation):
        self.p = p
        self._tables: dict[int, list[CosetTable]] = {}
        self._subgroups: dict[CosetTable, _Subgroup] = {}
        self._pools: dict[tuple[int, int], tuple[Word, ...]] = {}
        self._holding: dict[tuple[int, tuple[int, ...]], int] = {}
        self._compositions: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

    def tables(self, index: int) -> list[CosetTable]:
        """Tables of subgroups of exactly this index, in low_index order."""
        got = self._tables.get(index)
        if got is None:
            got = self._tables[index] = list(subgroups_of_index(self.p, index))
        return got

    def holding(self, index: int, words) -> int:
        """Bitmask of the tables of this index that hold every word: bit i
        is set when tables(index)[i] leads coset 0 back to 0 along each.
        Each word's mask is traced once and kept."""
        tables = self.tables(index)
        mask = (1 << len(tables)) - 1
        for w in words:
            got = self._holding.get((index, w.ints))
            if got is None:
                got = 0
                for i, t in enumerate(tables):
                    if t.trace(0, w) == 0:
                        got |= 1 << i
                self._holding[index, w.ints] = got
            mask &= got
        return mask

    def subgroup(self, t: CosetTable) -> _Subgroup:
        got = self._subgroups.get(t)
        if got is None:
            got = self._subgroups[t] = _Subgroup(rs_presentation(self.p, t))
        return got

    def pool(self, rank: int, length: int) -> tuple[Word, ...]:
        """The reduced words of this length over `rank` letters."""
        got = self._pools.get((rank, length))
        if got is None:
            got = self._pools[rank, length] = tuple(words_of_length(rank, length))
        return got

    def compositions(self, total: int, parts: int) -> tuple[tuple[int, ...], ...]:
        """The splits of `total` into `parts` word lengths, balanced splits
        first: length is spread evenly before it piles up."""
        got = self._compositions.get((total, parts))
        if got is None:
            if not parts:
                got = ((),) if total == 0 else ()
            else:
                # a split into nonnegative lengths is a composition of
                # total + parts into positive parts, less 1 from each
                splits = (tuple(n - 1 for n in c) for c in compositions(total + parts, parts))
                got = tuple(sorted(splits, key=lambda c: (max(c), c)))
            self._compositions[total, parts] = got
        return got


class _Branch:
    """One finite-index subgroup admitted into the dovetail for one S."""

    def __init__(self, sub: _Subgroup, s_exprs: tuple[Word, ...]):
        self.sub = sub
        self.rs = sub.rs
        self.index = sub.index
        self.rank = sub.rank
        self.s_exprs = s_exprs
        self.s_rows = [exponent_vector(e, sub.rank) for e in s_exprs]
        self._images: dict[int, tuple[int, ...]] = {}

    @cached_property
    def packing(self):
        """The packed zero-lane test of a candidate Y: a coefficient
        integer C_j per position of Y, the packed image of each signed S
        letter, and the target T.  With no lanes every packed image and T
        are 0, and every candidate passes.

        Every check vector v must have u . v = 0 on each zero row u of the
        lattice.  A lane holds u . v for one check and one row, check k's
        lanes in block k.  The lanes are linear in the images of Y, so
        their packed sum is sum_j C_j * sigma(Y_j), where sigma(w) packs
        u . ab(w) over the rows.  When every lane equals its target the
        packed integers are equal, whatever the lane width, so a candidate
        whose sum is not T fails the exact lattice test in `_admit`.  A
        lane that overflows, or a Smith entry of 2 or more, only lets more
        candidates through.
        """
        rows = self.sub.lattice.rows
        # lanes[i][k] = u_i . (S row k); a zero row u_i that meets every
        # S row in 0 holds on every candidate and gets no lane
        lanes = [matvec(self.s_rows, u) for u in self.sub.lattice.zero_rows]
        lanes = [row for row in lanes if any(row)]
        block = LANE_BITS * len(lanes)
        s_packed = [
            sum(row[k] << (LANE_BITS * i) for i, row in enumerate(lanes))
            for k in range(len(self.s_rows))
        ]
        coeffs = [
            sum(c[j] << (block * k) for k, c in enumerate(rows + self.s_rows))
            for j in range(self.rank)
        ]
        letters = {}
        for x, packed in enumerate(s_packed, 1):
            letters[x], letters[-x] = packed, -packed
        target = sum(packed << (block * k) for k, packed in enumerate(s_packed, len(rows)))
        return coeffs, letters, target

    def images(self, length: int, pool: tuple[Word, ...]) -> tuple[int, ...]:
        """The packed image sigma(w) of each word w of `pool`, the words of
        this length, in pool order."""
        got = self._images.get(length)
        if got is None:
            letters = self.packing[1]
            got = self._images[length] = tuple(
                sum([letters[x] for x in w.ints]) for w in pool
            )
        return got


_REPRICE = object()  # Metered stream marker: `price` has just changed


def set_bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Metered:
    """A resumable search charged per item of its stream, `_stream`.

    An item is None, or the hit that ends the search, and costs `price`
    units.  A positive int n stands for the next n items, all dead: each
    is charged as a None would be, and those that do not fit in a call
    stay owed to the next one, so the stream is resumed only once they
    are all paid, and `items` counts the items charged so far.  To change
    the price the stream sets `self.price`, then yields _REPRICE before
    any work at the new price, so run() knows what the next item costs
    before it resumes the stream.  An item that does not fit in what is
    left of a call waits for the next call.
    """

    price = 1

    def __init__(self):
        self.spent = 0
        self.items = 0
        self.found = None
        self._owed = 0  # items of a dead run not charged yet
        self._gen = self._stream()

    def run(self, units: int):
        """Spend at most `units`; returns the hit once found, else None."""
        if self.found is not None:
            return self.found
        gen = self._gen
        spent = self.spent
        items = self.items
        owed = self._owed
        price = self.price
        stop = spent + units
        try:
            while spent + price <= stop:
                if owed:
                    paid = min(owed, (stop - spent) // price)
                    spent += paid * price
                    items += paid
                    owed -= paid
                    continue
                item = next(gen)
                if item is None:
                    spent += price
                    items += 1
                elif item is _REPRICE:
                    price = self.price
                elif item.__class__ is int:
                    owed = item
                else:
                    spent += price
                    items += 1
                    self.found = item
                    break
        finally:  # an oracle error leaves what was charged before it
            self.spent = spent
            self.items = items
            self._owed = owed
        return self.found


class RetractionSearch(Metered):
    """Resumable dovetailed search for a retraction onto the span of S.

    Candidates are ordered by total cost, the subgroup index plus the
    total length of the image tuple Y over the abstract S alphabet.
    Each run() step examines one coset table or one Y candidate.  Coset
    tables and subgroup presentations come from `atlas`, which searches
    on the same presentation may share; without one the search builds
    its own.
    """

    def __init__(
        self,
        p: Presentation,
        s_words,
        oracle: WordOracle,
        atlas: SubgroupAtlas | None = None,
    ):
        self.p = p
        self.s_words = tuple(s_words)
        for s in self.s_words:
            validate_word(s, p.rank)
        self.oracle = oracle
        self.atlas = atlas if atlas is not None else SubgroupAtlas(p)
        self.cost = 0
        super().__init__()

    # read-only aliases of the meter's names, which the benchmark tracer reads
    steps = property(lambda self: self.spent)
    result = property(lambda self: self.found)

    # -- dovetail internals

    def _make_branch(self, t: CosetTable) -> _Branch:
        # the stream calls this only on tables that hold S (atlas.holding)
        walks = []
        for s in self.s_words:
            end, raw = t.schreier.walk(0, s)
            assert end == 0, "S is not inside this subgroup"
            walks.append(raw)
        sub = self.atlas.subgroup(t)
        images = sub.rs.trace.gen_images
        return _Branch(sub, tuple(eval_hom(images, raw) for raw in walks))

    def _y_tuples(self, branch: _Branch, total: int):
        """The candidates Y of this total length, in search order.  A
        positive int n stands for the next n candidates, all rejected by
        the packed zero-lane test."""
        m = len(self.s_words)
        coeffs, _, target = branch.packing
        # C_j * sigma(w) for the words w of one length at position j, built
        # once per call: the walk is over the product of the pools
        scaled: dict[tuple[int, int], list[int]] = {}
        for comp in self.atlas.compositions(total, branch.rank):
            # a length-0 position holds EMPTY, whose packed image is 0, so
            # only the nonzero positions are walked
            nonzero = [j for j, n in enumerate(comp) if n]
            if not nonzero:
                yield (EMPTY,) * len(comp) if target == 0 else 1
                continue
            pools = [self.atlas.pool(m, comp[j]) for j in nonzero]
            parts = []
            for j, pool in zip(nonzero, pools):
                got = scaled.get((j, comp[j]))
                if got is None:
                    c = coeffs[j]
                    got = scaled[j, comp[j]] = [c * image for image in branch.images(comp[j], pool)]
                parts.append(got)
            # the last position varies fastest: the rest of the sum is fixed
            # along its pool, so each head finds the places where the last
            # part meets the target, and a tuple is built only there
            last, last_parts = pools.pop(), parts.pop()
            dead = 0
            for head, head_parts in zip(itertools.product(*pools), itertools.product(*parts)):
                need = target - sum(head_parts)
                k = -1
                for _ in range(last_parts.count(need)):
                    start = k + 1
                    k = last_parts.index(need, start)
                    dead += k - start
                    if dead:
                        yield dead
                        dead = 0
                    y = [EMPTY] * len(comp)
                    for j, word in zip(nonzero, head + (last[k],)):
                        y[j] = word
                    yield tuple(y)
                dead += len(last) - k - 1
            if dead:
                yield dead

    def _admit(self, branch: _Branch, y: tuple[Word, ...]) -> RetractionFound | None:
        # y has passed the packed test; the exact lattice test runs on every
        # check word before the oracle is asked about any
        found = RetractionFound(branch.rs, y, branch.s_exprs, self.cost, branch.sub.quotients)
        checks = found.check_words()
        lattice = branch.sub.lattice
        for w in checks:
            if exponent_vector(w, branch.rank) not in lattice:
                return None
        for w in checks:
            if w.ints and self.oracle(branch.rs.embed(w)) is not True:
                return None
        return found

    def _candidates(self, branch: _Branch, total: int):
        """One item per candidate Y of this total length on the branch; a
        run of candidates that the packed test rejects comes as its count."""
        for y in self._y_tuples(branch, total):
            yield y if y.__class__ is int else self._admit(branch, y)

    def _stream(self):
        branches: list[_Branch] = []
        while True:
            self.cost += 1
            # image tuples on subgroups found at earlier costs come first;
            # enumerating the new cost's coset tables is the expensive tail
            for br in branches:
                yield from self._candidates(br, self.cost - br.index)
            # a table that misses S still costs its step, in a dead run, and
            # is never walked or presented
            tables = self.atlas.tables(self.cost)
            done = 0
            for i in set_bits(self.atlas.holding(self.cost, self.s_words)):
                if i > done:
                    yield i - done
                br = self._make_branch(tables[i])
                yield None
                branches.append(br)
                yield from self._candidates(br, 0)
                done = i + 1
            if len(tables) > done:
                yield len(tables) - done


def find_retraction(
    p: Presentation,
    s_words,
    budget: int = 200_000,
    oracle: WordOracle | None = None,
):
    """First verified (subgroup, retraction) pair in dovetail order.

    Returns a RetractionFound, or SearchExhausted after `budget` steps.
    With no oracle, each query of the default dovetail oracle gets
    `budget` units of work, never more than DOVETAIL_QUERY_CAP.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if oracle is None:
        oracle = dovetail_oracle(p, min(budget, DOVETAIL_QUERY_CAP))
    search = RetractionSearch(p, s_words, oracle)
    found = search.run(budget)
    if found is None:
        return SearchExhausted(search.spent)
    return found


class SubgroupPresentationResult(Value):
    """Presentation of the subgroup generated by S, with correspondences.

    gens_ambient[j]: output generator j as an ambient word.
    """

    __slots__ = ("presentation", "gens_ambient", "witness")

    def __init__(
        self,
        presentation: Presentation,
        gens_ambient: tuple[Word, ...],
        witness: RetractionFound,
    ):
        _set(self, "presentation", presentation)
        _set(self, "gens_ambient", gens_ambient)
        _set(self, "witness", witness)


def subgroup_presentation_lr(
    p: Presentation,
    s_words,
    budget: int = 200_000,
    oracle: WordOracle | None = None,
):
    """Presentation of the subgroup generated by S via local retractions.

    Pipeline: find a finite-index overgroup with a retraction onto the
    span of S, present the overgroup, then eliminate the retraction's
    kernel generators.  Returns SearchExhausted when the search runs
    out.  With no oracle, find_retraction builds the default one.
    """
    s_words = tuple(s_words)
    found = find_retraction(p, s_words, budget, oracle)
    if isinstance(found, SearchExhausted):
        return found
    return present_from_retraction(s_words, found)


def present_from_retraction(s_words, found: RetractionFound):
    """Turn a verified retraction into a presentation of the span of S.

    The span of S is the image of the retraction rho, the quotient of K
    by the relators x * rho(x)^-1, so those are appended and the kernel
    generators are eliminated.  The search verified that rho is an
    endomorphism of K fixing S with image in the span of S, so rho is
    idempotent and no oracle is asked.  The quotient depends only on the
    subgroup and the images, so it is built and simplified once per pair
    and kept in `found.quotients`, the subgroup's.
    """
    s_words = tuple(s_words)
    rs = found.rs
    images = found.rho_images()
    got = found.quotients.get(images)
    if got is None:
        k_pres = rs.presentation
        extra = [Word((j + 1,)).inv() * w for j, w in enumerate(images)]
        quotient = Presentation(k_pres.names, list(k_pres.relators) + extra)
        simplified, trace = tietze_simplify(quotient)
        out = Presentation(standard_names(simplified.rank), simplified.relators)
        got = found.quotients[images] = (out, trace.kept)
    out, kept = got
    gens = tuple(eval_hom(s_words, found.y_words[k]) for k in kept)
    return SubgroupPresentationResult(out, gens, found)
