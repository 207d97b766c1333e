"""Coset enumeration and subgroup presentations.

Todd-Coxeter (HLT with coincidence handling), low-index subgroup
enumeration by backtracking over standardized partial tables, folded
subgroup graphs of free groups, and the Reidemeister-Schreier rewriting
process with Tietze cleanup.

Tables use slot columns (slot 2k = generator k, 2k+1 = its inverse) and are
standardized: cosets numbered in breadth-first order from the base coset 0
scanning slots ascending.  A row entry is None where an edge is missing.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property

from .freegroup import eval_hom
from .presentation import Presentation, SimplifyTrace, tietze_simplify
from .words import EMPTY, Value, Word, _set, slot, unslot


class Overflow(ValueError):
    """Coset limit hit; the index may still be finite or infinite."""


class CosetTable(Value):
    """A standardized coset table; the rows of a folded graph may hold None."""

    __slots__ = ("ngens", "rows", "subgens", "__dict__")

    def __init__(
        self, ngens: int, rows: tuple[tuple[int | None, ...], ...], subgens: tuple[Word, ...] = ()
    ):
        _set(self, "ngens", ngens)
        _set(self, "rows", rows)
        _set(self, "subgens", subgens)

    @property
    def index(self) -> int:
        return len(self.rows)

    def trace(self, c: int, w: Word) -> int:
        for x in w.ints:
            c = self.rows[c][slot(x)]
        return c

    def is_complete(self) -> bool:
        return all(e is not None for row in self.rows for e in row)

    @cached_property
    def schreier(self) -> "SchreierTree":
        return SchreierTree(self.rows, self.ngens)

    def to_json_dict(self, names) -> dict:
        return {
            "index": self.index,
            "rows": {
                names[k]: [self.rows[c][2 * k] for c in range(self.index)]
                for k in range(self.ngens)
            },
        }


class SchreierTree:
    """Breadth-first spanning tree of a Schreier graph and its basis.

    trans[v][s] is the end of the edge at vertex v in slot s, or None: a
    coset table, or a folded subgroup graph of a free group.  The tree
    grows from vertex 0 scanning slots ascending, and reps[v] is the tree
    word from 0 to v.  The non-tree positive edges, ordered by (slot,
    vertex), number the Schreier basis: the i-th is (v, s), and basis[i]
    is the ambient word reps[v] * s * reps[trans[v][s]]^-1.  `walk` reads
    only the edge numbers; `basis` is built the first time it is read.
    """

    def __init__(self, trans, rank: int):
        self.trans = trans
        tree: set[tuple[int, int]] = set()
        for v, s, d in _tree_edges(trans):
            tree.update(((v, s), (d, s ^ 1)))
        # basis letter of each non-tree edge, read in either direction
        self._letter: dict[tuple[int, int], int] = {}
        i = 0
        for s in range(0, 2 * rank, 2):
            for v, row in enumerate(trans):
                if row[s] is not None and (v, s) not in tree:
                    i += 1
                    self._letter[(v, s)] = i
                    self._letter[(row[s], s ^ 1)] = -i

    @cached_property
    def basis(self) -> tuple[Word, ...]:
        trans = self.trans
        reps = [EMPTY] * len(trans)
        for v, s, d in _tree_edges(trans):
            reps[d] = reps[v] * Word((unslot(s),))
        return tuple(
            reps[v] * Word((unslot(s),)) * reps[trans[v][s]].inv()
            for (v, s), i in self._letter.items()
            if i > 0
        )

    def walk(self, v: int, w: Word):
        """Follow w from vertex v.

        Returns (end vertex, the path as a word over the basis), or
        (None, None) when w runs off a missing edge.
        """
        trans, letter = self.trans, self._letter
        out: list[int] = []
        for x in w.ints:
            s = slot(x)
            e = letter.get((v, s))
            if e is not None:
                out.append(e)
            v = trans[v][s]
            if v is None:
                return None, None
        return v, Word.make(out)


def _tree_edges(trans):
    """The breadth-first tree's edges (v, s, d), trans[v][s] = d, in the
    order the tree takes them."""
    seen = {0}
    bfs = deque([0])
    while bfs:
        v = bfs.popleft()
        for s, d in enumerate(trans[v]):
            if d is not None and d not in seen:
                seen.add(d)
                bfs.append(d)
                yield v, s, d


def _standardize(rows) -> tuple[tuple[int | None, ...], ...]:
    """Renumber cosets in BFS order from 0, slots ascending."""
    order = {0: 0}
    for _, _, d in _tree_edges(rows):
        order[d] = len(order)
    out = [()] * len(order)
    for c, row in enumerate(rows):
        out[order[c]] = tuple([None if d is None else order[d] for d in row])
    return tuple(out)


class _Enumerator:
    """HLT machine with lazy union-find coincidence handling."""

    def __init__(self, ngens: int, max_cosets: int):
        self.n2 = 2 * ngens
        self.max = max_cosets
        self.table: list[list[int | None]] = [[None] * self.n2]
        self.parent = [0]
        self.pending: deque[tuple[int, int]] = deque()
        self.dirty: deque[int] = deque([0])

    def find(self, c: int) -> int:
        while self.parent[c] != c:
            self.parent[c] = self.parent[self.parent[c]]
            c = self.parent[c]
        return c

    def get(self, c: int, s: int):
        d = self.table[c][s]
        return None if d is None else self.find(d)

    def define(self, c: int, s: int) -> int:
        if len(self.table) >= self.max:
            raise Overflow(f"more than {self.max} cosets")
        d = len(self.table)
        self.table.append([None] * self.n2)
        self.parent.append(d)
        self.table[c][s] = d
        self.table[d][s ^ 1] = c
        self.dirty.append(d)
        return d

    def _set(self, c: int, s: int, d: int):
        # install c --s--> d on representatives, queueing any clash
        cur = self.get(c, s)
        if cur is None:
            self.table[c][s] = d
            self.dirty.append(c)
        elif cur != d:
            self.pending.append((cur, d))
            return
        rcur = self.get(d, s ^ 1)
        if rcur is None:
            self.table[d][s ^ 1] = c
            self.dirty.append(d)
        elif rcur != c:
            self.pending.append((rcur, c))

    def process_coincidences(self):
        while self.pending:
            x, y = self.pending.popleft()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            # the smaller index survives, keeping the base coset alive
            self.parent[y] = x
            row = self.table[y]
            self.table[y] = [None] * self.n2
            for s in range(self.n2):
                if row[s] is not None:
                    self._set(x, s, self.find(row[s]))
            self.dirty.append(x)

    def scan(self, alpha: int, slots):
        """Trace one relator from alpha, deducing or defining as needed."""
        while True:
            alpha = self.find(alpha)
            f, i = alpha, 0
            b, j = alpha, len(slots) - 1
            while i <= j:
                nxt = self.get(f, slots[i])
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i > j:
                if f != b:
                    self.pending.append((f, b))
                return
            while j >= i:
                prv = self.get(b, slots[j] ^ 1)
                if prv is None:
                    break
                b, j = prv, j - 1
            if j < i:
                if f != b:
                    self.pending.append((f, b))
                return
            if j == i:
                self.table[f][slots[i]] = b
                self.table[b][slots[i] ^ 1] = f
                self.dirty.append(f)
                self.dirty.append(b)
                return
            self.define(f, slots[i])
            # loop: the forward scan can now continue

    def rows(self) -> tuple[tuple[int | None, ...], ...]:
        """The live cosets' rows, renumbered and standardized.  The base
        coset survives every merge, so it stays coset 0; a missing edge
        looks up None in renum and stays None."""
        live = [c for c in range(len(self.table)) if self.find(c) == c]
        renum = {c: i for i, c in enumerate(live)}
        return _standardize([[renum.get(self.get(c, s)) for s in range(self.n2)] for c in live])


def todd_coxeter(p: Presentation, subgens, max_cosets: int = 100000):
    """Enumerate cosets of <subgens> in the presented group.

    Returns a complete standardized CosetTable; raises Overflow when more
    than max_cosets cosets would be needed before closing.
    """
    subgens = tuple(subgens)
    for w in subgens:
        if w.max_index() > p.rank:
            raise ValueError("subgroup generator uses an unknown generator")
    eng = _Enumerator(p.rank, max_cosets)
    rel_slots = [r.slots() for r in p.relators]
    sub_slots = [w.slots() for w in subgens if w.ints]

    for ws in sub_slots:
        eng.scan(0, ws)
        eng.process_coincidences()
    while eng.dirty:
        c = eng.dirty.popleft()
        if eng.find(c) != c:
            continue
        for ws in rel_slots:
            eng.scan(c, ws)
            eng.process_coincidences()
            if eng.find(c) != c:
                break
        c = eng.find(c)
        for s in range(eng.n2):
            if eng.get(c, s) is None:
                eng.define(c, s)
        eng.process_coincidences()
    table = CosetTable(p.rank, eng.rows(), subgens)
    _assert_valid(p, table)
    return table


def _assert_valid(p: Presentation, t: CosetTable):
    n = t.index
    for k in range(p.rank):
        col = [t.rows[c][2 * k] for c in range(n)]
        assert sorted(col) == list(range(n)), "generator column is not a permutation"
        for c in range(n):
            assert t.rows[col[c]][2 * k + 1] == c, "inverse column mismatch"
    for r in p.relators:
        for c in range(n):
            assert t.trace(c, r) == c, "relator does not act trivially"
    for w in t.subgens:
        assert t.trace(0, w) == 0, "subgroup generator moves the base coset"


def fold(rank: int, words) -> CosetTable:
    """The folded subgroup graph of <words> in the free group of the given
    rank: coset enumeration with no relators, whose table misses edges.

    The generators are reduced words, so the folded bouquet is an
    immersion: every vertex but the base lies on a reduced loop through
    the base and keeps two edges, and nothing needs trimming.
    """
    words = tuple(words)
    for w in words:
        if w.max_index() > rank:
            raise ValueError(f"generator word exceeds ambient rank {rank}")
    # a scan of w defines at most |w| - 1 cosets, so this bound never overflows
    eng = _Enumerator(rank, 1 + sum(len(w) for w in words))
    for w in words:
        eng.scan(0, w.slots())
        eng.process_coincidences()
    return CosetTable(rank, eng.rows(), words)


def member(t: CosetTable, w: Word) -> Word | None:
    """Express w in the table's Schreier basis, or None if w is not in the
    subgroup: a word over one generator per basis element, in order."""
    end, expr = t.schreier.walk(0, w)
    return expr if end == 0 else None


def graph_rank_index(t: CosetTable) -> tuple[int, float]:
    """(free rank of a folded graph's subgroup, its index or math.inf).

    The basis has one element per non-tree positive edge, E - V + 1 of
    them, which is the rank.
    """
    return len(t.schreier.basis), (t.index if t.is_complete() else math.inf)


def low_index(p: Presentation, n: int):
    """All subgroups of index <= n, one standardized complete table each."""
    if n < 1:
        raise ValueError("index bound must be at least 1")
    n2 = 2 * p.rank
    rel_slots = [r.slots() for r in p.relators]
    rows: list[list[int | None]] = [[None] * n2]

    def set_entry(c: int, s: int, d: int) -> bool:
        if rows[c][s] is not None:
            return rows[c][s] == d
        rows[c][s] = d
        r = rows[d][s ^ 1]
        if r is None:
            rows[d][s ^ 1] = c
            return True
        return r == c

    def scan_once(alpha: int, slots) -> str:
        f, i = alpha, 0
        b, j = alpha, len(slots) - 1
        while i <= j and rows[f][slots[i]] is not None:
            f, i = rows[f][slots[i]], i + 1
        if i > j:
            return "ok" if f == b else "fail"
        while j >= i and rows[b][slots[j] ^ 1] is not None:
            b, j = rows[b][slots[j] ^ 1], j - 1
        if j < i:
            return "ok" if f == b else "fail"
        if j == i:
            if not set_entry(f, slots[i], b):
                return "fail"
            return "set"
        return "ok"

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for c in range(len(rows)):
                for ws in rel_slots:
                    r = scan_once(c, ws)
                    if r == "fail":
                        return False
                    if r == "set":
                        changed = True
        return True

    def first_undefined():
        for c in range(len(rows)):
            for s in range(n2):
                if rows[c][s] is None:
                    return c, s
        return None

    def dfs():
        spot = first_undefined()
        if spot is None:
            yield CosetTable(p.rank, tuple(tuple(r) for r in rows))
            return
        c, s = spot
        limit = len(rows) + (1 if len(rows) < n else 0)
        for d in range(limit):
            saved = [row[:] for row in rows]
            if d == len(rows):
                rows.append([None] * n2)
            if set_entry(c, s, d) and propagate():
                yield from dfs()
            del rows[:]
            rows.extend(saved)

    if propagate():
        yield from dfs()


def subgroups_of_index(p: Presentation, n: int):
    """The tables of `low_index(p, n)` whose index is exactly n, in its
    order.  A table of n cosets is reached by the same choices under any
    bound of at least n, tried in the same order, so this is also the
    order of the index-n tables of any deeper walk."""
    return (t for t in low_index(p, n) if t.index == n)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


class RSResult(Value):
    """Subgroup presentation with its generator correspondence.

    presentation: simplified presentation of the subgroup;
    gens_ambient[j]: the ambient word presenting generator j;
    trace: the Tietze cleanup trace (raw generators -> final words).
    The raw Schreier generators are table.schreier.basis.
    """

    __slots__ = ("table", "presentation", "gens_ambient", "trace")

    def __init__(
        self,
        table: CosetTable,
        presentation: Presentation,
        gens_ambient: tuple[Word, ...],
        trace: SimplifyTrace,
    ):
        _set(self, "table", table)
        _set(self, "presentation", presentation)
        _set(self, "gens_ambient", gens_ambient)
        _set(self, "trace", trace)

    def embed(self, w: Word) -> Word:
        """Ambient word of a subgroup word over the final generators."""
        return eval_hom(self.gens_ambient, w)


def rs_presentation(p: Presentation, t: CosetTable) -> RSResult:
    """Reidemeister-Schreier presentation of the subgroup of a table."""
    if t.ngens != p.rank:
        raise ValueError("table and presentation have different ranks")
    if not t.is_complete():
        raise ValueError("rs_presentation needs a complete table")
    tree = t.schreier
    names = tuple(f"s{i + 1}" for i in range(len(tree.basis)))
    relators = [tree.walk(c, r)[1] for c in range(t.index) for r in p.relators]
    simplified, trace = tietze_simplify(Presentation(names, relators))
    gens_ambient = tuple(tree.basis[i] for i in trace.kept)
    return RSResult(t, simplified, gens_ambient, trace)
