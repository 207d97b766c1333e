"""Folded subgroup graphs for free groups.

A finitely generated subgroup of a free group is stored as a folded labeled
graph: vertex 0 is the base point, and trans[v][s] gives the endpoint of the
edge at v in slot s (slot 2k = generator k, slot 2k+1 = its inverse), or None.
Membership, rank, and index all read straight off the graph.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .coset import SchreierTree, _standardize
from .words import Word, slot


def inv_slot(s: int) -> int:
    return s ^ 1


@dataclass(frozen=True)
class SubgroupGraph:
    rank: int
    trans: tuple[tuple[int | None, ...], ...]
    words: tuple[Word, ...]

    @property
    def nvertices(self) -> int:
        return len(self.trans)

    @cached_property
    def schreier(self) -> SchreierTree:
        return SchreierTree(self.trans, self.rank)


def fold(rank: int, words) -> SubgroupGraph:
    """Fold the bouquet of the given subgroup generators."""
    words = tuple(words)
    for w in words:
        if w.max_index() > rank:
            raise ValueError(f"generator word exceeds ambient rank {rank}")

    parent = [0]
    adj: list[dict[int, int]] = [dict()]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges: deque[tuple[int, int]] = deque()

    def add_half(a: int, s: int, b: int):
        a, b = find(a), find(b)
        cur = adj[a].get(s)
        if cur is None:
            adj[a][s] = b
            return
        cur = find(cur)
        adj[a][s] = cur
        if cur != b:
            merges.append((cur, b))

    def add_edge(u: int, s: int, v: int):
        add_half(u, s, v)
        add_half(v, inv_slot(s), u)

    for w in words:
        cur = 0
        n = len(w.ints)
        for i, x in enumerate(w.ints):
            if i == n - 1:
                nxt = 0
            else:
                parent.append(len(parent))
                adj.append(dict())
                nxt = len(parent) - 1
            add_edge(cur, slot(x), nxt)
            cur = nxt
        while merges:
            x, y = merges.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            # smaller id survives, which keeps the base point at 0
            parent[y] = x
            edges = adj[y]
            adj[y] = dict()
            for s, t in edges.items():
                add_half(x, s, t)

    live = {v: dict() for v in range(len(parent)) if find(v) == v}
    for v in live:
        for s, t in adj[v].items():
            live[v][s] = find(t)
    base = find(0)

    # trim: repeatedly drop non-base vertices of degree <= 1
    while True:
        victim = None
        for v in live:
            if v != base and len(live[v]) <= 1:
                victim = v
                break
        if victim is None:
            break
        for s, t in live[victim].items():
            if t in live and live[t].get(inv_slot(s)) == victim:
                del live[t][inv_slot(s)]
        del live[victim]

    # renumber from 0 (the base point, which survives every merge) in
    # canonical BFS order
    ids = {v: i for i, v in enumerate(live)}
    rows: list[list[int | None]] = [[None] * (2 * rank) for _ in ids]
    for v, row in live.items():
        for s, t in row.items():
            rows[ids[v]][s] = ids[t]
    return SubgroupGraph(rank, _standardize(rank, rows), words)


def basis_of(g: SubgroupGraph) -> tuple[Word, ...]:
    """Free basis of the subgroup, as ambient words, in a fixed order."""
    return g.schreier.basis


def member(g: SubgroupGraph, w: Word) -> Word | None:
    """Express w in the graph's basis, or None if w is not in the subgroup.

    The result is a word over a fresh alphabet with one generator per basis
    element, in basis_of order.
    """
    end, expr = g.schreier.walk(0, w)
    return expr if end == 0 else None


def graph_rank_index(g: SubgroupGraph) -> tuple[int, float]:
    """(free rank of the subgroup, index in the ambient group or math.inf)."""
    nv = g.nvertices
    ne = sum(
        1 for v in range(nv) for s in range(0, 2 * g.rank, 2) if g.trans[v][s] is not None
    )
    rank = ne - nv + 1
    full = all(g.trans[v][s] is not None for v in range(nv) for s in range(2 * g.rank))
    return rank, (nv if full else math.inf)
