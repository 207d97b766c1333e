"""Folded subgroup graphs for free groups.

A finitely generated subgroup of a free group is stored as a folded labeled
graph: vertex 0 is the base point, and trans[v][s] gives the endpoint of the
edge at v in slot s (slot 2k = generator k, slot 2k+1 = its inverse), or None.
Folding the bouquet of generators is coset enumeration with no relators, so
fold runs the coset enumerator.  Membership, rank, and index all read
straight off the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .coset import SchreierTree, _Enumerator, _standardize
from .words import Word


@dataclass(frozen=True)
class SubgroupGraph:
    """A folded graph: a coset table whose rows may miss edges (None)."""

    rank: int
    trans: tuple[tuple[int | None, ...], ...]
    words: tuple[Word, ...]

    @cached_property
    def schreier(self) -> SchreierTree:
        return SchreierTree(self.trans, self.rank)


def fold(rank: int, words) -> SubgroupGraph:
    """Fold the bouquet of the given subgroup generators.

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
    # the base coset survives every merge, so it stays coset 0; a missing
    # edge looks up None in renum and stays None
    live = [c for c in range(len(eng.table)) if eng.find(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    rows = [[renum.get(eng.get(c, s)) for s in range(eng.n2)] for c in live]
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
    """(free rank of the subgroup, index in the ambient group or math.inf).

    The basis has one element per non-tree positive edge, E - V + 1 of
    them, which is the rank.
    """
    full = all(d is not None for row in g.trans for d in row)
    return len(g.schreier.basis), (len(g.trans) if full else math.inf)
