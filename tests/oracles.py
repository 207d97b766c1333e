"""Independent oracles for the test suite.

Everything here computes expected values by brute force over explicit
finite objects (permutations, product closures, integer recursions,
specializing homomorphisms).  None of it calls the algorithms under
test, so agreement is evidence rather than tautology.  The word-kernel
references at the end use only Word arithmetic, except the tower
syllable reduction, which keeps the tower word problem for its edge
tests, and the root reference, which keeps the package's pinch, edge
equation and word problem and builds every syllable as a word.  The Stallings folder shares only the breadth-first renumbering
with the package; the low-index reference shares only CosetTable; the subgroup rewriting reference takes only the
Schreier basis of the table from it.  The Tietze-expansion references at the end keep the
package's Presentation and its single Tietze moves, and replace only the
stream bookkeeping that the package does lazily; the eager walk keeps the
package's children too and differs only in when it expands a node.  The limit-enumeration
reference keeps the package's rounds and searches and changes only which
towers get pairs; the retraction-presentation reference builds and
simplifies the quotient afresh for every retraction and asserts that the
retraction is idempotent.  The witness-search
reference keeps the package's candidate checks, with its premise checks
as they read when the search also took semi-decisions, and asks the
oracle about every candidate.  The metering references at the end are the resumable
searches as they ran before they shared one meter, each with its own run
loop; the retraction search's keeps its old branch building, candidate
stream and lattice test as well.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

from limitforge.coset import CosetTable, _standardize
from limitforge.abelian import exponent_vector
from limitforge.freegroup import eval_hom, primitive_root, standard_names
from limitforge.ice import (
    LimitEnumeration,
    _double_coset,
    _pinch,
    _subset_stream,
    _syl_word,
    _wp,
    ice_oracle,
)
from limitforge.presentation import (
    _CHILD_CAP,
    _CONSEQ_CAP,
    _NODE_CAP,
    _NODE_GROWTH,
    NormalizeCapError,
    Presentation,
    _children,
    _fresh_name,
    _remove_generator,
    _single_occurrence_pairs,
    abelianization,
    compositions,
    enumerate_presentations,
    normalize_key,
    serialize,
    tietze_simplify,
)
from limitforge.recognize import CertifySearch
from limitforge.retracts import (
    _REPRICE,
    RetractionFound,
    RetractionSearch,
    SubgroupAtlas,
    SubgroupPresentationResult,
    _Branch,
)
from limitforge.words import (
    EMPTY,
    Word,
    commutator,
    invert_ints,
    reduce_ints,
    slot,
    unslot,
    words_of_length,
    words_upto,
)


# ---------------------------------------------------------------------------
# Subgroup counts in free groups, by the standard recursion: the number
# of index-n subgroups of a rank-r free group satisfies
#   N(n) = n * (n!)^(r-1) - sum_{i=1}^{n-1} ((n-i)!)^(r-1) * N(i)


def hall_counts(rank: int, nmax: int) -> list[int]:
    counts: list[int] = []
    for n in range(1, nmax + 1):
        total = n * math.factorial(n) ** (rank - 1)
        for i in range(1, n):
            total -= math.factorial(n - i) ** (rank - 1) * counts[i - 1]
        counts.append(total)
    return counts


# ---------------------------------------------------------------------------
# Permutations as tuples, composed left to right: (p * q)(x) = q(p(x)).
# A word evaluates by applying its letters in reading order, which matches
# composing right actions.


def perm_mul(p: tuple, q: tuple) -> tuple:
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_eval(ints, gens) -> tuple:
    deg = len(gens[0])
    acc = tuple(range(deg))
    for x in ints:
        g = gens[x - 1] if x > 0 else perm_inv(gens[-x - 1])
        acc = perm_mul(acc, g)
    return acc


def perm_group_order(gens) -> int:
    deg = len(gens[0])
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def perms_satisfy(relators, gens) -> bool:
    deg = len(gens[0])
    ident = tuple(range(deg))
    return all(perm_eval(r.ints, gens) == ident for r in relators)


# Ten finite groups given twice over: a presentation, and explicit
# permutations its generators map to.  The permutation side is the
# ground truth; the order comes from closure, never from coset counting.
# Each entry: (label, presentation text, generator permutations).

FINITE_CORPUS = (
    ("cyclic 5", "< a | a^5 >", ((1, 2, 3, 4, 0),)),
    (
        "klein four",
        "< a, b | a^2, b^2, [a,b] >",
        ((1, 0, 3, 2), (2, 3, 0, 1)),
    ),
    (
        "alternating 4",
        "< s, t | s^2, t^3, s*t*s*t*s*t >",
        ((1, 0, 3, 2), (1, 2, 0, 3)),
    ),
    (
        "symmetric 4",
        "< s, t | s^4, t^2, s*t*s*t*s*t >",
        ((1, 2, 3, 0), (1, 0, 2, 3)),
    ),
    (
        "dihedral 8",
        "< r, f | r^4, f^2, r*f*r*f >",
        ((1, 2, 3, 0), (0, 3, 2, 1)),
    ),
    (
        "quaternion 8",
        "< a, b | a^4, a^2*b^-2, b^-1*a*b*a >",
        ((1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)),
    ),
    (
        "elementary 9",
        "< a, b | a^3, b^3, [a,b] >",
        ((1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)),
    ),
    (
        "frobenius 21",
        "< a, b | a^7, b^3, b^-1*a*b*a^-2 >",
        ((1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)),
    ),
    (
        "dihedral 12",
        "< r, f | r^6, f^2, r*f*r*f >",
        ((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)),
    ),
    (
        "symmetric 3",
        "< s, t | s^2, t^2, s*t*s*t*s*t >",
        ((1, 0, 2), (0, 2, 1)),
    ),
)


# ---------------------------------------------------------------------------
# Brute-force subgroup membership: the set of all products of at most
# max_factors elements of S union S^-1, as reduced letter tuples.


def product_closure(s_words, max_factors: int) -> set:
    factors = [w for w in s_words] + [w.inv() for w in s_words]
    seen = {()}
    frontier = [Word(())]
    for _ in range(max_factors):
        nxt = []
        for p in frontier:
            for f in factors:
                q = p * f
                if q.ints not in seen:
                    seen.add(q.ints)
                    nxt.append(q)
        frontier = nxt
    return seen


def conjugate(w: Word, c: Word) -> Word:
    """c w c^-1."""
    return c * w * c.inv()


def random_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    out: list[int] = []
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    while len(out) < length:
        x = rng.choice(letters)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return Word(tuple(out))


# ---------------------------------------------------------------------------
# Bounded refutation by brute force: substitute every word of the sentence
# on every assignment, in itertools.product order.


def refute_sentence_reference(s, bound: int, target_rank: int = 2):
    pool = list(words_upto(target_rank, bound))
    for assign in itertools.product(pool, repeat=len(s.variables)):
        ok = True
        for g in s.inequations:
            if not eval_hom(assign, g).ints:
                ok = False
                break
        if not ok:
            continue
        for e in s.equations:
            if eval_hom(assign, e).ints:
                ok = False
                break
        if ok:
            return assign
    return None


# ---------------------------------------------------------------------------
# Specializations of the height-one tower on <a, b> extended along a.
# Sending t to a^k retracts the tower onto its base; a word trivial in
# the tower dies under every k, and a nontrivial one survives some k
# not much larger than its length.


def t1_specialize(w: Word, k: int) -> Word:
    images = (Word((1,)), Word((2,)), Word(tuple([1] * k)))
    return eval_hom(images, w)


def t1_nontrivial_witness(w: Word, kmax: int) -> int | None:
    for k in range(kmax + 1):
        if t1_specialize(w, k).ints:
            return k
    return None


def t1_relator() -> Word:
    return commutator(Word((1,)), Word((3,)))


def t1_corpus(seed: int = 20260817, n_random: int = 250, n_consequence: int = 250):
    """Fixed word corpus over the alphabet a, b, t.

    Returns (word, expected) pairs where expected is True for words built
    as products of conjugated relators and None where triviality is not
    known in advance.
    """
    rng = random.Random(seed)
    rel = t1_relator()
    out = []
    for _ in range(n_random):
        w = random_reduced_word(rng, 3, rng.randint(1, 16))
        out.append((w, None))
    for _ in range(n_consequence):
        acc = Word(())
        for _ in range(rng.randint(1, 3)):
            c = random_reduced_word(rng, 3, rng.randint(0, 4))
            f = rel if rng.random() < 0.5 else rel.inv()
            acc = acc * conjugate(f, c)
        out.append((acc, True))
    return out


# ---------------------------------------------------------------------------
# Letter-by-letter references for the word kernels.  They rebuild a Word
# per rotation, per power or per letter, which is quadratic but plain;
# the library computes the same results in linear time.


def canonical_relator_reference(w: Word) -> Word:
    core = w.ints
    i, j = 0, len(core)
    while j - i >= 2 and core[i] == -core[j - 1]:
        i += 1
        j -= 1
    core = core[i:j]
    if not core:
        return Word(())
    best = None
    for seq in (core, Word(core).inv().ints):
        for k in range(len(seq)):
            rot = seq[k:] + seq[:k]
            key = Word(rot).slots()
            if best is None or key < best[0]:
                best = (key, rot)
    return Word(best[1])


def is_power_of_reference(w: Word, r: Word):
    """Exponent e with w = r^e, or None, by growing r^e one factor at a
    time until it outgrows w."""
    if not r:
        return 0 if not w else None
    if not w:
        return 0
    for sign in (1, -1):
        base = r if sign > 0 else r.inv()
        acc = base
        e = 1
        while len(acc) <= len(w) + 2 * len(r):
            if acc == w:
                return sign * e
            acc = acc * base
            e += 1
    return None


def pinched_reference(rank1: int, u: Word, v: Word, w: Word) -> bool:
    """Triviality of w in < F(rank1) * F | u = v > by syllable pinching,
    with syllables grown one letter at a time: rewrite a syllable that is
    a power of its side's edge word into the other side, multiply out
    neighbours of one block, and stop at the amalgam normal form."""
    sides = (u, v)
    syllables: list = []
    for x in w.ints:
        b = 0 if abs(x) <= rank1 else 1
        if syllables and syllables[-1][0] == b:
            syllables[-1] = (b, Word.make(syllables[-1][1] + (x,)).ints)
        else:
            syllables.append((b, (x,)))
    while True:
        changed = True
        while changed:
            changed = False
            for i in range(len(syllables)):
                if not syllables[i][1]:
                    del syllables[i]
                    changed = True
                    break
                if i + 1 < len(syllables) and syllables[i][0] == syllables[i + 1][0]:
                    body = Word.make(syllables[i][1] + syllables[i + 1][1]).ints
                    syllables[i : i + 2] = [(syllables[i][0], body)]
                    changed = True
                    break
        if not syllables:
            return True
        if len(syllables) == 1:
            return False
        for idx, (b, body) in enumerate(syllables):
            k = is_power_of_reference(Word(body), sides[b])
            if k is not None:
                syllables[idx] = (1 - b, (sides[1 - b] ** k).ints)
                break
        else:
            return False


def split_syllables_reference(ints, lo: int, n: int) -> list:
    """(kind, word, vec) per syllable over the top amalgam of a tower:
    kind 0 is a run of lower letters, kind 1 a run of step letters with
    their exponent vector.  Lower runs grow one letter at a time."""
    syls: list = []
    for x in ints:
        if abs(x) <= lo:
            if syls and syls[-1][0] == 0:
                syls[-1][1] = syls[-1][1] * Word((x,))
            else:
                syls.append([0, Word((x,)), None])
        else:
            if not syls or syls[-1][0] != 1:
                syls.append([1, Word(()), [0] * n])
            syls[-1][2][abs(x) - lo - 1] += 1 if x > 0 else -1
    return [tuple(s) for s in syls]


class _Syl:
    """A syllable that pinch_reference rewrites in place."""

    def __init__(self, kind: int, word: Word, vec):
        self.kind, self.word, self.vec = kind, word, vec

    def as_word(self, lo: int) -> Word:
        """The edge-group part first, then each step letter's power."""
        word = self.word
        for i, e in enumerate(self.vec or ()):
            word = word * Word((lo + i + 1,)) ** e
        return word


def pinch_reference(t, w: Word, cyclic: bool):
    """(syllables, conjugator) of w over the top amalgam of tower t, by a
    fixed-point loop that rescans from the first syllable after every
    merge or pinch, and tests edge membership through the word problem
    one level down.  Syllables carry kind, word and vec as in
    split_syllables_reference."""
    top = t.steps[-1]
    lo = t.rank - top.n
    low = t.lower()
    _LOW, _BEE = 0, 1

    def in_edge(u: Word) -> bool:
        return _wp(low, commutator(u, top.g).ints)

    syls = [_Syl(*s) for s in split_syllables_reference(w.ints, lo, top.n)]
    conj = EMPTY
    while True:
        changed = True
        while changed:
            changed = False
            i = 0
            while i < len(syls):
                s = syls[i]
                if s.kind == _BEE and not any(s.vec):
                    s.kind = _LOW
                    s.vec = None
                    changed = True
                    continue
                if s.kind == _LOW and not s.word.ints:
                    del syls[i]
                    changed = True
                    continue
                if i + 1 < len(syls) and syls[i + 1].kind == s.kind:
                    nxt = syls[i + 1]
                    if s.kind == _LOW:
                        s.word = s.word * nxt.word
                    else:
                        s.word = s.word * nxt.word
                        s.vec = [a + b for a, b in zip(s.vec, nxt.vec)]
                    del syls[i + 1]
                    changed = True
                    continue
                i += 1
            if changed:
                continue
            for i, s in enumerate(syls):
                if s.kind != _LOW:
                    continue
                left = i > 0 and syls[i - 1].kind == _BEE
                right = i + 1 < len(syls) and syls[i + 1].kind == _BEE
                if (left or right) and in_edge(s.word):
                    # edge elements commute with the step generators
                    if left:
                        syls[i - 1].word = syls[i - 1].word * s.word
                    else:
                        syls[i + 1].word = s.word * syls[i + 1].word
                    del syls[i]
                    changed = True
                    break
        if not cyclic or len(syls) < 2:
            break
        first, last = syls[0], syls[-1]
        if first.kind == last.kind:
            conj = conj * first.as_word(lo)
            syls.append(syls.pop(0))
            continue
        if first.kind == _LOW and in_edge(first.word):
            conj = conj * first.word
            syls.append(syls.pop(0))
            continue
        if last.kind == _LOW and in_edge(last.word):
            conj = conj * last.word.inv()
            syls.insert(0, syls.pop())
            continue
        break
    return syls, conj


def syl_word_reference(t, f: int, body: tuple[int, ...]) -> Word:
    """A syllable of t's top amalgam as a word, built letter by letter: a
    step syllable's lower letters multiplied in order, then one Word
    multiplication and power per step letter of t's top step."""
    if not f:
        return Word(body)
    lo = t.rank - t.steps[-1].n
    word = Word.make(x for x in body if -lo <= x <= lo)
    for x in range(lo + 1, t.rank + 1):
        word = word * Word((x,)) ** (body.count(x) - body.count(-x))
    return word


def max_root_reference(t, w: Word) -> tuple[Word, int]:
    """Maximal root of a hyperbolic word of tower t, as `ice._max_root`
    found it when every syllable was a word: all of them written with
    `_syl_word`, the core their product, and the exponent vectors read
    from those words."""
    if not t.steps:
        return primitive_root(w)
    syls, conj = _pinch(t, w, cyclic=True)
    if len(syls) == 1:
        f, body = syls[0]
        if f:
            raise ValueError("root extraction expects a hyperbolic word")
        root, e = max_root_reference(t.lower(), Word(body))
        return conj * root * conj.inv(), e
    words = [_syl_word(t, *s) for s in syls]
    core = Word(reduce_ints(x for word in words for x in word.ints))
    count = len(syls)
    periods = [d for d in range(2, count, 2) if not count % d]
    vecs = [exponent_vector(word, t.rank) for word in words] if periods else []
    i = 1 if syls[0][0] else 0
    for d in periods:
        if not all([x - y for x, y in zip(vecs[j + d], vecs[j])] in t._edge_lattice for j in range(count - d)):
            continue
        a = _double_coset(t, words[i + d], words[i])
        if a is None:
            continue
        if i:
            a = words[d] * words[0].inv() * a
            if a.ints and _wp(t.lower(), a.ints):
                a = EMPTY
        root = Word(reduce_ints(x for word in words[:d] for x in word.ints)) * a
        e = count // d
        if _wp(t, (root**e * core.inv()).ints):
            return conj * root * conj.inv(), e
    return conj * core * conj.inv(), 1


# ---------------------------------------------------------------------------
# Stallings folding by its own union-find: each generator is laid down as
# a loop at the base point, clashing edges merge their endpoints, and
# non-base vertices of degree <= 1 are trimmed at the end.


def inv_slot(s: int) -> int:
    return s ^ 1


def fold_reference(rank: int, words) -> CosetTable:
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
    return CosetTable(rank, _standardize(rows), words)


def schreier_basis_reference(trans, rank: int) -> tuple[Word, ...]:
    """The Schreier basis of a Schreier graph, built at once: breadth-first
    tree words rep(v) from vertex 0, slots ascending, then
    rep(v) * s * rep(v.s)^-1 for each non-tree positive edge (v, s), by
    (slot, vertex)."""
    reps: list[Word | None] = [None] * len(trans)
    reps[0] = EMPTY
    tree = set()
    bfs = deque([0])
    while bfs:
        v = bfs.popleft()
        for s in range(2 * rank):
            d = trans[v][s]
            if d is not None and reps[d] is None:
                reps[d] = reps[v] * Word((unslot(s),))
                tree.update({(v, s), (d, inv_slot(s))})
                bfs.append(d)
    return tuple(
        reps[v] * Word((unslot(s),)) * reps[trans[v][s]].inv()
        for s in range(0, 2 * rank, 2)
        for v in range(len(trans))
        if trans[v][s] is not None and (v, s) not in tree
    )


def rewrite_in_subgroup(t: CosetTable, w: Word) -> Word | None:
    """Express w over the table's Schreier basis, or None if w moves the
    base coset.  Letter by letter, the path of w from coset 0 is the
    product of the words rep(v) * x * rep(v.x)^-1, where rep(v) is the
    breadth-first tree word of coset v; each is empty (a tree edge) or a
    basis word or its inverse."""
    if not t.is_complete():
        raise ValueError("rewriting needs a complete table")
    reps = {0: EMPTY}
    bfs = deque([0])
    while bfs:
        v = bfs.popleft()
        for s, d in enumerate(t.rows[v]):
            if d not in reps:
                reps[d] = reps[v] * Word((unslot(s),))
                bfs.append(d)
    letter = {}
    for i, b in enumerate(t.schreier.basis):
        letter[b.ints] = i + 1
        letter[b.inv().ints] = -(i + 1)
    v, out = 0, []
    for x in w.ints:
        d = t.rows[v][slot(x)]
        g = reps[v] * Word((x,)) * reps[d].inv()
        if g.ints:
            out.append(letter[g.ints])
        v = d
    return Word.make(out) if v == 0 else None


# ---------------------------------------------------------------------------
# Low-index subgroups as the package first walked them: after each choice
# every relator is re-scanned at every coset until nothing changes, and
# each choice copies the whole table so that backing out restores it.


def low_index_reference(p: Presentation, n: int):
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


# ---------------------------------------------------------------------------
# Tietze expansion and the consequence stream as they were first written:
# every single conjugate of a relator is built before any product is
# offered, every factor of a cost before any product of that cost is
# read, and presentations are deduplicated on their serializations.  The
# library emits the same streams without that up-front work.


def addable_relators_reference(q: Presentation, bound: int):
    singles = []
    for conj in words_upto(q.rank, bound - 1):
        for j in range(len(q.relators)):
            for s in (1, -1):
                r = q.relators[j] if s > 0 else q.relators[j].inv()
                singles.append((len(conj), conj * r * conj.inv()))
    for (c1, w1), (c2, w2) in itertools.product(singles, repeat=2):
        if c1 + c2 <= bound - 1:
            yield w1 * w2


def _children_reference(q: Presentation, bound: int):
    out = []
    for j in range(len(q.relators)):
        rest = Presentation(q.names, q.relators[:j] + q.relators[j + 1 :])
        target = q.relators[j]
        stream = consequence_stream_reference(rest)
        if any(w == target for w in itertools.islice(stream, _CONSEQ_CAP * bound)):
            out.append(rest)
    for g in sorted({g for _, g in _single_occurrence_pairs(q)}):
        out.append(_remove_generator(q, g)[0])
    added = 0
    for w in addable_relators_reference(q, bound):
        if added >= _CHILD_CAP * bound:
            break
        c = canonical_relator_reference(w)
        if not c.ints or c in q.relators:
            continue
        out.append(Presentation(q.names, q.relators + (c,)))
        added += 1
    name = _fresh_name(q.names)
    added = 0
    for w in words_upto(q.rank, bound):
        if added >= _CHILD_CAP * bound:
            break
        names = q.names + (name,)
        rel = Word(reduce_ints((-len(names),) + w.ints))
        out.append(Presentation(names, q.relators + (rel,)))
        added += 1
    return out


def enumerate_presentations_reference(p: Presentation):
    emitted: set[str] = set()
    node_cap = _NODE_CAP
    for bound in itertools.count(1):
        seen = {serialize(p)}
        queue = deque([(p, 0)])
        nodes = 0
        while queue and nodes < node_cap:
            q, depth = queue.popleft()
            nodes += 1
            key = serialize(q)
            if key not in emitted:
                emitted.add(key)
                yield q
            if depth >= bound:
                continue
            for child in _children_reference(q, bound):
                ck = serialize(child)
                if ck not in seen:
                    seen.add(ck)
                    queue.append((child, depth + 1))
        node_cap *= _NODE_GROWTH


def enumerate_presentations_eager(p: Presentation):
    """The package's walk as it read when it expanded a node as soon as
    it was popped, unless the queue already held every node the bound
    would pop.  Same children and dedup; only when a node is expanded
    differs."""
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
            if depth >= bound or len(seen) >= node_cap:
                continue
            for child in _children(q, bound):
                if child not in seen:
                    seen.add(child)
                    queue.append((child, depth + 1))
        node_cap *= _NODE_GROWTH


def consequence_stream_reference(p: Presentation):
    yield EMPTY
    if not p.relators:
        return
    seen: set[tuple[int, ...]] = {()}
    rotations = list(
        dict.fromkeys(
            base[k:] + base[:k]
            for r in p.relators
            for base in (r.ints, invert_ints(r.ints))
            for k in range(len(base))
        )
    )
    factor_cache: dict[int, list[tuple[int, ...]]] = {}

    def factors(cost: int):
        if cost not in factor_cache:
            fs = []
            for conj in words_of_length(p.rank, cost - 1):
                for rot in rotations:
                    fs.append(reduce_ints(conj.ints + rot + invert_ints(conj.ints)))
            factor_cache[cost] = fs
        return factor_cache[cost]

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


# ---------------------------------------------------------------------------
# The limit-group enumeration before towers with an earlier tower's
# presentation were dropped: every tower from enumerate_ice() gets pairs,
# and towers with equal presentations share one atlas.


class LimitEnumerationReference(LimitEnumeration):
    def __init__(self):
        super().__init__()
        self._atlases: dict[Presentation, SubgroupAtlas] = {}

    def _open_round(self) -> None:
        self.round += 1
        for pair in self._kept:
            pair[2] += self.ROUND_STEPS
        self._todo.extend(self._kept)
        self._kept = []
        t, p = next(self._ice)
        if p not in self._atlases:
            self._atlases[p] = SubgroupAtlas(p)
        self._towers.append((t, ice_oracle(t), self._atlases[p], _subset_stream(t.rank, [])))
        for tower, oracle, atlas, subsets in self._towers:
            for _ in range(1 if tower is t else self.S_PER_UNIT):
                search = RetractionSearch(atlas.p, next(subsets), oracle, atlas)
                self._todo.append([tower, search, self.FRESH_STEPS])


# ---------------------------------------------------------------------------
# Presenting the span of S before each subgroup kept its quotients: the
# quotient by x * rho(x)^-1 is built and simplified for every retraction,
# and rho o rho = rho is asserted through the oracle, which the library
# leaves to the search's own verification.  Returns the result with the
# kept generators over the abstract S alphabet.


def present_from_retraction_reference(s_words, found: RetractionFound, oracle):
    s_words = tuple(s_words)
    rs = found.rs
    images = found.rho_images()
    for j, w in enumerate(images):
        v = oracle(rs.embed(eval_hom(images, w) * w.inv()))
        assert v is True, f"images are not idempotent at generator {j}: {v}"
    k_pres = rs.presentation
    extra = [Word((j + 1,)).inv() * w for j, w in enumerate(images)]
    quotient = Presentation(k_pres.names, list(k_pres.relators) + extra)
    simplified, trace = tietze_simplify(quotient)
    out = Presentation(standard_names(simplified.rank), simplified.relators)
    gens_in_s = tuple(found.y_words[k] for k in trace.kept)
    gens_ambient = tuple(eval_hom(s_words, y) for y in gens_in_s)
    return SubgroupPresentationResult(out, gens_ambient, found), gens_in_s


# ---------------------------------------------------------------------------
# The witness search before the abelian pre-tests: the same candidates,
# charges and checks, with every torsion and inversion candidate put to
# the oracle.


class _TriStateChecks:
    """The witness search's premise checks as they read when it also took
    semi-decisions: None stands for an answer left undecided."""

    def _nontrivial(self, g: Word) -> bool | None:
        v = self.wp(g)
        return None if v is None else not v

    def _ct_pair(self, a: Word, b: Word) -> bool | None:
        """Whether b is nontrivial and commutes with a; None when the
        oracle leaves either undecided."""
        alive = self._nontrivial(b)
        if not alive:
            return alive
        return self.wp(commutator(a, b))

    def _ct(self, a: Word, b: Word, c: Word):
        # the caller has checked the premises on (a, b)
        if self.wp(commutator(b, c)) is not True:
            return None
        return self._ct_tail(a, b, c)


class CertifySearchReference(_TriStateChecks, CertifySearch):
    # this stream never yields a dead run: the meter charges, and counts,
    # each candidate on its own
    def _stream(self):
        rank = self.p.rank
        if rank == 0:
            yield from itertools.repeat(None)
        pools = [(EMPTY,)]
        for cost in itertools.count(2):
            self.price = cost
            yield _REPRICE
            self.max_cost = cost
            pools.append(tuple(words_of_length(rank, cost - 1)))
            for lg in range(1, cost):
                n = cost - lg + 1
                for g in pools[lg]:
                    yield self._torsion(g, n)
            for la in range(1, cost - 1):
                for lb in range(1, cost - la):
                    lc = cost - la - lb
                    for a in pools[la]:
                        for b in pools[lb]:
                            pair = None
                            for c in pools[lc]:
                                if pair is None:
                                    pair = self._ct_pair(a, b)
                                yield self._ct(a, b, c) if pair else None
            for lg in range(1, cost):
                lh = cost - lg
                for g in pools[lg]:
                    alive = None
                    for h in pools[lh]:
                        if alive is None:
                            alive = self._nontrivial(g)
                        yield self._inversion(g, h) if alive else None


# ---------------------------------------------------------------------------
# The resumable searches before they shared one meter: each runs its own
# loop and keeps its own counters, named as on the meter (`spent` for the
# retraction search's old `steps`, `found` for its `result`).  The
# retraction search keeps its old candidate stream too: every table is
# presented before S is walked through it, every candidate goes to the
# exponent-vector lattice test, with no packed pre-test, and the splits of
# each cost are sorted afresh.  The witness search keeps its old stream,
# which charged `spent` itself and announced each cost tier with _TIER.
# The two recognition branches keep their loops over the package's
# enumerations, and return (units used, hit) as they did.

_TIER = object()
_QUANTUM = 128
_EXPAND_WEIGHT = 8


class RetractionSearchLoop(RetractionSearch):
    def run(self, nsteps: int):
        if self.found is not None:
            return self.found
        for _ in range(nsteps):
            item = next(self._gen)
            self.spent += 1
            if item is not None:
                self.found = item
                return item
        return None

    def _make_branch(self, t):
        sub = self.atlas.subgroup(t)
        exprs = []
        for s in self.s_words:
            end, raw = t.schreier.walk(0, s)
            if end != 0:
                return None
            exprs.append(eval_hom(sub.rs.trace.gen_images, raw))
        return _Branch(sub, tuple(exprs))

    def _y_tuples(self, branch, total: int):
        r = branch.rank
        m = len(self.s_words)
        if r == 0:
            if total == 0:
                yield ()
            return
        if m == 0:
            if total == 0:
                yield tuple(EMPTY for _ in range(r))
            return
        # nonnegative splits of total: positive ones of total + r, less 1 each
        splits = (tuple(n - 1 for n in c) for c in compositions(total + r, r))
        for comp in sorted(splits, key=lambda c: (max(c), c)):
            pools = [self.atlas.pool(m, length) for length in comp]
            yield from itertools.product(*pools)

    def _admit(self, branch, y):
        for vec in check_vectors_reference(branch, y):
            if vec not in branch.sub.lattice:
                return None
        found = RetractionFound(branch.rs, y, branch.s_exprs, self.cost)
        for w in found.check_words():
            if w.ints and self.oracle(branch.rs.embed(w)) is not True:
                return None
        return found

    def _stream(self):
        branches = []
        while True:
            self.cost += 1
            for br in branches:
                for y in self._y_tuples(br, self.cost - br.index):
                    found = self._admit(br, y)
                    if found is not None:
                        yield found
                    yield None
            for t in self.atlas.tables(self.cost):
                br = self._make_branch(t)
                yield None
                if br is None:
                    continue
                branches.append(br)
                for y in self._y_tuples(br, 0):
                    found = self._admit(br, y)
                    if found is not None:
                        yield found
                    yield None


def check_vectors_reference(branch, y):
    """Exponent vectors of the retraction check words of Y on a branch,
    as integer combinations of the exponent rows of its S expressions."""
    rank = branch.rank
    s_rows = branch.s_rows
    rho = []
    for yj in y:
        v = [0] * rank
        for x in yj.ints:
            sign, row = (1, s_rows[x - 1]) if x > 0 else (-1, s_rows[-x - 1])
            for i in range(rank):
                v[i] += sign * row[i]
        rho.append(v)
    for row in branch.sub.lattice.rows:
        yield _combine_reference(row, rho, rank)
    for e_row in s_rows:
        v = _combine_reference(e_row, rho, rank)
        yield tuple(a - b for a, b in zip(v, e_row))


def _combine_reference(coeffs, vecs, rank: int) -> tuple[int, ...]:
    out = [0] * rank
    for c, v in zip(coeffs, vecs):
        if c:
            for i in range(rank):
                out[i] += c * v[i]
    return tuple(out)


class CertifySearchLoop(_TriStateChecks, CertifySearch):
    candidates = 0  # this loop charges, so counts, its candidates itself

    def __init__(self, p: Presentation, wp):
        self._tier = 0  # cost of the next candidate the stream charges
        super().__init__(p, wp)

    def run(self, units: int):
        if self.found is not None:
            return self.found
        stop = self.spent + units
        while self.spent + self._tier <= stop:
            w = next(self._gen)
            if w is not None and w is not _TIER:
                self.found = w
                return w
        return None

    def _stream(self):
        rank = self.p.rank
        if rank == 0:
            self._tier = 1
            yield _TIER
            while True:
                self.spent += 1
                yield None
        pools = [(EMPTY,)]
        for cost in itertools.count(2):
            self._tier = cost
            yield _TIER
            self.max_cost = cost
            pools.append(tuple(words_of_length(rank, cost - 1)))
            for lg in range(1, cost):
                n = cost - lg + 1
                for g in pools[lg]:
                    self.spent += cost
                    self.candidates += 1
                    yield self._torsion(g, n) if self._may_die(g, n) else None
            for la in range(1, cost - 1):
                for lb in range(1, cost - la):
                    lc = cost - la - lb
                    for a in pools[la]:
                        for b in pools[lb]:
                            pair = None
                            for c in pools[lc]:
                                self.spent += cost
                                self.candidates += 1
                                if pair is None:
                                    pair = self._ct_pair(a, b)
                                yield self._ct(a, b, c) if pair else None
            for lg in range(1, cost):
                lh = cost - lg
                for g in pools[lg]:
                    alive = None if self._may_die(g, 2) else False
                    for h in pools[lh]:
                        self.spent += cost
                        self.candidates += 1
                        if alive is None:
                            alive = self._nontrivial(g)
                        yield self._inversion(g, h) if alive else None


class TietzeBranchLoop:
    def __init__(self, start: Presentation):
        self._stream = enumerate_presentations(start)

    def run(self, limit):
        used = 0
        weight = _EXPAND_WEIGHT
        while used < _QUANTUM and (limit is None or used + weight <= limit):
            v = next(self._stream)
            used += weight
            if not v.relators:
                return used, v
        return used, None


class MatchBranchLoop:
    def __init__(self, target: Presentation):
        try:
            self._key = normalize_key(target)
        except NormalizeCapError:
            self._key = None
        self._ab = abelianization(target)
        # the same target-filtered stream as the branch, so the two
        # compare the meter and the expander loop, not the filters
        self.enum = LimitEnumeration(target)
        self._expanders = []
        self._seen = set()
        self._cursor = 0
        self.emissions = 0
        self.expanded = 0

    def run(self, limit):
        if self._key is None:
            return 0, None
        before = self.enum.steps
        for em in self.enum.next_round(limit):
            self.emissions += 1
            hit = self._admit(em)
            if hit is not None:
                return self.enum.steps - before, hit
        used = self.enum.steps - before
        weight = _EXPAND_WEIGHT
        while (
            used < _QUANTUM
            and self._expanders
            and (limit is None or used + weight <= limit)
        ):
            used += weight
            hit = self._advance_one()
            if hit is not None:
                return used, hit
        return used, None

    def _admit(self, em):
        pres = em.presentation
        if pres.rank <= 6 and normalize_key(pres) == self._key:
            return (em, pres)
        if abelianization(pres) == self._ab:
            if pres not in self._seen:
                self._seen.add(pres)
                gen = enumerate_presentations(pres)
                next(gen)
                self._expanders.append((em, gen))
        return None

    def _advance_one(self):
        i = self._cursor % len(self._expanders)
        self._cursor += 1
        em, gen = self._expanders[i]
        v = next(gen)
        self.expanded += 1
        if v.rank <= 6 and normalize_key(v) == self._key:
            return (em, v)
        return None
