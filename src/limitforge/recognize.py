"""Recognition procedures: is the presented group a limit group, or free?

Two semi-decisions race under a shared step budget.  The positive
branch walks the recursive enumeration of limit-group presentations,
Tietze-expanding candidates and matching the input up to renaming.
The negative branch hunts for a finite witness set whose defining
universal sentence holds over free groups, so that no homomorphism to
a free group can keep every witness element alive.  Either branch can
win; exhausting the budget yields Unknown.
"""

from __future__ import annotations

import itertools

from .abelian import exponent_vector
from .freegroup import eval_hom, standard_names
from .coset import rs_presentation
from .ice import LimitEnumeration, LimitGroupEmission, ice_oracle, presentation_of
from .oracles import WordOracle, pinched_oracle
from .presentation import (
    NormalizeCapError,
    Presentation,
    abelianization,
    enumerate_presentations,
    normalize_key,
    relator_lattice,
    tietze_simplify,
)
from .retracts import _REPRICE, Metered, RetractionFound, present_from_retraction, set_bits
from .words import (
    EMPTY,
    Value,
    Word,
    _set,
    commutator,
    concat,
    invert_ints,
    validate_word,
    words_of_length,
    words_upto,
)

_QUANTUM = 128
_CROSSCHECK_BOUND = 2


# ---------------------------------------------------------------------------
# Universal sentences and their bounded refutation


class Sentence(Value):
    """A universal sentence over free groups: whenever every equation
    word evaluates to 1, at least one inequation word must too.  The
    variables follow the rules for generator names: distinct, and each
    a letter followed by letters, digits or underscores."""

    __slots__ = ("variables", "equations", "inequations")

    def __init__(
        self,
        variables: tuple[str, ...],
        equations: tuple[Word, ...],
        inequations: tuple[Word, ...],
    ):
        variables, equations, inequations = tuple(variables), tuple(equations), tuple(inequations)
        Presentation(variables)  # raises PresentationError on a duplicate or malformed name
        for w in equations + inequations:
            validate_word(w, len(variables))
        _set(self, "variables", variables)
        _set(self, "equations", equations)
        _set(self, "inequations", inequations)


def refute_sentence(s: Sentence, bound: int, target_rank: int = 2):
    """Exhaustively try assignments of reduced words of length <= bound
    to the variables, into a free group of target_rank.

    Returns the first assignment (a Word per variable) sending every
    equation to 1 and no inequation to 1, or None when no assignment
    within the bound does.  A returned assignment disproves the
    sentence; None is only a bounded guarantee.

    Assignments are walked depth first in itertools.product order, and
    each word is checked as soon as its highest variable is bound, so a
    failed check prunes every assignment extending that prefix.  A
    check's verdict depends only on the variables its word uses, so a
    check that leaves out some earlier variable keeps, per pool-index
    tuple of the others it uses, the set of pool indices of its highest
    variable that pass it.  A check that uses every earlier variable
    meets each tuple once and keeps nothing.

    A check's word is cut at the occurrences of its highest variable.
    Its bound segments are evaluated once per set of candidates, and
    each candidate, or its inverse where the variable occurs inverted,
    is joined between them, reducing only where two pieces meet.  A
    word and its conjugates are trivial together, so the segment after
    the last cut is joined to the one before the first.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if not all(s.inequations):
        return None  # an empty inequation is trivial under every assignment
    pool = list(words_upto(target_rank, bound))
    # each pool word's letters, and its inverse's once some check word
    # has its highest variable inverted
    letters = {1: [w.ints for w in pool]}
    n = len(s.variables)
    # checks[k]: (the candidate letters at each cut, the segment after
    # each cut, must be trivial, its other variables, memo or None) for
    # the words whose highest variable is k, memoized first
    checks = [[] for _ in range(n + 1)]
    for words, trivial in ((s.equations, True), (s.inequations, False)):
        for w in words:
            k = w.max_index()
            if k == 0:
                continue  # an empty equation
            cuts = [j for j, x in enumerate(w.ints) if abs(x) == k]
            signs = [1 if w.ints[j] > 0 else -1 for j in cuts]
            if -1 in signs and -1 not in letters:
                letters[-1] = [invert_ints(x) for x in letters[1]]
            at = [letters[e] for e in signs]
            # the segment after the last cut runs round to the first cut
            ends = cuts[1:] + [len(w.ints) + cuts[0]]
            ints = w.ints + w.ints
            segs = [Word.make(ints[j + 1 : e]) for j, e in zip(cuts, ends)]
            others = tuple(sorted({abs(x) - 1 for x in w.ints} - {k - 1}))
            memo = {} if len(others) < k - 1 else None
            checks[k].append((at, segs, trivial, others, memo))
    for level in checks:
        level.sort(key=lambda check: check[4] is None)
    assign: list[Word] = []
    picked: list[int] = []  # pool index of each bound variable

    def select(check, candidates) -> list[int]:
        # the candidate pool indices for the next variable that pass check
        at, segs, trivial = check[:3]
        pieces = [(a, eval_hom(assign, seg).ints if seg else ()) for a, seg in zip(at, segs)]
        out = []
        for i in candidates:
            v = ()
            for a, seg in pieces:
                v = concat(v, a[i]) if v else a[i]
                if seg:
                    v = concat(v, seg)
            if bool(v) != trivial:
                out.append(i)
        return out

    def passing(check, candidates) -> list[int]:
        memo = check[4]
        if memo is None:
            return select(check, candidates)
        key = tuple(picked[v] for v in check[3])
        hits = memo.get(key)
        if hits is None:
            hits = memo[key] = set(select(check, range(len(pool))))
        return [i for i in candidates if i in hits]

    def walk(k: int):
        # the first k variables are bound and pass their checks
        if k == n:
            return tuple(assign)
        allowed = range(len(pool))
        for check in checks[k + 1]:
            allowed = passing(check, allowed)
        for i in allowed:
            assign.append(pool[i])
            picked.append(i)
            hit = walk(k + 1)
            if hit is not None:
                return hit
            assign.pop()
            picked.pop()
        return None

    return walk(0)


# ---------------------------------------------------------------------------
# Witnesses


class Witness(Value):
    """Finitely many wp-nontrivial elements that cannot all survive a
    homomorphism to a free group, given the presented relations.

    `data` holds the certificate backing the kind: a, b, c for
    commutation transitivity, g and the exponent n for torsion, g and
    the conjugator h for inversion.
    """

    __slots__ = ("elements", "kind", "data")

    def __init__(self, elements: tuple[Word, ...], kind: str, data: dict | None = None):
        _set(self, "elements", elements)
        _set(self, "kind", kind)
        _set(self, "data", {} if data is None else data)


def _witness_checks(w: Witness):
    """The (must-be-trivial, must-be-nontrivial) word lists for a witness."""
    kind = w.kind
    data = w.data
    if kind == "torsion":
        g, n = data["g"], data["n"]
        if n < 2:
            raise ValueError("torsion certificate needs an exponent >= 2")
        return (g**n,), (g,)
    if kind == "inversion":
        g, h = data["g"], data["h"]
        return (h * g * h.inv() * g,), (g,)
    if kind == "commutation-transitivity":
        a, b, c = data["a"], data["b"], data["c"]
        return (commutator(a, b), commutator(b, c)), (b, commutator(a, c))
    raise ValueError(f"unknown witness kind {w.kind!r}")


def witness_sentence(p: Presentation, w: Witness) -> Sentence:
    """The sentence a witness claims: the relators force some element of
    the witness set to die in every free image."""
    return Sentence(p.names, p.relators, w.elements)


def check_witness(p: Presentation, wp: WordOracle, w: Witness):
    """Re-verify a witness against the oracle.  True when the schema's
    premises are trivial and the elements nontrivial; None if the
    oracle cannot decide some check.  A premise whose exponent vector
    is outside the relator lattice is nontrivial, so its witness is
    refused before the oracle is asked."""
    triv, nontriv = _witness_checks(w)
    if {x.ints for x in w.elements} != {x.ints for x in nontriv}:
        return False
    for x in triv + nontriv:
        validate_word(x, p.rank)
    lattice = relator_lattice(p)
    if any(exponent_vector(x, p.rank) not in lattice for x in triv):
        return False
    out = True
    for x in triv:
        v = wp(x)
        if v is None:
            out = None
        elif v is not True:
            return False
    for x in nontriv:
        v = wp(x)
        if v is None:
            out = None
        elif v is not False:
            return False
    return out


def _join(p: tuple, q: tuple, r: tuple, s: tuple) -> Word:
    """The Word p*q*r*s of four reduced letter tuples, reduced only
    where two of them meet: [a, b] is _join(a^-1, b^-1, a, b)."""
    return Word(concat(concat(concat(p, q), r), s))


class CertifySearch(Metered):
    """Resumable fair hunt for a witness, asking a total oracle.

    Candidates are ordered by total certificate length and charged that
    length in budget units, so deep tiers cannot starve a competing
    branch running under the same budget.

    Torsion and inversion candidates are first tested in the
    abelianization, which maps the group onto Z^rank / L, L the span of
    the relator exponent vectors.  If g**n = 1 then n*ab(g) lies in L,
    and if h*g*h^-1*g = 1 then 2*ab(g) does, whatever h is.  A candidate
    that fails its test could never have a trivial premise under any
    correct oracle, so it is charged as usual but asks the oracle
    nothing.  The test is exact: it skips no candidate the oracle could
    accept, so every charge, run() boundary and witness is what the
    plain loops over every candidate give.

    Each tier's word pool is kept beside the letters of its words'
    inverses, so the premises [a, b] and [b, c] are joined from those
    pieces with `_join` instead of inverting two pool words per
    candidate.  The oracle is asked the same words in the same order.
    """

    def __init__(self, p: Presentation, wp: WordOracle):
        if not isinstance(wp, WordOracle) or not wp.total:
            raise ValueError("the witness search requires a total word-problem oracle")
        self.p = p
        self.wp = wp
        self._lattice = relator_lattice(p)
        # (lb, lc) -> b's index among the words of length lb -> bitmask of
        # the c of length lc for which [b, c] was trivial
        self._live: dict[tuple[int, int], dict[int, int]] = {}
        self.max_cost = 0
        super().__init__()

    @property
    def candidates(self) -> int:
        """Candidates charged so far: with no generators, none."""
        return self.items if self.p.rank else 0

    def _stream(self):
        # a tier's cost is the price of each of its candidates; with no
        # generators there is no candidate, and each item costs 1.  Where
        # the candidates ahead are known dead, by the abelianization or a
        # failed premise, their count is yielded as one dead run.
        rank = self.p.rank
        if rank == 0:
            yield from itertools.repeat(None)
        pools = [(EMPTY,)]  # pools[n]: the reduced words of length n
        # invs[n]: the letters of the inverses of pools[n], one tier late,
        # since a commutation candidate's words are at most cost - 2 long
        invs = []
        for cost in itertools.count(2):
            self.price = cost
            yield _REPRICE
            self.max_cost = cost
            pools.append(tuple(words_of_length(rank, cost - 1)))
            invs.append(tuple([invert_ints(w.ints) for w in pools[cost - 2]]))
            for lg in range(1, cost):
                n = cost - lg + 1
                runs = itertools.groupby(pools[lg], lambda g: self._may_die(g, n))
                for may_die, run in runs:
                    if may_die:
                        for g in run:
                            yield self._torsion(g, n)
                    else:
                        yield sum(1 for _ in run)
            for la in range(1, cost - 1):
                for lb in range(1, cost - la):
                    lc = cost - la - lb
                    pool, pool_inv = pools[lc], invs[lc]
                    live = self._live.setdefault((lb, lc), {})
                    for a, ai in zip(pools[la], invs[la]):
                        for ib, (b, bi) in enumerate(zip(pools[lb], invs[lb])):
                            # the premises on (a, b) do not depend on c: b
                            # must be nontrivial and commute with a
                            if self.wp(b) or not self.wp(_join(ai, bi, a.ints, b.ints)):
                                yield len(pool)
                                continue
                            # [b, c] does not depend on a: a c for which an
                            # earlier pass got False is dead for every a
                            known = live.get(ib)
                            keep = done = 0
                            for k in range(len(pool)) if known is None else set_bits(known):
                                if k > done:
                                    yield k - done
                                c = pool[k]
                                if self.wp(_join(bi, pool_inv[k], b.ints, c.ints)):
                                    keep |= 1 << k
                                    yield self._ct_tail(a, b, c)
                                else:
                                    yield None
                                done = k + 1
                            if len(pool) > done:
                                yield len(pool) - done
                            live[ib] = keep
            for lg in range(1, cost):
                pool = pools[cost - lg]
                for g in pools[lg]:
                    # h*g*h^-1*g = 1 needs 2*ab(g) in L, and g must be
                    # nontrivial: a g that fails either is a dead run
                    if not self._may_die(g, 2) or self.wp(g):
                        yield len(pool)
                        continue
                    for h in pool:
                        yield self._inversion(g, h)

    def _may_die(self, g: Word, n: int) -> bool:
        """Whether n*ab(g) lies in L, as g**n = 1 requires."""
        return [n * x for x in exponent_vector(g, self.p.rank)] in self._lattice

    def _torsion(self, g: Word, n: int):
        if self.wp(g) or not self.wp(g**n):
            return None
        return self._accept(Witness((g,), "torsion", {"g": g, "n": n}))

    def _ct_tail(self, a: Word, b: Word, c: Word):
        # the caller has checked the premises on (a, b) and that [b, c]
        # is trivial
        gac = commutator(a, c)
        if self.wp(gac):
            return None
        witness = Witness(
            (b, gac), "commutation-transitivity", {"a": a, "b": b, "c": c}
        )
        return self._accept(witness)

    def _inversion(self, g: Word, h: Word):
        # the caller has checked that g is nontrivial
        if not self.wp(_join(h.ints, g.ints, invert_ints(h.ints), g.ints)):
            return None
        return self._accept(Witness((g,), "inversion", {"g": g, "h": h}))

    def _accept(self, w: Witness) -> Witness:
        bad = refute_sentence(witness_sentence(self.p, w), _CROSSCHECK_BOUND)
        if bad is not None:
            raise RuntimeError(
                f"unsound {w.kind} witness: assignment {bad} survives the relators"
            )
        return w


# ---------------------------------------------------------------------------
# Verdicts


class Limit(Value):
    """Positive verdict: the input matches an enumerated limit-group
    presentation.  `matched` is the Tietze variant of the emission that
    equals the simplified input up to renaming, and `position` is where
    it stands in `enumerate_presentations(emission.presentation)`: 0 for
    the emission itself."""

    __slots__ = ("presentation", "matched", "emission", "report", "position")

    def __init__(
        self,
        presentation: Presentation,
        matched: Presentation,
        emission: LimitGroupEmission,
        report: dict,
        position: int = 0,
    ):
        _set(self, "presentation", presentation)
        _set(self, "matched", matched)
        _set(self, "emission", emission)
        _set(self, "report", report)
        _set(self, "position", position)

    def reverify(self) -> bool:
        """Re-check the witness chain, tied to the emission's tower and S:
        the coset table is a complete table of the tower's presentation,
        whose Reidemeister-Schreier presentation is the stored one; the
        retraction equations hold under a fresh tower oracle; each word of
        S is the element its expression embeds as; and the retraction
        presents the emission.  Then the abelianization is torsion-free,
        `matched` is the emission's Tietze variant at `position`, and it
        is a renaming of the simplified input.  A chain that fails any
        check gives False."""
        em = self.emission
        tower, found = em.tower, em.result.witness
        pres, table, rs = presentation_of(tower), found.table, found.rs
        cosets = range(table.index)
        if table.ngens != tower.rank or any(
            len(row) != 2 * table.ngens or any(e not in cosets for e in row) for row in table.rows
        ):
            return False
        if any(table.trace(c, r) != c for r in pres.relators for c in cosets):
            return False
        if rs_presentation(pres, table) != rs or found.retraction.k_pres != rs.presentation:
            return False
        wp = ice_oracle(tower)
        if found.verify(wp) is not True:
            return False
        s_exprs = found.retraction.s_exprs
        if len(em.s_words) != len(s_exprs):
            return False
        for s, e in zip(em.s_words, s_exprs):
            if s.max_index() > tower.rank or not wp(s * rs.embed(e).inv()):
                return False
        # a fresh result, so no quotient memo of the search is trusted
        fresh = RetractionFound(table, rs, found.retraction, found.cost)
        if present_from_retraction(em.s_words, fresh).presentation != em.presentation:
            return False
        if abelianization(em.presentation)[1]:
            return False
        if self.position < 0:
            return False
        variants = enumerate_presentations(em.presentation)
        if next(itertools.islice(variants, self.position, None)) != self.matched:
            return False
        target, _ = tietze_simplify(self.presentation)
        try:
            return normalize_key(self.matched) == normalize_key(target)
        except NormalizeCapError:
            return False


class NotLimit(Value):
    """Negative verdict, backed by a witness."""

    __slots__ = ("presentation", "witness", "report")

    def __init__(self, presentation: Presentation, witness: Witness, report: dict):
        _set(self, "presentation", presentation)
        _set(self, "witness", witness)
        _set(self, "report", report)

    def reverify(self, wp: WordOracle) -> bool:
        """Re-check the witness against the oracle, then look for a
        counterexample to its sentence up to the crosscheck bound.  A
        malformed witness gives False: one of unknown kind, missing a
        field of its certificate, with a torsion exponent below 2 or with
        a word beyond the rank, on which check_witness raises."""
        try:
            if check_witness(self.presentation, wp, self.witness) is not True:
                return False
        except (KeyError, ValueError):
            return False
        s = witness_sentence(self.presentation, self.witness)
        return refute_sentence(s, _CROSSCHECK_BOUND) is None


class Unknown(Value):
    """The budget ran out before either branch reached a verdict."""

    __slots__ = ("presentation", "report")

    def __init__(self, presentation: Presentation, report: dict):
        _set(self, "presentation", presentation)
        _set(self, "report", report)


class Free(Value):
    """The input Tietze-reduces to a presentation with no relators."""

    __slots__ = ("presentation", "free_presentation", "report")

    def __init__(self, presentation: Presentation, free_presentation: Presentation, report: dict):
        _set(self, "presentation", presentation)
        _set(self, "free_presentation", free_presentation)
        _set(self, "report", report)


class NotFree(Value):
    """A certificate rules freeness out; `witness` is set when the
    certificate is a recognition witness rather than an abelian one."""

    __slots__ = ("presentation", "reason", "witness", "report")

    def __init__(
        self, presentation: Presentation, reason: str, witness: Witness | None, report: dict
    ):
        _set(self, "presentation", presentation)
        _set(self, "reason", reason)
        _set(self, "witness", witness)
        _set(self, "report", report)


# ---------------------------------------------------------------------------
# The positive branch


class _Expansion(Metered):
    """Tietze expanders advanced round-robin, one node per item, each
    node charged `price` steps.  `hit(tag, node)` turns a node of the
    expander filed under `tag` into the item: a hit, or None.  `items`
    counts the nodes expanded."""

    price = 8  # one presentation-enumeration node ~ this many steps

    def __init__(self, hit):
        self.hit = hit
        self.expanders: list[tuple[object, object]] = []
        super().__init__()

    def _stream(self):
        for i in itertools.count():
            tag, gen = self.expanders[i % len(self.expanders)]
            yield self.hit(tag, next(gen))

    def run(self, limit: int | None, used: int = 0):
        """Expand while this slice has used fewer than _QUANTUM units,
        `used` of them before the call, and never past `limit` units
        (None: no limit); returns the hit or None."""
        stop = _QUANTUM + self.price - 1  # a node starts below _QUANTUM
        if limit is not None:
            stop = min(stop, limit)
        return super().run(stop - used) if self.expanders else None


class _MatchBranch:
    """Walks the limit-group enumeration hunting the target presentation.

    The enumeration is given the target, so it opens only the pairs that
    can emit it.  Every emission is checked directly for a renaming
    match; emissions whose abelianization invariants agree with the
    target also spawn a Tietze expander, and the expanders are advanced
    round-robin with the leftover allowance of each slice.
    """

    def __init__(self, target: Presentation):
        try:
            self._key = normalize_key(target)
        except NormalizeCapError:
            self._key = None
        self._ab = abelianization(target)
        self.enum = LimitEnumeration(target)
        self.expansion = _Expansion(self._match)
        self._seen: set[Presentation] = set()
        self.emissions = 0

    @property
    def matchable(self) -> bool:
        return self._key is not None

    @property
    def spent(self) -> int:
        return self.enum.steps + self.expansion.spent

    def run(self, limit: int | None):
        """One enumeration round plus expander work up to _QUANTUM, never
        past `limit` units (None: no limit); returns the hit, (emission,
        matched, its position in the emission's expansion), or None."""
        if self._key is None:
            return None
        before = self.enum.steps
        for em in self.enum.next_round(limit):
            self.emissions += 1
            hit = self._admit(em)
            if hit is not None:
                return hit
        return self.expansion.run(limit, self.enum.steps - before)

    def _match(self, em: LimitGroupEmission, node: tuple[int, Presentation]):
        k, v = node
        if v.rank <= 6 and normalize_key(v) == self._key:
            return em, v, k
        return None

    def _admit(self, em: LimitGroupEmission):
        # a repeat failed its match once and fails again: a match ends the race
        pres = em.presentation
        if pres in self._seen:
            return None
        self._seen.add(pres)
        hit = self._match(em, (0, pres))
        if hit is None and abelianization(pres) == self._ab:
            gen = enumerate(enumerate_presentations(pres))
            next(gen)  # the first yield is pres itself, checked above
            self.expansion.expanders.append((em, gen))
        return hit


def _report(budget, used: int, a: _MatchBranch | None, b: CertifySearch) -> dict:
    out = {
        "budget": budget,
        "used": used,
        "certify": {
            "spent": b.spent,
            "candidates": b.candidates,
            "max_cost": b.max_cost,
        },
    }
    if a is not None:
        out["enumeration"] = {
            "rounds": a.enum.round,
            "steps": a.enum.steps,
            "emissions": a.emissions,
            "expanders": len(a.expansion.expanders),
            "expanded": a.expansion.items,
            "matchable": a.matchable,
            "skipped_pairs": a.enum.skipped_pairs,
            "skipped_towers": a.enum.skipped_towers,
        }
    return out


# ---------------------------------------------------------------------------
# Recognition drivers


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")


def _race(a, b: CertifySearch, budget: int | None):
    """Alternate branch a and the witness search b under one step budget.

    Each round a takes a slice first; b then gets a slice as large as
    a's, and never smaller than _QUANTUM.  The budget is a hard ceiling:
    neither branch is handed more than what is left of it.  Both
    branches start unspent, and each is measured by its `spent`.
    Returns (a's hit, b's witness, steps used); both are None when the
    budget ran out.
    """
    while budget is None or a.spent + b.spent < budget:
        spent_a, spent_b = a.spent, b.spent
        hit = a.run(None if budget is None else budget - spent_a - spent_b)
        if hit is not None:
            return hit, None, a.spent + b.spent
        left = None if budget is None else budget - a.spent - spent_b
        if left == 0:
            break
        quantum = max(a.spent - spent_a, _QUANTUM)
        w = b.run(quantum if left is None else min(quantum, left))
        if w is not None:
            return None, w, a.spent + b.spent
        if (a.spent, b.spent) == (spent_a, spent_b):
            break  # neither branch has a step that fits in what is left
    return None, None, a.spent + b.spent


def recognize_limit(p: Presentation, wp: WordOracle, budget: int | None = 10**7):
    """Decide whether p presents a limit group, within a step budget.

    The enumeration branch and the witness branch race under _race.  A
    match in the enumeration yields Limit with its construction chain;
    a witness yields NotLimit.  budget=None runs until one branch
    halts, which on a group that is neither enumerable-early nor
    witnessed never happens.
    """
    _check_budget(budget)
    b = CertifySearch(p, wp)
    target, _ = tietze_simplify(p)
    a = _MatchBranch(target)
    hit, w, used = _race(a, b, budget)
    report = _report(budget, used, a, b)
    if hit is not None:
        em, matched, position = hit
        return Limit(p, matched, em, report, position)
    if w is not None:
        return NotLimit(p, w, report)
    return Unknown(p, report)


def recognize_free(p: Presentation, wp: WordOracle, budget: int | None = 10**6):
    """Decide whether p presents a free group, desk scale.

    Instant certificates first: relator-free after simplification means
    Free; torsion in the abelianization, or commuting generators with
    abelianization rank at least 2, mean NotFree.  Otherwise a hunt for
    a relator-free Tietze variant races the witness search.
    """
    _check_budget(budget)
    b = CertifySearch(p, wp)
    simplified, _ = tietze_simplify(p)
    if not simplified.relators:
        report = {"budget": budget, "used": 0, "certificate": "tietze"}
        return Free(p, simplified, report)
    ab_rank, torsion = abelianization(p)
    if torsion:
        report = {"budget": budget, "used": 0, "certificate": "abelianization"}
        return NotFree(p, "torsion in abelianization", None, report)
    if ab_rank >= 2 and _generators_commute(p, wp):
        report = {"budget": budget, "used": 0, "certificate": "abelian"}
        return NotFree(p, "abelian and noncyclic", None, report)
    # the Tietze expansion of the input, hunting a relator-free variant
    a = _Expansion(lambda _, v: None if v.relators else v)
    a.expanders.append((None, enumerate_presentations(simplified)))
    free, w, used = _race(a, b, budget)
    if free is not None:
        report = {"budget": budget, "used": used, "certificate": "tietze"}
        return Free(p, free, report)
    if w is not None:
        return NotFree(p, f"witness: {w.kind}", w, _report(budget, used, None, b))
    return Unknown(p, _report(budget, used, None, b))


def _generators_commute(p: Presentation, wp: WordOracle) -> bool:
    for i in range(1, p.rank + 1):
        for j in range(i + 1, p.rank + 1):
            if wp(commutator(Word((i,)), Word((j,)))) is not True:
                return False
    return True


def recognize_cyclically_pinched(
    rank1: int,
    rank2: int,
    u: Word,
    v: Word,
    budget: int | None = 10**7,
):
    """Recognition for an amalgam of two free groups over cyclic
    subgroups generated by u and v.

    Builds the one-relator presentation gluing u to v, equips it with
    the built-in amalgam oracle, and runs recognize_limit.
    """
    if rank1 < 1 or rank2 < 1:
        raise ValueError("both free factors need positive rank")
    validate_word(u, rank1)
    validate_word(v, rank2)
    if not u.ints or not v.ints:
        raise ValueError("edge words must be nontrivial")
    names = standard_names(rank1 + rank2)
    shifted = Word(tuple(x + rank1 if x > 0 else x - rank1 for x in v.ints))
    p = Presentation(names, (u * shifted.inv(),))
    wp = pinched_oracle(rank1, rank2, u, shifted)
    return recognize_limit(p, wp, budget)
