"""Word-problem oracles: exact engines, subprocess protocol, dovetail fallback.

An oracle answers trivial/nontrivial for words over a fixed presentation's
alphabet. Exact engines are total; the dovetail oracle is a budgeted
semi-decision (None = unknown) pairing consequence enumeration against
finite-quotient actions.
"""

from __future__ import annotations

import itertools
import os
import time

from .abelian import exponent_vector
from .coset import Overflow, subgroups_of_index, todd_coxeter
from .freegroup import amalgam_reduce, cyclic_reduce
from .presentation import Presentation, canonical_relator, consequence_stream, relator_lattice
from .words import Word, commutator, format_word, invert_ints

__all__ = [
    "WordOracle",
    "OracleProtocolError",
    "oracle_from",
    "free_oracle",
    "free_abelian_oracle",
    "finite_oracle",
    "klein_oracle",
    "product_oracle",
    "auto_oracle",
    "dovetail_oracle",
    "subprocess_oracle",
    "pinched_oracle",
]


class OracleProtocolError(RuntimeError):
    pass


class WordOracle:
    """Memoizing word-problem decision. Calls return True/False, or None
    for "unknown" when the oracle is a budgeted semi-decision."""

    def __init__(self, fn, total: bool, name: str):
        self.fn = fn
        self.total = total
        self.name = name
        self._memo: dict[tuple[int, ...], bool] = {}

    def __call__(self, w: Word):
        got = self._memo.get(w.ints)
        if got is not None:
            return got
        v = self.fn(w)
        if v is not None:
            self._memo[w.ints] = v
        return v

    def __repr__(self):
        return f"WordOracle({self.name}, total={self.total})"


def free_oracle(p: Presentation) -> WordOracle:
    if p.relators:
        raise ValueError("free oracle needs a relator-free presentation")
    return WordOracle(lambda w: len(w.ints) == 0, True, "free")


def _is_standard_abelian(p: Presentation) -> bool:
    want = {
        canonical_relator(commutator(Word((i + 1,)), Word((j + 1,)))).ints
        for i in range(p.rank)
        for j in range(i + 1, p.rank)
    }
    return {r.ints for r in p.relators} == want


def free_abelian_oracle(p: Presentation) -> WordOracle:
    if not _is_standard_abelian(p):
        raise ValueError("not the standard free-abelian presentation")
    rank = p.rank
    return WordOracle(lambda w: not any(exponent_vector(w, rank)), True, "abelian")


def finite_oracle(p: Presentation, max_cosets: int = 100000) -> WordOracle:
    try:
        t = todd_coxeter(p, (), max_cosets=max_cosets)
    except Overflow:
        raise ValueError(f"group not confirmed finite within {max_cosets} cosets") from None
    return WordOracle(lambda w: t.trace(0, w) == 0, True, f"finite:{t.index}")


def _klein_roles(p: Presentation):
    """(fiber, base) generator indices if p is the twisted Z-by-Z surface
    presentation, else None."""
    if p.rank != 2 or len(p.relators) != 1:
        return None
    r = p.relators[0]
    for fiber, base in ((0, 1), (1, 0)):
        pattern = Word((base + 1, fiber + 1, -(base + 1), fiber + 1))
        if r == canonical_relator(pattern):
            return fiber, base
    return None


def klein_oracle(p: Presentation) -> WordOracle:
    roles = _klein_roles(p)
    if roles is None:
        raise ValueError("not a Klein-bottle presentation")
    fiber, base = roles

    def fn(w: Word) -> bool:
        s = t = 0
        for x in w.ints:
            e = 1 if x > 0 else -1
            if abs(x) - 1 == fiber:
                s += e if t % 2 == 0 else -e
            else:
                t += e
        return s == 0 and t == 0

    return WordOracle(fn, True, "klein")


def _as_commutator_pair(r: Word):
    x = r.ints
    if len(x) == 4 and x[0] > 0 and x[1] > 0 and x[2] == -x[0] and x[3] == -x[1]:
        return x[0] - 1, x[1] - 1
    return None


def _product_split(p: Presentation):
    """Direct-product decomposition, or None.

    Generators that lack a pairwise commutation relator are forced into one
    factor, as is the support of every non-commutator relator.
    """
    comm_pairs = set()
    others = []
    for r in p.relators:
        pair = _as_commutator_pair(r)
        if pair is not None:
            comm_pairs.add(pair)
        else:
            others.append(r)
    parent = list(range(p.rank))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        i, j = find(i), find(j)
        if i != j:
            parent[max(i, j)] = min(i, j)

    for i in range(p.rank):
        for j in range(i + 1, p.rank):
            if (i, j) not in comm_pairs:
                union(i, j)
    for r in others:
        support = sorted({abs(x) - 1 for x in r.ints})
        for g in support[1:]:
            union(support[0], g)
    comps: dict[int, list[int]] = {}
    for g in range(p.rank):
        comps.setdefault(find(g), []).append(g)
    if len(comps) < 2:
        return None
    factors = []
    for root in sorted(comps):
        gens = comps[root]
        renum = {g: k + 1 for k, g in enumerate(gens)}
        rels = []
        for r in p.relators:
            support = {abs(x) - 1 for x in r.ints}
            if support <= set(gens):
                rels.append(
                    Word(
                        tuple(
                            renum[abs(x) - 1] * (1 if x > 0 else -1)
                            for x in r.ints
                        )
                    )
                )
        factors.append(
            (tuple(gens), Presentation(tuple(p.names[g] for g in gens), rels))
        )
    return factors


def product_oracle(p: Presentation) -> WordOracle:
    factors = _product_split(p)
    if factors is None:
        raise ValueError("no direct-product decomposition found")
    parts = []
    for gens, fp in factors:
        renum = {g: k + 1 for k, g in enumerate(gens)}
        sub = auto_oracle(fp)
        parts.append((set(gens), renum, sub))

    def fn(w: Word) -> bool:
        for gens, renum, sub in parts:
            proj = Word.make(
                renum[abs(x) - 1] * (1 if x > 0 else -1)
                for x in w.ints
                if abs(x) - 1 in gens
            )
            if not sub(proj):
                return False
        return True

    name = "product(" + ",".join(s.name for _, _, s in parts) + ")"
    return WordOracle(fn, True, name)


def auto_oracle(p: Presentation) -> WordOracle:
    """First exact engine that applies: free, free abelian, Klein, direct
    product, finite. Raises when none does."""
    if not p.relators:
        return free_oracle(p)
    if _is_standard_abelian(p):
        return free_abelian_oracle(p)
    if _klein_roles(p) is not None:
        return klein_oracle(p)
    if _product_split(p) is not None:
        return product_oracle(p)
    try:
        return finite_oracle(p, max_cosets=50_000)
    except ValueError:
        raise ValueError(
            "no built-in exact engine applies; use dovetail or cmd:"
        ) from None


# ---------------------------------------------------------------------------
# Cyclically pinched one-relator groups (free amalgam over a cyclic subgroup)


def pinched_oracle(rank1: int, rank2: int, u: Word, v: Word) -> WordOracle:
    """Total engine for < F(rank1) * F(rank2) | u = v >.

    u lives over the first block, v over the second (as letters of the
    combined alphabet, shifted by rank1); both must be nontrivial.
    """
    if not u.ints or not v.ints:
        raise ValueError("pinched relator halves must be nontrivial")
    if u.max_index() > rank1:
        raise ValueError("u must use only the first generator block")
    if any(abs(x) <= rank1 for x in v.ints) or v.max_index() > rank1 + rank2:
        raise ValueError("v must use only the second generator block")
    # a side is c * core * c^-1 with core cyclically reduced, so its e-th
    # power is c, e copies of core (or of core^-1 for -e), then c^-1, as
    # letter tuples with no cancellation
    splits = []
    for side in (u, v):
        core, c = cyclic_reduce(side)
        splits.append((c.ints, (core.ints, invert_ints(core.ints)), invert_ints(c.ints)))

    def edge(f: int, body: tuple[int, ...]):
        c, cores, c_inv = splits[f]
        n, m = len(body), len(c)
        e, rest = divmod(n - 2 * m, len(cores[0]))
        if e < 1 or rest or body[:m] != c or body[n - m :] != c_inv:
            return None
        middle = body[m : n - m]
        for sign, core in enumerate(cores):
            if middle == core * e:
                c, cores, c_inv = splits[1 - f]
                return c + cores[sign] * e + c_inv
        return None

    # w is reduced; the free factors embed, so a lone syllable is nontrivial
    return WordOracle(lambda w: not amalgam_reduce(w.ints, rank1, edge), True, "pinched")


def _detect_pinched(p: Presentation):
    """Split a one-relator presentation as <A * B | u = v> if possible.

    Returns (rank1, u, v) with v over the shifted second block.
    """
    if len(p.relators) != 1 or p.rank < 2:
        return None
    r = p.relators[0]
    for rank1 in range(1, p.rank):
        for seq in (r.ints, invert_ints(r.ints)):
            for k in range(len(seq)):
                rot = seq[k:] + seq[:k]
                # look for rot = u * w with u over block A, w over block B
                split = None
                for pos in range(1, len(rot)):
                    if all(abs(x) <= rank1 for x in rot[:pos]) and all(
                        abs(x) > rank1 for x in rot[pos:]
                    ):
                        split = pos
                        break
                if split is not None:
                    u = Word(rot[:split])
                    v = Word(invert_ints(rot[split:]))
                    return rank1, u, v
    return None


# ---------------------------------------------------------------------------
# Dovetailed semi-decision


class _Dovetail:
    """Consequence enumeration against finite-quotient actions.

    Each pull costs one unit: a consequence, a table of the current
    index, or opening the next index once the current one is used up,
    so the empty indexes of a finite group cannot spin.  Every
    consequence lies in the relator lattice, so a word off it is
    nontrivial in the abelianization and is answered with no pull."""

    def __init__(self, p: Presentation, budget: int):
        self.p = p
        self.budget = budget
        self.conseq = consequence_stream(p)
        self.lattice = relator_lattice(p)
        self.trivial_seen: set[tuple[int, ...]] = set()
        self.tables: list = []
        self.table_walk = self._table_walk()

    def _table_walk(self):
        """The tables of index 1, 2, ... in turn, with None each time
        an index is used up."""
        for n in itertools.count(1):
            yield from subgroups_of_index(self.p, n)
            yield None

    @staticmethod
    def _acts_nontrivially(t, w: Word) -> bool:
        return any(t.trace(c, w) != c for c in range(t.index))

    def query(self, w: Word):
        if w.ints in self.trivial_seen:
            return True
        if exponent_vector(w, self.p.rank) not in self.lattice:
            return False
        if any(self._acts_nontrivially(t, w) for t in self.tables):
            return False
        spent = 0
        while spent < self.budget:
            c = next(self.conseq, None)
            spent += 1
            if c is not None:
                self.trivial_seen.add(c.ints)
                if c == w:
                    return True
            t = next(self.table_walk)
            spent += 1
            if t is not None:
                self.tables.append(t)
                if self._acts_nontrivially(t, w):
                    return False
        return None


# units of work the dovetail oracle gets per query when no budget is given
DOVETAIL_QUERY_CAP = 10**6


def dovetail_oracle(p: Presentation, budget: int = DOVETAIL_QUERY_CAP) -> WordOracle:
    engine = _Dovetail(p, budget)
    return WordOracle(engine.query, False, f"dovetail:{budget}")


# ---------------------------------------------------------------------------
# External subprocess protocol


# seconds an external oracle gets to answer one query before it counts
# as hung and is terminated
QUERY_TIMEOUT_S = 10.0


class _Subprocess:
    """An external oracle process: one word per line in, one line with 1
    (trivial) or 0 (nontrivial) out.  A query that gets no reply within
    QUERY_TIMEOUT_S, a reply that is neither, or a child that exits ends
    the child and raises OracleProtocolError.  The child's stderr is
    discarded, and it is terminated and reaped on close(), on leaving a
    with block, or at interpreter exit.  The process modules are imported
    only here, so a run with no external oracle never loads them."""

    def __init__(self, path: str, names):
        self.path = path
        self.names = names
        self.proc = None
        self._pending = b""

    def _ensure(self):
        if self.proc is None:
            import atexit
            import subprocess

            try:
                self.proc = subprocess.Popen(
                    [self.path],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    bufsize=0,
                )
            except OSError as e:
                raise OracleProtocolError(f"cannot start oracle: {e}") from e
            os.set_blocking(self.proc.stdin.fileno(), False)
            atexit.register(self.close)

    @staticmethod
    def _wait(fd: int, write: bool, deadline: float) -> None:
        import select

        fds = ([], [fd]) if write else ([fd], [])
        if not any(select.select(*fds, [], max(deadline - time.monotonic(), 0))):
            raise OracleProtocolError(
                f"oracle gave no reply within {QUERY_TIMEOUT_S:g} s"
            )

    def _query(self, line: bytes) -> bytes:
        deadline = time.monotonic() + QUERY_TIMEOUT_S
        fd_in, fd_out = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        while line:
            self._wait(fd_in, True, deadline)
            try:
                line = line[os.write(fd_in, line) :]
            except BlockingIOError:
                pass
        while b"\n" not in self._pending:
            self._wait(fd_out, False, deadline)
            chunk = os.read(fd_out, 4096)
            if not chunk:
                raise OracleProtocolError("oracle exited without a reply")
            self._pending += chunk
        reply, _, self._pending = self._pending.partition(b"\n")
        return reply

    def __call__(self, w: Word) -> bool:
        self._ensure()
        try:
            reply = self._query((format_word(w, self.names) + "\n").encode())
        except OSError as e:
            self.close()
            raise OracleProtocolError(f"oracle pipe failed: {e}") from e
        except OracleProtocolError:
            self.close()
            raise
        if reply.strip() in (b"0", b"1"):
            return reply.strip() == b"1"
        self.close()
        raise OracleProtocolError(f"bad oracle reply {reply.decode(errors='replace')!r}")

    def close(self) -> None:
        """Terminate the child, if one is running, and reap it."""
        proc, self.proc = self.proc, None
        self._pending = b""
        if proc is None:
            return
        import atexit
        import subprocess

        atexit.unregister(self.close)
        proc.stdin.close()
        proc.stdout.close()
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=1)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def subprocess_oracle(path: str, p: Presentation) -> WordOracle:
    return WordOracle(_Subprocess(path, p.names), True, f"cmd:{path}")


# ---------------------------------------------------------------------------
# Strategy dispatch


def oracle_from(
    p: Presentation,
    strategy: str = "builtin:auto",
    *,
    tower=None,
) -> WordOracle:
    """Build a word oracle for p from a named strategy.

    Strategies: builtin:free, builtin:abelian, builtin:finite, builtin:klein,
    builtin:product, builtin:pinched, builtin:ice (needs tower=),
    builtin:auto, dovetail, cmd:<path>.
    """
    if strategy.startswith("cmd:"):
        return subprocess_oracle(strategy[4:], p)
    if strategy == "dovetail":
        return dovetail_oracle(p)
    if not strategy.startswith("builtin:"):
        raise ValueError(f"unknown oracle strategy {strategy!r}")
    kind = strategy[8:]
    if kind == "free":
        return free_oracle(p)
    if kind == "abelian":
        return free_abelian_oracle(p)
    if kind == "finite":
        return finite_oracle(p)
    if kind == "klein":
        return klein_oracle(p)
    if kind == "product":
        return product_oracle(p)
    if kind == "auto":
        return auto_oracle(p)
    if kind == "pinched":
        found = _detect_pinched(p)
        if found is None:
            raise ValueError("presentation is not visibly cyclically pinched")
        rank1, u, v = found
        return pinched_oracle(rank1, p.rank - rank1, u, v)
    if kind == "ice":
        if tower is None:
            raise ValueError("builtin:ice needs a tower")
        from .ice import ice_oracle, presentation_of

        q = presentation_of(tower)
        if q.relators != p.relators or q.rank != p.rank:
            raise ValueError("presentation does not match the tower")
        return ice_oracle(tower)
    raise ValueError(f"unknown oracle strategy {strategy!r}")
