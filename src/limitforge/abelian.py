"""Integer matrix normal forms: Smith form, linear systems, abelianization."""

from __future__ import annotations

from functools import cached_property

from .words import Word


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows, ncols: int | None = None):
    """Return (D, U, V) with U * A * V = D diagonal, d1 | d2 | ..., di >= 0.

    A is given as a list of rows. All matrices are lists of lists of ints.
    """
    A = [list(r) for r in rows]
    m = len(A)
    if ncols is None:
        if m == 0:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(A[0])
    n = ncols
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def diagonalize():
        t = 0
        while t < min(m, n):
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    v = A[i][j]
                    if v != 0 and (pivot is None or abs(v) < abs(A[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            if A[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j] != 0:
                        dirty = True
            if not dirty:
                t += 1

    diagonalize()
    # enforce the divisibility chain; each fix shrinks a diagonal gcd
    while True:
        bad = None
        for i in range(min(m, n) - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a != 0 and b != 0 and b % a != 0:
                bad = i
                break
        if bad is None:
            break
        add_col(bad, bad + 1, 1)
        diagonalize()
    return A, U, V


def matvec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def _diagonal_solve(diag, c):
    """y with d * y_j = c_j for each entry c_j of c and the diagonal
    entry d of a Smith form in its row (0 past the diagonal), or None;
    a zero d allows only c_j = 0, and then y_j = 0."""
    y = []
    for j, cj in enumerate(c):
        d = diag[j] if j < len(diag) else 0
        if d:
            q, rest = divmod(cj, d)
            if rest:
                return None
        elif cj:
            return None
        else:
            q = 0
        y.append(q)
    return y


def solve(rows, b, ncols: int | None = None):
    """Solve A x = b over the integers.

    Returns (particular solution, kernel basis vectors) or None if infeasible.
    """
    m = len(rows)
    if ncols is None:
        if m == 0:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    n = ncols
    if m == 0:
        return [0] * n, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    D, U, V = smith_normal_form(rows, n)
    k = min(m, n)
    diag = [D[j][j] for j in range(k)]
    y = _diagonal_solve(diag, matvec(U, list(b)))
    if y is None:
        return None
    # y's entries past the diagonal are 0; x has n entries
    x0 = matvec(V, (y + [0] * n)[:n])
    free = [j for j in range(k) if not diag[j]] + list(range(k, n))
    kernel = []
    for j in free:
        kernel.append([V[i][j] for i in range(n)])
    return x0, kernel


class Lattice:
    """The integer span of `rows`, vectors of length n, with a memoized
    membership test: `vec in lattice`."""

    def __init__(self, rows, n: int):
        self.rows = list(rows)
        self._n = n
        self._memo: dict[tuple[int, ...], bool] = {}

    @cached_property
    def _smith(self) -> tuple[list[int], list[list[int]]]:
        # v is in the span when cols * x = v has an integer solution x;
        # the Smith form of cols is computed once, not once per vector
        cols = [[row[i] for row in self.rows] for i in range(self._n)]
        D, U, _ = smith_normal_form(cols, len(self.rows))
        return [D[i][i] for i in range(min(self._n, len(self.rows)))], U

    @cached_property
    def zero_rows(self) -> list[list[int]]:
        """Rows u with u . v = 0 for every v in the lattice, one per Smith
        lane whose entry is 0 or lies past the diagonal.

        A vector v is in the lattice only if u . v = 0 for each of them;
        the lanes with entries of 2 or more are left to `in`.
        """
        if not self.rows:
            return _identity(self._n)
        diag, U = self._smith
        return [U[i] for i in range(self._n) if i >= len(diag) or not diag[i]]

    def __contains__(self, vec) -> bool:
        key = tuple(vec)
        got = self._memo.get(key)
        if got is None:
            if not self.rows:
                got = not any(key)
            else:
                diag, U = self._smith
                got = _diagonal_solve(diag, matvec(U, key)) is not None
            self._memo[key] = got
        return got


def exponent_vector(w: Word, ngens: int) -> list[int]:
    v = [0] * ngens
    for x in w.ints:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def abelian_invariants(ngens: int, relators) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant torsion factors) of the abelianized group."""
    rows = [exponent_vector(r, ngens) for r in relators]
    if not rows:
        return ngens, ()
    D, _, _ = smith_normal_form(rows, ngens)
    diag = [D[i][i] for i in range(min(len(rows), ngens))]
    nonzero = [d for d in diag if d != 0]
    rank = ngens - len(nonzero)
    torsion = tuple(d for d in nonzero if d != 1)
    return rank, torsion
