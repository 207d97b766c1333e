"""Free groups: cyclic reduction, primitive roots, powers, homomorphisms,
and normal forms in an amalgam of two groups given by words."""

from __future__ import annotations

from .words import Word, concat, invert_ints, reduce_ints

_STANDARD = "abcdefghijklmnopqrs"


def standard_names(rank: int) -> tuple[str, ...]:
    """Default generator names: a, b, ..., s, then x19, x20, ..."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return tuple(_STANDARD[:rank]) + tuple(f"x{i}" for i in range(len(_STANDARD), rank))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = c * core * c^-1 with core cyclically reduced.

    Returns (core, c).
    """
    ints = w.ints
    i, j = 0, len(ints)
    while j - i >= 2 and ints[i] == -ints[j - 1]:
        i += 1
        j -= 1
    return Word(ints[i:j]), Word(ints[:i])


def primitive_root(w: Word) -> tuple[Word, int]:
    """Return (r, n) with w = r^n, n maximal. Identity maps to (identity, 0)."""
    core, c = cyclic_reduce(w)
    m = len(core)
    if m == 0:
        return Word(), 0
    for d in range(1, m + 1):
        if m % d != 0:
            continue
        piece = core.ints[:d]
        if piece * (m // d) == core.ints:
            # the tile concatenates with itself without cancellation, so
            # conjugating it back gives an honest root of w
            root = Word(reduce_ints(c.ints + piece + invert_ints(c.ints)))
            return root, m // d
    raise AssertionError("unreachable: d = m always tiles")


def is_power_of(w: Word, r: Word) -> int | None:
    """Exponent e with w = r^e, or None. Requires r nontrivial."""
    if not r:
        return 0 if not w else None
    if not w:
        return 0
    # r = c core c^-1 with core cyclically reduced, so |r^e| = |e||core| + 2|c|
    # for e != 0 and only one |e| can match the length of w
    core, c = cyclic_reduce(r)
    e, rest = divmod(len(w) - 2 * len(c), len(core))
    if e < 1 or rest:
        return None
    for sign in (1, -1):
        if r ** (sign * e) == w:
            return sign * e
    return None


def eval_hom(images, w: Word) -> Word:
    """Apply the substitution generator -> images[k] to w."""
    out: list[int] = []
    for x in w.ints:
        k = abs(x) - 1
        if k >= len(images):
            raise ValueError(f"word uses generator index {k} beyond the image list")
        img = images[k].ints if x > 0 else invert_ints(images[k].ints)
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return Word(tuple(out))


# ---------------------------------------------------------------------------
# Normal forms in an amalgam A *_C B
#
# A syllable is a pair (factor, body): factor 0 for a run of letters x with
# |x| <= bound, 1 beyond, and body a reduced letter tuple; syllables of one
# factor multiply with `concat`.  The engine's edge(f, body) returns None
# for a syllable outside C, else the same element as a body of factor 1-f.
# Factor 1 is tested as each syllable forms, so that a tower step syllable
# whose step letters cancel falls back before its neighbours are tested;
# factor 0 only once the syllable is final.


def amalgam_push(stack: list, f: int, body: tuple[int, ...], edge) -> None:
    """Put a syllable on an alternating stack: it multiplies into a top of
    its own factor, an empty product drops out, and a factor-1 product in
    C moves into factor 0."""
    while True:
        if stack and stack[-1][0] == f:
            body = concat(stack.pop()[1], body)
        if not body:
            return
        if not f or (moved := edge(1, body)) is None:
            stack.append((f, body))
            return
        f, body = 0, moved


def amalgam_close(stack: list, edge) -> None:
    """A factor-0 top in C joins the factor-1 syllable below it, which is
    outside C, so their product is too."""
    if len(stack) >= 2 and not stack[-1][0] and (moved := edge(0, stack[-1][1])) is not None:
        stack.pop()
        stack[-1] = (1, concat(stack[-1][1], moved))


def amalgam_reduce(ints: tuple[int, ...], bound: int, edge) -> list:
    """Alternating normal form of the reduced word ints as (factor, body)
    syllables, none in C unless it is alone: empty exactly when ints is
    trivial.  Pass 1 cuts ints into one-factor runs by slices, so a word of
    one factor is a syllable over ints itself, and merges them on a stack,
    so every cancellation happens before a factor-0 syllable is tested.
    Pass 2 tests each factor-0 syllable once a factor-1 syllable follows
    it, or the word ends; one in C moves into factor 1 and merges with its
    neighbours there.  Syllables before the first such one stay put."""
    merged: list = []
    i, end = 0, len(ints)
    while i < end:
        j = i
        if -bound <= ints[i] <= bound:
            while j < end and -bound <= ints[j] <= bound:
                j += 1
            f, body = 0, ints[i:j]
        else:
            while j < end and not -bound <= ints[j] <= bound:
                j += 1
            f, body = 1, ints[i:j]
            if (moved := edge(1, body)) is not None:
                f, body = 0, moved
        i = j
        if merged and merged[-1][0] == f or not body:
            amalgam_push(merged, f, body, edge)
        else:
            merged.append((f, body))
    if len(merged) < 2:
        return merged
    for k, (f, body) in enumerate(merged):
        if not f and edge(0, body) is not None:
            break
    else:
        return merged
    out = merged[:k]
    for s in merged[k:]:
        if out and s[0] and not out[-1][0] and (moved := edge(0, out[-1][1])) is not None:
            out.pop()
            s = (1, concat(moved, s[1]))
        if out and out[-1][0] == s[0]:
            amalgam_push(out, *s, edge)
        else:
            out.append(s)
    amalgam_close(out, edge)
    return out


__all__ = [
    "standard_names",
    "cyclic_reduce",
    "primitive_root",
    "is_power_of",
    "eval_hom",
    "amalgam_reduce",
    "amalgam_push",
    "amalgam_close",
]
