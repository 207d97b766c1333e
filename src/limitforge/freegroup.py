"""Free groups: cyclic reduction, primitive roots, powers, homomorphisms."""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, invert_ints, reduce_ints, validate_word

_STANDARD = "abcdefghijklmnopqrs"


@dataclass(frozen=True)
class FreeGroup:
    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator name")

    @property
    def rank(self) -> int:
        return len(self.names)

    @classmethod
    def standard(cls, rank: int) -> "FreeGroup":
        if rank <= len(_STANDARD):
            return cls(tuple(_STANDARD[:rank]))
        return cls(tuple(_STANDARD) + tuple(f"x{i}" for i in range(len(_STANDARD), rank)))


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


__all__ = [
    "FreeGroup",
    "cyclic_reduce",
    "primitive_root",
    "is_power_of",
    "eval_hom",
    "validate_word",
]
