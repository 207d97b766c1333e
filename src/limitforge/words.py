"""Words over a signed generator alphabet.

A letter is a nonzero int: +k stands for generator number k-1, -k for its
inverse. Word instances keep their letters freely reduced, and everything
downstream relies on that invariant. Generator names exist only at the
parse/print boundary.

The text grammar: identifiers match [A-Za-z][A-Za-z0-9_]*, powers are written
a^3 or a^-1, concatenation is * or whitespace, [u,v] abbreviates
u^-1 v^-1 u v, and 1 denotes the empty word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class WordSyntaxError(ValueError):
    """Malformed word text; carries the offending character position."""

    def __init__(self, message: str, pos: int = 0):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def reduce_ints(letters) -> tuple[int, ...]:
    """Freely reduce a raw letter sequence."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # both inputs reduced, so cancellation happens only at the junction
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def invert_ints(ints: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(ints))


@dataclass(frozen=True)
class Word:
    """A freely reduced word. Use Word.make for raw letter sequences."""

    ints: tuple[int, ...] = ()
    # presentation.canonical_relator keeps its result here on first use;
    # not a field, so ==, hash and repr ignore it
    _canonical = None

    @classmethod
    def make(cls, letters) -> "Word":
        return cls(reduce_ints(letters))

    def __len__(self) -> int:
        return len(self.ints)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __mul__(self, other: "Word") -> "Word":
        return Word(concat(self.ints, other.ints))

    def inv(self) -> "Word":
        return Word(invert_ints(self.ints))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self.ints if n > 0 else invert_ints(self.ints)
        return Word(reduce_ints(base * abs(n)))

    def slots(self) -> tuple[int, ...]:
        """slot() of each letter."""
        return tuple([2 * x - 2 if x > 0 else -2 * x - 1 for x in self.ints])

    def max_index(self) -> int:
        """Largest generator index used, plus one; 0 for the empty word."""
        ints = self.ints
        return max(max(ints), -min(ints)) if ints else 0


EMPTY = Word()


def slot(letter: int) -> int:
    """Column encoding: generator k-1 gets slot 2(k-1), its inverse 2(k-1)+1."""
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter) - 1


def unslot(s: int) -> int:
    return (s // 2) + 1 if s % 2 == 0 else -((s // 2) + 1)


def commutator(u: Word, v: Word) -> Word:
    """u^-1 v^-1 u v, reduced on letter tuples into one Word."""
    a, b = u.ints, v.ints
    return Word(concat(concat(concat(invert_ints(a), invert_ints(b)), a), b))


_TOKEN_RE = re.compile(r"(\s+|\*)|(\[)|(\])|(,)|(\^-?\d+)|([A-Za-z][A-Za-z0-9_]*)|(\d+)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            pass  # separators carry no content
        elif m.group(2):
            toks.append(("[", "[", pos))
        elif m.group(3):
            toks.append(("]", "]", pos))
        elif m.group(4):
            toks.append((",", ",", pos))
        elif m.group(5):
            toks.append(("pow", m.group(5)[1:], pos))
        elif m.group(6):
            toks.append(("ident", m.group(6), pos))
        else:
            toks.append(("num", m.group(7), pos))
        pos = m.end()
    return toks


def _parse_atom(toks, i, index):
    kind, val, pos = toks[i]
    if kind == "[":
        u, i = _parse_seq(toks, i + 1, index, stop={",", "]"})
        if i >= len(toks) or toks[i][0] != ",":
            raise WordSyntaxError("expected , in commutator", pos)
        v, i = _parse_seq(toks, i + 1, index, stop={"]"})
        if i >= len(toks) or toks[i][0] != "]":
            raise WordSyntaxError("unclosed commutator", pos)
        i += 1
        atom = (
            list(invert_ints(tuple(u)))
            + list(invert_ints(tuple(v)))
            + u
            + v
        )
    elif kind == "ident":
        if val not in index:
            raise WordSyntaxError(f"unknown generator {val!r}", pos)
        atom = [index[val] + 1]
        i += 1
    elif kind == "num":
        if val != "1":
            raise WordSyntaxError(f"unexpected number {val!r}", pos)
        atom = []
        i += 1
    else:
        raise WordSyntaxError(f"unexpected token {val!r}", pos)
    if i < len(toks) and toks[i][0] == "pow":
        n = int(toks[i][1])
        i += 1
        if n < 0:
            atom = list(invert_ints(tuple(atom))) * (-n)
        else:
            atom = atom * n
    return atom, i


def _parse_seq(toks, i, index, stop):
    letters: list[int] = []
    while i < len(toks) and toks[i][0] not in stop:
        atom, i = _parse_atom(toks, i, index)
        letters.extend(atom)
    return letters, i


def parse_word(text: str, names) -> Word:
    """Parse word text over the given generator names."""
    index = {n: k for k, n in enumerate(names)}
    toks = _tokenize(text)
    letters, i = _parse_seq(toks, 0, index, stop=set())
    if i != len(toks):
        raise WordSyntaxError(f"unexpected token {toks[i][1]!r}", toks[i][2])
    return Word(reduce_ints(letters))


def format_word(w: Word, names) -> str:
    """Serialize a word; round trips exactly through parse_word."""
    if not w.ints:
        return "1"
    parts = []
    run_letter = w.ints[0]
    run_len = 1
    for x in w.ints[1:]:
        if x == run_letter:
            run_len += 1
        else:
            parts.append(_fmt_run(run_letter, run_len, names))
            run_letter, run_len = x, 1
    parts.append(_fmt_run(run_letter, run_len, names))
    return "*".join(parts)


def _fmt_run(letter: int, count: int, names) -> str:
    name = names[abs(letter) - 1]
    exp = count if letter > 0 else -count
    if exp == 1:
        return name
    return f"{name}^{exp}"


def words_of_length(rank: int, length: int):
    """All freely reduced words of exactly this length, in slot-lex order."""
    if length == 0:
        yield EMPTY
        return
    if rank == 0:
        return
    letters = [unslot(s) for s in range(2 * rank)]

    def rec(prefix: list[int]):
        if len(prefix) == length:
            yield Word(tuple(prefix))
            return
        for ltr in letters:
            if prefix and prefix[-1] == -ltr:
                continue
            prefix.append(ltr)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def words_upto(rank: int, maxlen: int):
    for length in range(maxlen + 1):
        yield from words_of_length(rank, length)


def validate_word(w: Word, rank: int) -> None:
    if w.max_index() > rank:
        raise ValueError(f"word uses generator index {w.max_index()} beyond rank {rank}")
