"""Frozen inputs and ground truth for the three workloads.

Nothing here imports limitforge: verdicts, witnesses and towers are kept
as plain data so that a change to the program cannot change what it is
checked against.  Words are lists of signed ints (+k is generator k, -k
its inverse), the letter convention of `limitforge.words.Word`.
"""

from __future__ import annotations

import random

G2 = "< a, b, c, d | [a,b]*[c,d]^-1 >"
T1 = {"base_rank": 2, "steps": [{"g": "a", "n": 1}]}

# recognize_limit on the nine `limitforge corpus` inputs.  `accepted` is the
# ground truth: genus two is a limit group, so Unknown (out of budget) or
# Limit is right and NotLimit is wrong.
LIMIT_CORPUS = [
    {"name": "F1", "kind": "recognize", "pres": "< a | >", "oracle": "builtin:free",
     "budget": 10**7, "accepted": ["Limit"]},
    {"name": "F2", "kind": "recognize", "pres": "< a, b | >", "oracle": "builtin:free",
     "budget": 10**7, "accepted": ["Limit"]},
    {"name": "Z2", "kind": "recognize", "pres": "< a, b | [a,b] >",
     "oracle": "builtin:abelian", "budget": 10**7, "accepted": ["Limit"]},
    {"name": "Z3", "kind": "recognize", "pres": "< a, b, c | [a,b], [a,c], [b,c] >",
     "oracle": "builtin:abelian", "budget": 10**7, "accepted": ["Limit"]},
    {"name": "tower1", "kind": "recognize", "pres": "< a, b, t | [a,t] >",
     "oracle": "builtin:ice", "tower": T1, "budget": 10**7, "accepted": ["Limit"]},
    {"name": "order2", "kind": "recognize", "pres": "< a | a^2 >",
     "oracle": "builtin:finite", "budget": 10**7, "accepted": ["NotLimit"]},
    {"name": "F2xZ", "kind": "recognize", "pres": "< a, b, z | [a,z], [b,z] >",
     "oracle": "builtin:product", "budget": 10**7, "accepted": ["NotLimit"]},
    {"name": "klein", "kind": "recognize", "pres": "< a, b | b*a*b^-1*a >",
     "oracle": "builtin:klein", "budget": 10**7, "accepted": ["NotLimit"]},
    {"name": "genus2", "kind": "pinched", "pres": G2, "u": "[a,b]", "v": "[a,b]",
     "budget": 10**5, "accepted": ["Unknown", "Limit"]},
]

# NotLimit witnesses of the three negative corpus inputs, as recognize_limit
# returns them; each must survive refutation at bound 3.
WITNESSES = {
    "order2": ("< a | a^2 >", "torsion", {"g": "a", "n": 2}),
    "F2xZ": ("< a, b, z | [a,z], [b,z] >", "commutation-transitivity",
             {"a": "a", "b": "z", "c": "b"}),
    "klein": ("< a, b | b*a*b^-1*a >", "inversion", {"g": "a", "h": "b"}),
}

# The negative-side engines, with no retraction search.  The genus-two
# budget of recognize_free lies past its first expensive Tietze-expansion
# restart (about 3000 steps).  Genus two is not free and has no witness.
WITNESS_RACE = [
    {"name": "certify-genus2", "kind": "certify", "pres": G2,
     "oracle": "builtin:pinched", "budget": 10**6, "accepted": ["None"]},
] + [
    {"name": f"refute-{name}", "kind": "refute", "pres": pres, "witness": [kind, data],
     "bound": 3, "accepted": ["None"]}
    for name, (pres, kind, data) in WITNESSES.items()
] + [
    {"name": "free-genus2", "kind": "free", "pres": G2, "oracle": "builtin:pinched",
     "budget": 3500, "accepted": ["Unknown", "NotFree"]},
    {"name": "free-F2xZ", "kind": "free", "pres": "< a, b, z | [a,z], [b,z] >",
     "oracle": "builtin:product", "budget": 3500, "accepted": ["NotFree"]},
]

# The first 30 towers of `enumerate_ice` plus a height-three tower, with
# their generator names, relators and steps (g as a word over the tower
# below the step, and the rank n of the adjoined abelian factor).
TOWERS = [
    {"tower": {"base_rank": 1, "steps": []}, "names": ["a"], "relators": [], "steps": []},
    {"tower": {"base_rank": 2, "steps": []}, "names": ["a", "b"], "relators": [], "steps": []},
    {"tower": {"base_rank": 1, "steps": [{"g": "a", "n": 1}]}, "names": ["a", "t"], "relators": [[1, 2, -1, -2]], "steps": [[[1], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-1", "n": 1}]}, "names": ["a", "t"], "relators": [[1, 2, -1, -2]], "steps": [[[-1], 1]]},
    {"tower": {"base_rank": 3, "steps": []}, "names": ["a", "b", "c"], "relators": [], "steps": []},
    {"tower": {"base_rank": 1, "steps": [{"g": "a", "n": 2}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[1], 2]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-1", "n": 2}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[-1], 2]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^2", "n": 1}]}, "names": ["a", "t"], "relators": [[1, 2, -1, -2]], "steps": [[[1, 1], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-2", "n": 1}]}, "names": ["a", "t"], "relators": [[1, 2, -1, -2]], "steps": [[[-1, -1], 1]]},
    {"tower": {"base_rank": 2, "steps": [{"g": "a", "n": 1}]}, "names": ["a", "b", "t"], "relators": [[1, 3, -1, -3]], "steps": [[[1], 1]]},
    {"tower": {"base_rank": 2, "steps": [{"g": "a^-1", "n": 1}]}, "names": ["a", "b", "t"], "relators": [[1, 3, -1, -3]], "steps": [[[-1], 1]]},
    {"tower": {"base_rank": 2, "steps": [{"g": "b", "n": 1}]}, "names": ["a", "b", "t"], "relators": [[2, 3, -2, -3]], "steps": [[[2], 1]]},
    {"tower": {"base_rank": 2, "steps": [{"g": "b^-1", "n": 1}]}, "names": ["a", "b", "t"], "relators": [[2, 3, -2, -3]], "steps": [[[-2], 1]]},
    {"tower": {"base_rank": 4, "steps": []}, "names": ["a", "b", "c", "d"], "relators": [], "steps": []},
    {"tower": {"base_rank": 1, "steps": [{"g": "a", "n": 1}, {"g": "a", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[1], 1], [[1], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a", "n": 1}, {"g": "a^-1", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[1], 1], [[-1], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a", "n": 1}, {"g": "t", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[1], 1], [[2], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a", "n": 1}, {"g": "t^-1", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[1], 1], [[-2], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-1", "n": 1}, {"g": "a", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[-1], 1], [[1], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-1", "n": 1}, {"g": "a^-1", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[-1], 1], [[-1], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-1", "n": 1}, {"g": "t", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[-1], 1], [[2], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-1", "n": 1}, {"g": "t^-1", "n": 1}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[-1], 1], [[-2], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a", "n": 3}]}, "names": ["a", "t", "u", "v"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [1, 4, -1, -4], [2, 3, -2, -3], [2, 4, -2, -4], [3, 4, -3, -4]], "steps": [[[1], 3]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-1", "n": 3}]}, "names": ["a", "t", "u", "v"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [1, 4, -1, -4], [2, 3, -2, -3], [2, 4, -2, -4], [3, 4, -3, -4]], "steps": [[[-1], 3]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^2", "n": 2}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[1, 1], 2]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-2", "n": 2}]}, "names": ["a", "t", "u"], "relators": [[1, 2, -1, -2], [1, 3, -1, -3], [2, 3, -2, -3]], "steps": [[[-1, -1], 2]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^3", "n": 1}]}, "names": ["a", "t"], "relators": [[1, 2, -1, -2]], "steps": [[[1, 1, 1], 1]]},
    {"tower": {"base_rank": 1, "steps": [{"g": "a^-3", "n": 1}]}, "names": ["a", "t"], "relators": [[1, 2, -1, -2]], "steps": [[[-1, -1, -1], 1]]},
    {"tower": {"base_rank": 2, "steps": [{"g": "a", "n": 2}]}, "names": ["a", "b", "t", "u"], "relators": [[1, 3, -1, -3], [1, 4, -1, -4], [3, 4, -3, -4]], "steps": [[[1], 2]]},
    {"tower": {"base_rank": 2, "steps": [{"g": "a^-1", "n": 2}]}, "names": ["a", "b", "t", "u"], "relators": [[1, 3, -1, -3], [1, 4, -1, -4], [3, 4, -3, -4]], "steps": [[[-1], 2]]},
    {"tower": {"base_rank": 2, "steps": [{"g": "a", "n": 1}, {"g": "b*t", "n": 1}, {"g": "a^-1*b^-1*a*b", "n": 1}]}, "names": ["a", "b", "t", "u", "v"], "relators": [[1, 3, -1, -3], [2, 3, 4, -3, -2, -4], [1, 2, 5, -2, -1, 2, 1, -5, -1, -2]], "steps": [[[1], 1], [[2, 3], 1], [[-1, -2, 1, 2], 1]]},
]
# tower-wp inputs: name -> (tower indices, number of words).  Half the words
# are random reduced words of length 8-40, half products of conjugates of
# relators, which are trivial by construction.
TOWER_INPUTS = {
    "wp-prefix30": (list(range(30)), 1200),
    "wp-height3": ([30], 2400),
}


def reduce(ints):
    out = []
    for x in ints:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def invert(ints):
    return [-x for x in reversed(ints)]


def random_word(rng, rank, length):
    letters = [i for i in range(-rank, rank + 1) if i]
    out = []
    while len(out) < length:
        x = rng.choice(letters)
        if not out or out[-1] != -x:
            out.append(x)
    return out


def trivial_word(rng, tower):
    """A product of conjugates of relators, freely reduced, length 8-40."""
    rank = len(tower["names"])
    while True:
        w = []
        while len(w) < 8:
            c = random_word(rng, rank, rng.randint(0, 4))
            r = rng.choice(tower["relators"])
            if rng.random() < 0.5:
                r = invert(r)
            w = reduce(w + c + r + invert(c))
        if len(w) <= 40:
            return w


def specialize(tower, word, m):
    """Image of word in the base free group when each letter of a step is
    sent to g^m, g that step's centralized word.  This is a homomorphism,
    so a nontrivial image proves the word nontrivial in the tower."""
    base = tower["tower"]["base_rank"]
    images = [[k] for k in range(1, base + 1)]
    for g, n in tower["steps"]:
        gi = reduce([y for x in g for y in (images[x - 1] if x > 0 else invert(images[-x - 1]))])
        images += [reduce(gi * m) if m > 0 else reduce(invert(gi) * -m)] * n
    out = []
    for x in word:
        out.extend(images[x - 1] if x > 0 else invert(images[-x - 1]))
    return reduce(out)


SPECIALIZATIONS = (1, -1, 2)


def known_nontrivial(tower, word) -> bool:
    return any(specialize(tower, word, m) for m in SPECIALIZATIONS)


def commutator(u, v):
    return reduce(invert(u) + invert(v) + u + v)


def top_free(i, word) -> bool:
    """Does the word avoid the letters of its tower's top step?"""
    steps = TOWERS[i]["steps"]
    if not steps:
        return False
    return all(abs(x) <= len(TOWERS[i]["names"]) - steps[-1][1] for x in word)


def _draw(rng, towers):
    i = rng.choice(towers)
    return i, random_word(rng, len(TOWERS[i]["names"]), rng.randint(8, 40))


def random_words(rng, towers, count):
    """(tower index, word) pairs drawn uniformly, stratified on top_free.

    A word that avoids the top step's letters costs the tower layer about
    20 times the median word (it falls through to the residual conjugator
    search), and only about 2% of words on the height-three tower do.  Left
    to chance, their number swings the batch cost by 17% between seeds, so
    each batch gets the expected share of them (estimated from 20000 draws
    with a fixed seed), and within each stratum words stay uniform.
    """
    probe = random.Random(0)
    share = sum(top_free(*_draw(probe, towers)) for _ in range(20000)) / 20000
    quota = round(share * count)
    free, rest = [], []
    while len(free) < quota or len(rest) < count - quota:
        i, w = _draw(rng, towers)
        (free if top_free(i, w) else rest).append((i, w))
    return free[:quota] + rest[: count - quota]


def tower_words(rng, towers, count):
    """(tower index, word, built trivial) triples, half of each kind."""
    with_relators = [i for i in towers if TOWERS[i]["relators"]]
    out = [(i, w, False) for i, w in random_words(rng, towers, count // 2)]
    for _ in range(count // 2):
        i = rng.choice(with_relators)
        out.append((i, trivial_word(rng, TOWERS[i]), True))
    rng.shuffle(out)
    return out


def inputs(workload: str, seed: int) -> list[dict]:
    """The inputs of one pass, in the seeded order they run in."""
    rng = random.Random(seed)
    if workload == "limit-corpus":
        out = [dict(c) for c in LIMIT_CORPUS]
    elif workload == "witness-race":
        out = [dict(c) for c in WITNESS_RACE]
    elif workload == "tower-wp":
        out = []
        for name, (towers, count) in TOWER_INPUTS.items():
            words = tower_words(rng, towers, count)
            out.append({
                "name": name,
                "kind": "towers",
                "towers": {str(i): TOWERS[i]["tower"] for i in towers},
                "words": [[i, w] for i, w, _ in words],
                "trivial": [t for _, _, t in words],
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out
