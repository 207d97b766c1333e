"""Word-problem oracles: exact engines, dispatch, the subprocess protocol."""

import itertools
import os
import random
import stat

import pytest
from hypothesis import given, settings, strategies as st

from limitforge import oracles
from limitforge.freegroup import eval_hom
from limitforge.ice import ice_oracle, tower_from_json, wp_ice
from limitforge.oracles import (
    OracleProtocolError,
    auto_oracle,
    dovetail_oracle,
    finite_oracle,
    free_abelian_oracle,
    free_oracle,
    klein_oracle,
    oracle_from,
    pinched_oracle,
    product_oracle,
    subprocess_oracle,
)
from limitforge.presentation import parse
from limitforge.words import Word, commutator, words_upto

from oracles import (
    FINITE_CORPUS,
    conjugate,
    perm_eval,
    pinched_reference,
    random_reduced_word,
)


def w(text, p):
    return p.word(text)


def test_free_oracle():
    p = parse("< a, b | >")
    wp = free_oracle(p)
    assert wp.total
    assert wp(Word(())) is True
    assert wp(Word.make((1, -1))) is True
    assert wp(Word((1, 2))) is False
    with pytest.raises(ValueError):
        free_oracle(parse("< a | a^2 >"))


def test_abelian_oracle():
    p = parse("< a, b | [a,b] >")
    wp = free_abelian_oracle(p)
    assert wp(w("[a,b]", p)) is True
    assert wp(w("a*b*a^-1", p)) is False
    assert wp(w("b^-1*a*b*a^-1", p)) is True


def test_finite_oracle_matches_permutation_closure():
    # triviality in a finite group == acting trivially in its regular action;
    # cross checked against the explicit permutation images
    label, text, perms = FINITE_CORPUS[3]
    p = parse(text)
    wp = finite_oracle(p)
    deg = len(perms[0])
    ident = tuple(range(deg))
    for cand in itertools.islice(words_upto(p.rank, 4), 200):
        image_trivial = perm_eval(cand.ints, perms) == ident
        if wp(cand):
            assert image_trivial
    # the permutation action here is faithful, so the converse holds too
    for cand in itertools.islice(words_upto(p.rank, 3), 80):
        if perm_eval(cand.ints, perms) == ident:
            assert wp(cand) is True


def test_klein_oracle():
    p = parse("< a, b | b*a*b^-1*a >")
    wp = klein_oracle(p)
    assert wp(w("b*a*b^-1*a", p)) is True
    assert wp(w("a^2", p)) is False
    assert wp(w("[a,b]", p)) is False
    assert wp(w("b^-1*a*b*a", p)) is True


def test_product_oracle():
    p = parse("< a, b, z | [a,z], [b,z] >")
    wp = product_oracle(p)
    assert wp(w("[a,z]", p)) is True
    assert wp(w("[a,b]", p)) is False
    assert wp(w("z*a*z^-1*a^-1*b*b^-1", p)) is True
    assert wp(w("z^3", p)) is False


def test_pinched_oracle_trivialities():
    # F2 *_{a = c} F2, both factors rank 2
    u = Word((1,))
    v = Word((3,))
    wp = pinched_oracle(2, 2, u, v)
    assert wp(Word((1, -3))) is True
    assert wp(Word((1, 2))) is False
    assert wp(Word((3, -1))) is True
    # a conjugated relator whose pinch empties a middle syllable, so the
    # outer syllables must then cancel against each other
    genus2 = pinched_oracle(
        2, 2, commutator(Word((1,)), Word((2,))), commutator(Word((3,)), Word((4,)))
    )
    assert genus2(Word((1, 3, -1, -2, 1, 2, -4, -3, 4, -1))) is True
    assert genus2(Word((1, 3, -1, -2, 1, 2, -4, -3, 4))) is False
    with pytest.raises(ValueError):
        pinched_oracle(2, 2, u, Word((1,)))
    # letter 7 lies beyond the rank1 + rank2 = 4 letters of the amalgam
    with pytest.raises(ValueError):
        pinched_oracle(2, 2, commutator(Word((1,)), Word((2,))), Word((7,)))
    # sides with a conjugating prefix: u = a^2 [a,b] a^-2 has cyclic core
    # b^-1 a b a^-1 (4 letters, 6 in u), v = d c^3 d^-1 has core c^3
    a, b, c, d = (Word((k,)) for k in (1, 2, 3, 4))
    u = conjugate(commutator(a, b), a * a)
    v = conjugate(c**3, d)
    assert len(u) == 6 and len(v) == 5
    conj = pinched_oracle(2, 2, u, v)
    assert conj(u * v.inv()) is True
    assert conj(u**2 * v**-2) is True
    # a syllable exactly as long as its side, after a syllable of the
    # other block
    assert conj(c * u * v.inv() * c.inv()) is True
    assert conj(c * u.inv() * c.inv() * v) is False
    # the cores themselves are not powers of the sides
    core = commutator(a, b)
    assert conj(c * core * c.inv() * core.inv()) is False
    assert conj(a * c**3 * a.inv() * v.inv()) is False
    for x in (c * core * c.inv(), c * u * c.inv() * v.inv(), a * c**3 * a.inv()):
        assert conj(x) is pinched_reference(2, u, v, x)


# (rank1, rank2, u, v): genus two, an amalgam of F2 and F2 over
# a^2 = (c d)^3, whose edge words are proper powers, and one over
# a^2 [a,b] a^-2 = d c^3 d^-1, whose edge words have conjugating prefixes
PINCHED = (
    (2, 2, commutator(Word((1,)), Word((2,))), commutator(Word((3,)), Word((4,)))),
    (2, 2, Word((1, 1)), Word((3, 4, 3, 4, 3, 4))),
    (
        2,
        2,
        conjugate(commutator(Word((1,)), Word((2,))), Word((1, 1))),
        conjugate(Word((3, 3, 3)), Word((4,))),
    ),
)
pinched_parts = st.lists(
    st.one_of(
        st.lists(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0), max_size=5),
        st.tuples(st.integers(min_value=-3, max_value=3), st.booleans()),
    ),
    max_size=6,
)


@settings(derandomize=True, max_examples=200)
@given(pinched_parts)
def test_pinched_oracle_matches_reference(parts):
    for rank1, rank2, u, v in PINCHED:
        # mix free letters with powers u^k and v^-k that pinch
        acc = Word(())
        for part in parts:
            if isinstance(part, list):
                acc = acc * Word.make(part)
            else:
                k, left = part
                acc = acc * (u ** k if left else v ** -k)
        fn = pinched_oracle(rank1, rank2, u, v).fn
        assert fn(acc) == pinched_reference(rank1, u, v, acc)
        assert fn(acc * u * v.inv() * acc.inv()) is True


def test_pinched_engine_agrees_with_the_tower_engine():
    """The genus-two double < a, b, c, d | [a,b] = [c,d] > embeds in the
    tower < a, b, t | [[a,b], t] > by c -> t a t^-1, d -> t b t^-1, so the
    pinched engine on a word and the tower engine on its image agree.
    Half the words are products of conjugates of the relator, a third of
    those with one letter spliced in, so both answers are common."""
    g2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")
    pinched = oracle_from(g2, "builtin:pinched")
    tower = tower_from_json({"base_rank": 2, "steps": [{"g": "[a,b]", "n": 1}]})
    a, b, t = Word((1,)), Word((2,)), Word((3,))
    images = (a, b, conjugate(a, t), conjugate(b, t))
    rng = random.Random(20261018)
    relator = g2.relators[0]
    cases = []
    for i in range(600):
        word = random_reduced_word(rng, 4, rng.randint(1, 14))
        if i % 2:
            word = Word(())
            for _ in range(rng.randint(1, 3)):
                c = random_reduced_word(rng, 4, rng.randint(0, 5))
                word = word * conjugate(relator ** rng.choice((1, -1)), c)
            if i % 3 == 0:
                # splice a letter in, which usually makes it nontrivial
                k = rng.randint(0, len(word))
                word = Word.make(word.ints[:k] + (rng.choice((1, -1, 2, -2, 3, 4)),) + word.ints[k:])
        cases.append(word)
    answers = [pinched(word) for word in cases]
    for word, answer in zip(cases, answers):
        assert answer is wp_ice(tower, eval_hom(images, word)), word
    assert 3 * answers.count(True) >= len(cases)
    assert answers.count(False) >= len(cases) // 3


def test_ice_oracle_agrees_with_tower():
    t = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
    wp = ice_oracle(t)
    assert wp(Word((-1, -3, 1, 3))) is True
    assert wp(Word((-2, -3, 2, 3))) is False
    assert wp.total


def test_memoization_counts_one_call():
    calls = []
    p = parse("< a, b | >")
    inner = free_oracle(p)

    def counting(word):
        calls.append(word)
        return inner(word)

    from limitforge.oracles import WordOracle

    wp = WordOracle(counting, True, "counting")
    u = Word((1, 2))
    assert wp(u) is False
    assert wp(u) is False
    assert len(calls) == 1


def test_dovetail_oracle_semidecides():
    p = parse("< a, b | [a,b] >")
    wp = dovetail_oracle(p, budget=20000)
    assert not wp.total
    assert wp(w("[a,b]", p)) is True
    assert wp(w("b*[a,b]*b^-1", p)) is True
    # commutator with a fresh conjugate is nontrivial in Z^2? no: everything
    # with zero exponent sums dies; a*b has nonzero sums and is caught fast
    assert wp(w("a*b", p)) is False


@pytest.mark.parametrize("n, k", [(4, 2), (6, 3), (8, 4)])
def test_dovetail_oracle_answers_off_lattice_words_at_once(n, k):
    """a^k is off the relator lattice of < a | a^n >, so it is nontrivial
    in the abelianization, and two units (one consequence and the
    index-1 table) are enough to answer it.  Without the lattice test,
    a^4 in < a | a^8 > waited more than 15 s for the index-8 tables.
    The relator itself is on the lattice and is not refused."""
    wp = dovetail_oracle(parse(f"< a | a^{n} >"), budget=2)
    assert wp(Word((1,) * k)) is False
    assert wp(Word((1,) * n)) is None


def test_dovetail_oracle_refutes_by_a_finite_quotient():
    """[a, b] is on F2's relator lattice and no consequence reaches it,
    so the walk refutes it with the first table it acts on, of index 3.
    A later query that the same table refutes is answered from the
    tables already pulled, with no new pull."""
    f2 = parse("< a, b | >")
    wp = dovetail_oracle(f2, 1000)
    engine = wp.fn.__self__
    assert wp(w("[a,b]", f2)) is False
    *earlier, last = engine.tables
    assert last.index == 3
    assert all(t.trace(c, w("[a,b]", f2)) == c for t in earlier for c in range(t.index))
    pulled = len(engine.tables)
    assert wp(w("[b,a]", f2)) is False
    assert len(engine.tables) == pulled


def test_auto_oracle_dispatch():
    assert auto_oracle(parse("< a, b | >")).total
    assert auto_oracle(parse("< a | a^2 >")).total
    with pytest.raises(ValueError):
        auto_oracle(parse("< a, b, c | c^-1*a*b >"))


def test_oracle_from_strategies():
    p = parse("< a, b | [a,b] >")
    assert oracle_from(p, "builtin:abelian").total
    assert oracle_from(p, "dovetail").total is False
    with pytest.raises(ValueError):
        oracle_from(p, "builtin:ice")
    with pytest.raises(ValueError):
        oracle_from(p, "nonsense")
    t = tower_from_json({"base_rank": 2, "steps": [{"g": "a", "n": 1}]})
    with pytest.raises(ValueError):
        oracle_from(p, "builtin:ice", tower=t)  # presentation mismatch


def test_subprocess_protocol(tmp_path):
    script = tmp_path / "zero_sum_oracle"
    script.write_text(
        "#!/usr/bin/env python3\n"
        "import sys, re\n"
        "for line in sys.stdin:\n"
        "    text = line.strip()\n"
        "    sums = {'a': 0, 'b': 0}\n"
        "    if text != '1':\n"
        "        for m in re.finditer(r'([ab])(\\^(-?\\d+))?', text):\n"
        "            sums[m.group(1)] += int(m.group(3) or 1)\n"
        "    print(1 if sums['a'] == 0 and sums['b'] == 0 else 0, flush=True)\n"
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    p = parse("< a, b | [a,b] >")
    wp = subprocess_oracle(str(script), p)
    assert wp(Word(())) is True
    assert wp(Word((1, 2, -1, -2))) is True
    assert wp(Word((1,))) is False
    with wp.fn as child:
        proc = child.proc
        assert proc.poll() is None
    # leaving the block terminates and reaps the child; the next query
    # starts a fresh one
    assert proc.returncode is not None and child.proc is None
    assert wp(Word((2,))) is False
    child.close()


def test_subprocess_bad_reply_raises(tmp_path):
    script = tmp_path / "babbler"
    script.write_text("#!/bin/sh\nwhile read x; do echo maybe; done\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    p = parse("< a, b | >")
    wp = subprocess_oracle(str(script), p)
    with pytest.raises(OracleProtocolError):
        wp(Word((1,)))


def test_subprocess_missing_binary(tmp_path):
    p = parse("< a, b | >")
    wp = subprocess_oracle(str(tmp_path / "absent"), p)
    with pytest.raises(OracleProtocolError):
        wp(Word((1,)))


def test_subprocess_hang_times_out_and_reaps(tmp_path, monkeypatch):
    monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 0.5)
    script = tmp_path / "silent"
    script.write_text("#!/bin/sh\nexec sleep 60\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    child = oracles._Subprocess(str(script), ("a",))
    with pytest.raises(OracleProtocolError, match="no reply"):
        child(Word((1,)))
    assert child.proc is None
