"""Recognition: bounded refutation, witness schemas, the two verdict engines."""

import collections
import hashlib
import itertools
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.abelian import Lattice, exponent_vector
from limitforge.cli import CORPUS, corpus_verdict
from limitforge.coset import CosetTable, RSResult
from limitforge.ice import LimitGroupEmission, ice_oracle, tower_from_json
from limitforge.oracles import (
    WordOracle,
    dovetail_oracle,
    finite_oracle,
    free_abelian_oracle,
    free_oracle,
    klein_oracle,
    oracle_from,
    product_oracle,
)
from limitforge.presentation import (
    abelianization,
    enumerate_presentations,
    parse,
    serialize,
    tietze_simplify,
)
from limitforge.recognize import (
    _QUANTUM,
    CertifySearch,
    Free,
    Limit,
    NotFree,
    NotLimit,
    Sentence,
    Unknown,
    Witness,
    _Expansion,
    _join,
    _MatchBranch,
    check_witness,
    recognize_cyclically_pinched,
    recognize_free,
    recognize_limit,
    refute_sentence,
    witness_sentence,
)
from limitforge.retracts import _REPRICE, RetractionFound
from limitforge.words import Word, commutator, words_upto

from oracles import (
    CertifySearchLoop,
    CertifySearchReference,
    MatchBranchLoop,
    TietzeBranchLoop,
    conjugate,
    random_reduced_word,
    refute_sentence_reference,
)

F2 = parse("< a, b | >")
Z2 = parse("< a, b | [a,b] >")
TORSION = parse("< a | a^2 >")
PRODUCT = parse("< a, b, z | [a,z], [b,z] >")
KLEIN = parse("< a, b | b*a*b^-1*a >")


def W(*ints):
    return Word.make(ints)


# --- sentences and refutation ---------------------------------------------


def test_refute_finds_commuting_pair():
    s = Sentence(("x", "y"), (commutator(W(1), W(2)),), (W(1), W(2)))
    hit = refute_sentence(s, 2)
    assert hit == (W(1), W(1))


def test_refute_none_for_valid_sentence():
    # squares are never trivial on nontrivial elements of a free group
    s = Sentence(("x",), (W(1, 1),), (W(1),))
    assert refute_sentence(s, 3) is None


def test_refute_respects_bound():
    # the only counterexamples need length 2 assignments
    s = Sentence(("x",), (), (W(1, 1, 1, 1),))
    assert refute_sentence(s, 0) is None


def _sentence_words(n: int):
    """Words over the first k of n variables, k drawn first, so that
    variable-free words and words in early variables are common."""
    return st.integers(min_value=0, max_value=n).flatmap(
        lambda k: st.lists(
            st.integers(min_value=-k, max_value=k).filter(lambda x: x != 0),
            max_size=4 if k else 0,
        )
    ).map(Word.make)


sentences = st.integers(min_value=0, max_value=3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(_sentence_words(n), max_size=3),
        st.lists(_sentence_words(n), max_size=3),
    )
)


@settings(derandomize=True, max_examples=150)
@given(sentences, st.integers(min_value=0, max_value=2))
def test_refute_matches_brute_force(parts, bound):
    n, equations, inequations = parts
    s = Sentence(("x", "y", "z")[:n], equations, inequations)
    assert refute_sentence(s, bound) == refute_sentence_reference(s, bound)


# Words whose highest variable (y = 2 or z = 3) occurs two or three times
# with both signs, so refute_sentence cuts them there; the bound segments
# before, between and after the cuts are empty in some and not in others.
CUT_WORDS = [
    (1, 2, 1, -2),  # x y x y^-1: x before and between, nothing after
    (2, 1, -2, -1),  # y x y^-1 x^-1: nothing before, x^-1 after
    (-1, 2, 1, -2),  # x^-1 y x y^-1: x^-1 before, nothing after
    (2, 2, 1, -2),  # y y x y^-1: nothing between the first two cuts
    (1, -2, 1, 1, 2, -1),  # x y^-1 x x y x^-1: a segment everywhere
    (3, 2, -3, -3, 2),  # z y z^-1 z^-1 y: leaves out x, so memoized
    (1, 3, 2, -3, -1, 3),  # x z y z^-1 x^-1 z: nothing after
    (1, 3, 2, -3, 2),  # x z y z^-1 y: different letters before and after
    (3, 1, 2, -3, -2, -1, 3),  # z x y z^-1 y^-1 x^-1 z: two-letter segments
]


@pytest.mark.parametrize("ints", CUT_WORDS)
@pytest.mark.parametrize("bound", [1, 2])
def test_refute_cut_words_match_brute_force(ints, bound):
    w = Word(ints)
    top = W(w.max_index())
    names = ("x", "y", "z")
    for equations, inequations in (
        ((w,), ()),
        ((), (w,)),
        ((w,), (top,)),
        ((w, commutator(W(1), top)), (top, w * w)),
    ):
        s = Sentence(names, equations, inequations)
        assert refute_sentence(s, bound) == refute_sentence_reference(s, bound)


@pytest.mark.parametrize("name", ["order two", "product with center", "klein bottle"])
def test_refute_corpus_witness_sentences_match_brute_force(name):
    v, _ = _corpus_verdict(name)
    s = witness_sentence(v.presentation, v.witness)
    assert refute_sentence(s, 2) is None
    assert refute_sentence_reference(s, 2) is None


def test_sentence_validates_variables():
    with pytest.raises(ValueError):
        Sentence(("x",), (W(2),), ())


@pytest.mark.parametrize("variables", [("x", "x"), ("x", "2y"), ("",), ("x y",)])
def test_sentence_rejects_duplicate_or_malformed_variables(variables):
    with pytest.raises(ValueError):
        Sentence(variables, (), (W(1),))


# --- witness schemas --------------------------------------------------------


def test_torsion_witness_checks():
    wp = finite_oracle(TORSION)
    w = Witness((W(1),), "torsion", {"g": W(1), "n": 2})
    assert check_witness(TORSION, wp, w) is True
    # wrong element set
    bad = Witness((W(1, 1),), "torsion", {"g": W(1), "n": 2})
    assert check_witness(TORSION, wp, bad) is False


def test_check_witness_refuses_premises_the_abelianization_rules_out():
    """In Z^2, a^2 and b*a*b^-1*a have exponent vectors outside the
    relator lattice {0}, so they are nontrivial whatever an oracle says;
    a lying oracle that calls them trivial is not believed."""
    lying = WordOracle(lambda w: w.ints in {(1, 1), (2, 1, -2, 1)}, True, "lying")
    torsion = Witness((W(1),), "torsion", {"g": W(1), "n": 2})
    inversion = Witness((W(1),), "inversion", {"g": W(1), "h": W(2)})
    for w in (torsion, inversion):
        assert check_witness(F2, lying, w) is False
        assert check_witness(Z2, lying, w) is False
    # the lattice of < a | a^2 > holds 2*ab(a), so there the oracle decides
    assert check_witness(TORSION, lying, torsion) is True


def test_torsion_witness_needs_real_exponent():
    w = Witness((W(1),), "torsion", {"g": W(1), "n": 1})
    with pytest.raises(ValueError):
        check_witness(TORSION, finite_oracle(TORSION), w)


def test_inversion_witness_on_klein():
    wp = klein_oracle(KLEIN)
    w = Witness((W(1),), "inversion", {"g": W(1), "h": W(2)})
    assert check_witness(KLEIN, wp, w) is True


def test_ct_witness_on_product():
    wp = product_oracle(PRODUCT)
    a, b, c = W(1), W(3), W(2)
    w = Witness((b, commutator(a, c)), "commutation-transitivity", {"a": a, "b": b, "c": c})
    assert check_witness(PRODUCT, wp, w) is True
    # premises fail in a free group, so the same data is no witness there
    wrong = check_witness(parse("< a, b, z | >"), free_oracle(parse("< a, b, z | >")), w)
    assert wrong is False


def test_witness_sentence_shape():
    w = Witness((W(1),), "torsion", {"g": W(1), "n": 2})
    s = witness_sentence(TORSION, w)
    assert s.variables == TORSION.names
    assert s.equations == TORSION.relators
    assert s.inequations == (W(1),)
    # sound witnesses survive bounded refutation
    assert refute_sentence(s, 2) is None


# --- certificate search -----------------------------------------------------


def test_join_builds_commutators_and_inversion_premises():
    """For every pair of reduced words of length <= 3 over two letters,
    the empty word included, _join gives [a, b] and h*g*h^-1*g."""
    pool = list(words_upto(2, 3))
    for a, b in itertools.product(pool, repeat=2):
        assert _join(a.inv().ints, b.inv().ints, a.ints, b.ints) == commutator(a, b)
        assert _join(a.ints, b.ints, a.inv().ints, b.ints) == a * b * a.inv() * b


def test_certify_torsion():
    wp = finite_oracle(TORSION)
    w = CertifySearch(TORSION, wp).run(10**6)
    assert w is not None
    assert w.kind == "torsion"
    assert w.data["n"] == 2
    assert check_witness(TORSION, wp, w) is True


def test_certify_ct_on_product():
    wp = product_oracle(PRODUCT)
    w = CertifySearch(PRODUCT, wp).run(10**6)
    assert w is not None
    assert w.kind == "commutation-transitivity"
    assert check_witness(PRODUCT, wp, w) is True


def test_certify_inversion_on_klein():
    wp = klein_oracle(KLEIN)
    w = CertifySearch(KLEIN, wp).run(10**6)
    assert w is not None
    assert w.kind == "inversion"
    assert w.data["h"] == W(2)


def test_abelian_premises_are_sound():
    """Abelianization is a homomorphism onto Z^rank / L, so whenever an
    oracle says g**n = 1, n*ab(g) lies in the relator lattice L, and
    whenever it says h*g*h^-1*g = 1, 2*ab(g) does.  The seeded words
    include relator conjugates, so that some premises hold."""
    s3 = parse("< a, b | a^3, b^2, a*b*a*b >")
    cases = [
        (Z2, free_abelian_oracle(Z2)),
        (KLEIN, klein_oracle(KLEIN)),
        (s3, finite_oracle(s3)),
        (PRODUCT, product_oracle(PRODUCT)),
        (GENUS2, oracle_from(GENUS2, "builtin:pinched")),
    ]
    rng = random.Random(20261018)
    for pres, wp in cases:
        lattice = Lattice([exponent_vector(r, pres.rank) for r in pres.relators], pres.rank)
        words = [random_reduced_word(rng, pres.rank, rng.randint(0, 6)) for _ in range(60)]
        words += [conjugate(r, u) for r in pres.relators for u in words[:10]]
        held = 0
        for g in words:
            ab = exponent_vector(g, pres.rank)
            for n in (2, 3):
                if wp(g**n) is True:
                    held += 1
                    assert [n * x for x in ab] in lattice
            for h in words[:8]:
                if wp(h * g * h.inv() * g) is True:
                    held += 1
                    assert [2 * x for x in ab] in lattice
        assert held > 0


def test_certify_finds_nothing_on_limit_groups():
    wp = free_abelian_oracle(Z2)
    assert CertifySearch(Z2, wp).run(4000) is None


def test_finished_searches_release_their_word_pools():
    """The word pools belong to the searches that walk them: once a cold
    witness hunt on genus two and a Z^2 recognition are done, nothing
    allocated in words.py stays alive.  A fresh interpreter keeps
    earlier tests from filling any pool first."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = textwrap.dedent(f"""
        import gc, sys, tracemalloc
        sys.path.insert(0, {str(src)!r})
        from limitforge.oracles import oracle_from
        from limitforge.presentation import parse
        from limitforge.recognize import CertifySearch, recognize_limit
        genus2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")
        z2 = parse("< a, b | [a,b] >")
        tracemalloc.start()
        CertifySearch(genus2, oracle_from(genus2, "builtin:pinched")).run(10**5)
        recognize_limit(z2, oracle_from(z2, "builtin:abelian"), 10**4)
        gc.collect()
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/limitforge/words.py")])
        print(sum(stat.size for stat in snap.statistics("filename")))
    """)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    ).stdout
    assert int(out) < 4096


def test_certify_search_accounts_budget():
    search = CertifySearch(PRODUCT, product_oracle(PRODUCT))
    got = search.run(10)
    assert got is None
    assert search.spent <= 10
    assert search.found is None
    while search.found is None:
        search.run(200)
    assert isinstance(search.found, Witness)
    assert search.candidates > 0
    assert search.max_cost >= 2


def _record_queries(wp):
    """Wrap wp.fn so that every query that reaches the engine, and its
    answer, is appended to the returned list."""
    log = []
    fn = wp.fn

    def recording(w):
        v = fn(w)
        log.append((w.ints, v))
        return v

    wp.fn = recording
    return log


def _query_digest(log) -> str:
    h = hashlib.sha256()
    for ints, v in log:
        h.update(f"{ints} {v}\n".encode())
    return h.hexdigest()


GENUS2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")

# name: (presentation, oracle, units, spent, candidates)
CERTIFY_CASES = {
    # genus two has no witness: the stream walks every tier
    "genus2-pinched": (GENUS2, lambda p: oracle_from(p, "builtin:pinched"), 2 * 10**5,
                       199999, 44755),
    # F2 x Z: a commutation-transitivity witness is found
    "F2xZ-product": (PRODUCT, product_oracle, 10**6, 273, 105),
}


def _run_pinned(search_class, case):
    pres, make_oracle, units, spent, candidates = CERTIFY_CASES[case]
    wp = make_oracle(pres)
    log = _record_queries(wp)
    search = search_class(pres, wp)
    search.run(units)
    assert (search.spent, search.candidates) == (spent, candidates)
    return log


# case: (engine queries, sha256 of the query log)
CERTIFY_STREAMS = {
    "genus2-pinched": (2285, "1af63bc8abb085e23e4857cfc5f8f3a5cc563bf529a36519db1a89743178b0bd"),
    "F2xZ-product": (17, "b3a279535ace5ae5458a4d65e0071c9a424e136b4edbe100ce6fdca195716202"),
}

# the same for CertifySearchReference, as the search asked before the
# abelian pre-tests
REFERENCE_STREAMS = {
    "genus2-pinched": (17501, "2d1551c70e754a3b6db5cbb51261058e5ec45b2b750f78107371e664936b92dc"),
    "F2xZ-product": (108, "ebbe971328291075b8de82023988b8d79abe3670a8df5374cc86ce4bf6265ca1"),
}


@pytest.mark.parametrize("case", list(CERTIFY_STREAMS))
def test_certify_query_stream_is_pinned(case):
    """The witness search asks its oracle the same words in the same
    order, and charges the same units, as when these counts were
    taken.  The abelian pre-tests cut the queries; the charges are
    those of the reference below."""
    log = _run_pinned(CertifySearch, case)
    assert (len(log), _query_digest(log)) == CERTIFY_STREAMS[case]


@pytest.mark.parametrize("case", list(REFERENCE_STREAMS))
def test_certify_reference_query_stream_is_pinned(case):
    """The plain nested loops over every candidate, with no pre-test,
    ask exactly what the witness search asked before the pre-tests."""
    log = _run_pinned(CertifySearchReference, case)
    assert (len(log), _query_digest(log)) == REFERENCE_STREAMS[case]


def _answers(log) -> dict:
    out = collections.defaultdict(set)
    for ints, v in log:
        out[ints].add(v)
    return out


# name: (presentation, oracle, units), besides CERTIFY_CASES: the corpus's
# negative inputs with their corpus oracles, and F2 through its cost-6
# tier, where nontrivial commutators pass the torsion and inversion
# pre-tests
DIFFERENTIAL_CASES = {
    "order2-finite": (TORSION, lambda p: oracle_from(p, "builtin:finite"), 10**4),
    "F2xZ-builtin": (PRODUCT, lambda p: oracle_from(p, "builtin:product"), 10**4),
    "klein-builtin": (KLEIN, lambda p: oracle_from(p, "builtin:klein"), 10**4),
    "F2-free": (F2, free_oracle, 180000),
}


@pytest.mark.parametrize("case", list(CERTIFY_CASES) + list(DIFFERENTIAL_CASES))
def test_certify_search_matches_reference(case):
    """The pre-tests change the oracle traffic and nothing else.

    Both searches run in the same slices and agree on every charge and
    witness after each.  The new search sends no word the reference
    does not send.  The words only the reference sends belong to the
    candidates the pre-tests skip, and the reference's oracle answered
    none of them True.  A total engine here answers from the word
    alone, so the words the reference sends whose exponent vector lies
    in the relator lattice, which no pre-test skips, are sent by both
    with the same answers.
    """
    if case in DIFFERENTIAL_CASES:
        pres, make_oracle, units = DIFFERENTIAL_CASES[case]
    else:
        pres, make_oracle, units, _, _ = CERTIFY_CASES[case]
    wp_new, wp_ref = make_oracle(pres), make_oracle(pres)
    log_new, log_ref = _record_queries(wp_new), _record_queries(wp_ref)
    new = CertifySearch(pres, wp_new)
    ref = CertifySearchReference(pres, wp_ref)
    slices = itertools.cycle((1, 5, 128, 1000))
    offered = 0
    while offered < units and ref.found is None:
        k = min(next(slices), units - offered)
        offered += k
        assert new.run(k) == ref.run(k)
        for attr in ("spent", "candidates", "max_cost", "found"):
            assert getattr(new, attr) == getattr(ref, attr)
    sent, asked = _answers(log_new), _answers(log_ref)
    assert sent.keys() <= asked.keys()
    assert all(True not in asked[w] for w in asked.keys() - sent.keys())
    assert all(sent[w] == asked[w] for w in sent)
    lattice = Lattice([exponent_vector(r, pres.rank) for r in pres.relators], pres.rank)
    for w in asked:
        if exponent_vector(Word(w), pres.rank) in lattice:
            assert w in sent


def test_certify_search_requires_total_oracle():
    """A semi-decision is refused where the witness search is built."""
    with pytest.raises(ValueError, match="total word-problem oracle"):
        CertifySearch(Z2, dovetail_oracle(Z2))


@pytest.mark.parametrize("case", list(CERTIFY_CASES))
def test_certify_stream_yields_no_empty_run(case):
    """Every dead run the witness search yields counts at least one
    candidate."""
    pres, make_oracle, units, _, _ = CERTIFY_CASES[case]
    search = CertifySearch(pres, make_oracle(pres))
    spent = 0
    for item in search._stream():
        if item.__class__ is int:
            assert item > 0
            spent += item * search.price
        elif item is not _REPRICE:
            spent += search.price
            if item is not None:
                break
        if spent >= units:
            break


# --- the verdict engines ----------------------------------------------------


def test_recognize_free_group_rank_one():
    v = recognize_limit(parse("< a | >"), free_oracle(parse("< a | >")))
    assert isinstance(v, Limit)
    assert v.reverify() is True
    assert v.report["used"] <= v.report["budget"]


def test_recognize_f2_and_z2():
    v = recognize_limit(F2, free_oracle(F2))
    assert isinstance(v, Limit)
    assert v.reverify() is True
    v = recognize_limit(Z2, free_abelian_oracle(Z2))
    assert isinstance(v, Limit)
    assert serialize(v.matched) == "< a, b | a*b*a^-1*b^-1 >"
    assert v.reverify() is True


def test_recognize_torsion_fast():
    v = recognize_limit(TORSION, finite_oracle(TORSION))
    assert isinstance(v, NotLimit)
    assert v.witness.kind == "torsion"
    assert v.reverify(finite_oracle(TORSION)) is True


def test_recognize_product_is_not_limit():
    v = recognize_limit(PRODUCT, product_oracle(PRODUCT))
    assert isinstance(v, NotLimit)
    assert v.witness.kind == "commutation-transitivity"
    assert v.reverify(product_oracle(PRODUCT)) is True


def test_recognize_klein_is_not_limit():
    v = recognize_limit(KLEIN, klein_oracle(KLEIN))
    assert isinstance(v, NotLimit)
    assert v.witness.kind == "inversion"
    assert v.reverify(klein_oracle(KLEIN)) is True


# Tampered verdicts, each built through the value classes' constructors
# from a real corpus verdict: reverify refuses every one.


def _corpus_verdict(name):
    """The corpus row's verdict and the oracle it was reached with."""
    row = next(r for r in CORPUS if r[0] == name)
    _, make_oracle = _corpus_case(row)
    return corpus_verdict(row, 10**7), make_oracle()


def test_not_limit_reverify_rejects_a_premise_the_oracle_refutes():
    v, wp = _corpus_verdict("product with center")
    assert isinstance(v, NotLimit) and v.reverify(wp) is True
    a, b, z = (Word((k,)) for k in (1, 2, 3))
    # [a, b] has the zero vector, so only the oracle can refuse it
    bad = Witness((b, commutator(a, z)), "commutation-transitivity", {"a": a, "b": b, "c": z})
    assert wp(commutator(a, b)) is False
    assert NotLimit(v.presentation, bad, v.report).reverify(wp) is False


def test_not_limit_reverify_rejects_a_witness_only_a_lying_oracle_passes():
    v, wp = _corpus_verdict("free rank 2")
    p = v.presentation
    a, b = Word((1,)), Word((2,))
    g = commutator(a, b)
    premise = a * g * a.inv() * g
    lying = WordOracle(lambda w: True if w == premise else wp(w), True, "lying")
    bad = Witness((g,), "inversion", {"g": g, "h": a})
    assert check_witness(p, lying, bad) is True
    # a -> a, b -> b keeps [a, b] alive, so the sentence is false over F2
    assert refute_sentence(witness_sentence(p, bad), 3) is not None
    assert NotLimit(p, bad, v.report).reverify(lying) is False


def test_not_limit_reverify_rejects_a_torsion_exponent_below_two():
    v, wp = _corpus_verdict("order two")
    assert isinstance(v, NotLimit) and v.reverify(wp) is True
    g = v.witness.data["g"]
    for n in (1, 0, -2):
        bad = Witness((g,), "torsion", {"g": g, "n": n})
        assert NotLimit(v.presentation, bad, v.report).reverify(wp) is False


def test_not_limit_reverify_rejects_an_unknown_witness_kind():
    v, wp = _corpus_verdict("order two")
    assert isinstance(v, NotLimit) and v.reverify(wp) is True
    bad = Witness(v.witness.elements, "periodic", v.witness.data)
    assert NotLimit(v.presentation, bad, v.report).reverify(wp) is False


def test_not_limit_reverify_rejects_a_certificate_missing_a_field():
    v, wp = _corpus_verdict("order two")
    assert isinstance(v, NotLimit) and v.reverify(wp) is True
    for field in v.witness.data:
        data = {k: x for k, x in v.witness.data.items() if k != field}
        bad = Witness(v.witness.elements, v.witness.kind, data)
        assert NotLimit(v.presentation, bad, v.report).reverify(wp) is False


def test_not_limit_reverify_rejects_a_word_beyond_the_rank():
    v, wp = _corpus_verdict("order two")
    g = W(2)
    bad = Witness((g,), "torsion", {"g": g, "n": 2})
    assert NotLimit(v.presentation, bad, v.report).reverify(wp) is False


@pytest.mark.parametrize("name, kind, data", [
    ("order two", "torsion", {"n": "2"}),
    ("order two", "torsion", {"n": 2.0}),
    ("order two", "torsion", {"g": "a"}),
    ("klein bottle", "inversion", {"h": 5}),
    ("klein bottle", "inversion", {"g": "a"}),
])
def test_not_limit_reverify_rejects_a_certificate_field_of_the_wrong_type(name, kind, data):
    """A witness read back from JSON may hold a string or a float where a
    Word or an int belongs: check_witness raises ValueError, and reverify
    answers False."""
    v, wp = _corpus_verdict(name)
    assert isinstance(v, NotLimit) and v.witness.kind == kind and v.reverify(wp) is True
    bad = Witness(v.witness.elements, kind, {**v.witness.data, **data})
    with pytest.raises(ValueError):
        check_witness(v.presentation, wp, bad)
    assert NotLimit(v.presentation, bad, v.report).reverify(wp) is False


def test_not_limit_reverify_rejects_an_element_that_is_no_word():
    v, wp = _corpus_verdict("order two")
    bad = Witness(("a",), v.witness.kind, v.witness.data)
    with pytest.raises(ValueError):
        check_witness(v.presentation, wp, bad)
    assert NotLimit(v.presentation, bad, v.report).reverify(wp) is False


@pytest.mark.parametrize("position", ["0", None, 0.0, True, -1, 2**70],
                         ids=["str", "None", "float", "bool", "negative", "2**70"])
def test_limit_reverify_rejects_a_position_outside_the_ints_islice_takes(position):
    v, _ = _corpus_verdict("free abelian rank 2")
    assert isinstance(v, Limit) and v.position == 0 and v.reverify() is True
    bad = Limit(v.presentation, v.matched, v.emission, v.report, position)
    assert bad.reverify() is False


def test_limit_reverify_rejects_a_match_that_is_no_renaming():
    v, _ = _corpus_verdict("free abelian rank 2")
    assert isinstance(v, Limit) and v.reverify() is True
    assert Limit(v.presentation, F2, v.emission, v.report).reverify() is False


@pytest.mark.parametrize("name, other", [
    ("free abelian rank 2", "free rank 1"),
    ("centralizer extension", "free rank 2"),
])
def test_limit_reverify_rejects_a_match_from_another_emission(name, other):
    """`matched` must be the emission's own Tietze variant at `position`,
    not only a renaming of the input."""
    v, _ = _corpus_verdict(name)
    em = _corpus_verdict(other)[0].emission
    assert isinstance(v, Limit) and v.reverify() is True
    assert Limit(v.presentation, v.matched, em, v.report).reverify() is False


def test_limit_found_by_an_expander_reverifies():
    """< a, b | [a,b], [a,b]^2 > is Z^2: it is matched at node 1 of the
    expansion of the emission < a, b | [a,b] >, and that node is checked,
    not the emission itself."""
    p = parse("< a, b | [a,b], [a,b]*[a,b] >")
    wp = WordOracle(lambda w: not any(exponent_vector(w, 2)), True, "exponents")
    v = recognize_limit(p, wp, 10**5)
    assert isinstance(v, Limit)
    assert v.emission.presentation == Z2 and v.matched == p and v.position == 1
    assert v.reverify() is True
    assert Limit(v.presentation, v.matched, v.emission, v.report).reverify() is False


def test_limit_reverify_rejects_an_emission_with_torsion():
    v, _ = _corpus_verdict("free abelian rank 2")
    em = v.emission
    torsion = LimitGroupEmission(parse("< a, b | [a,b], a^2 >"), em.tower, em.s_words, em.found)
    assert Limit(v.presentation, v.matched, torsion, v.report).reverify() is False


LIMIT_NAMES = [row[0] for row in CORPUS if row[4] == ("Limit",)]


def _with_emission(v, **fields):
    """v with its emission's fields replaced, through the constructors."""
    em = v.emission
    parts = {"presentation": em.presentation, "tower": em.tower,
             "s_words": em.s_words, "found": em.found, **fields}
    return Limit(v.presentation, v.matched, LimitGroupEmission(**parts), v.report)


@pytest.mark.parametrize("tower", [
    # Z^3, of the table's rank, whose subgroup presentation is another
    {"base_rank": 1, "steps": [{"g": "a", "n": 2}]},
    # F2, of a lower rank than the table
    {"base_rank": 2, "steps": []},
])
def test_limit_reverify_rejects_a_tower_the_retraction_does_not_hold_in(tower):
    v, _ = _corpus_verdict("centralizer extension")
    assert isinstance(v, Limit) and v.reverify() is True
    assert _with_emission(v, tower=tower_from_json(tower)).reverify() is False


@pytest.mark.parametrize("name", LIMIT_NAMES)
def test_limit_reverify_rejects_an_s_the_retraction_does_not_fix(name):
    v, _ = _corpus_verdict(name)
    assert isinstance(v, Limit) and v.reverify() is True
    s = v.emission.s_words
    assert _with_emission(v, s_words=(s[0] * s[0],) + s[1:]).reverify() is False
    # one word more than the retraction has expressions
    assert _with_emission(v, s_words=s + (s[0],)).reverify() is False


def test_limit_reverify_rejects_a_table_entry_that_is_no_coset():
    v, _ = _corpus_verdict("centralizer extension")
    assert isinstance(v, Limit) and v.reverify() is True
    found = v.emission.found
    rs = found.rs
    rows = ((0, 0, 0, 0, rs.table.index, 0),) + rs.table.rows[1:]
    bad_rs = RSResult(CosetTable(3, rows), rs.presentation, rs.gens_ambient, rs.trace)
    bad = RetractionFound(bad_rs, found.y_words, found.s_exprs, found.cost)
    assert _with_emission(v, found=bad).reverify() is False


def test_limit_reverify_rejects_an_emission_the_retraction_does_not_present():
    v, _ = _corpus_verdict("centralizer extension")
    assert isinstance(v, Limit) and v.reverify() is True
    other = parse("< a, b, t | [a,b] >")
    assert abelianization(other) == abelianization(v.emission.presentation)
    assert _with_emission(v, presentation=other).reverify() is False


def test_recognize_unknown_under_tiny_budget():
    v = recognize_limit(Z2, free_abelian_oracle(Z2), budget=60)
    assert isinstance(v, Unknown)
    assert v.report["used"] <= 60


def test_recognize_requires_total_oracle():
    with pytest.raises(ValueError):
        recognize_limit(Z2, dovetail_oracle(Z2))


def test_reports_are_deterministic():
    a = recognize_limit(Z2, free_abelian_oracle(Z2))
    b = recognize_limit(Z2, free_abelian_oracle(Z2))
    assert a.report == b.report
    assert serialize(a.matched) == serialize(b.matched)


def test_recognize_free_paths():
    v = recognize_free(F2, free_oracle(F2))
    assert isinstance(v, Free)
    assert v.free_presentation.relators == ()

    v = recognize_free(Z2, free_abelian_oracle(Z2))
    assert isinstance(v, NotFree)
    assert v.reason == "abelian and noncyclic"

    v = recognize_free(KLEIN, klein_oracle(KLEIN))
    assert isinstance(v, NotFree)
    assert v.reason == "torsion in abelianization"

    v = recognize_free(PRODUCT, product_oracle(PRODUCT))
    assert isinstance(v, NotFree)
    assert "commutation-transitivity" in v.reason
    assert v.witness is not None


def test_recognize_free_step_counts_are_pinned():
    """The Tietze hunt walks enumerate_presentations, so these exact
    counts pin the order of that stream as well as the race."""
    genus2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")
    v = recognize_free(genus2, oracle_from(genus2, "builtin:pinched"), 3500)
    assert isinstance(v, Unknown)
    assert v.report["used"] == 3499
    f2xz = parse("< a, b, z | [a,z], [b,z] >")
    v = recognize_free(f2xz, product_oracle(f2xz), 3500)
    assert isinstance(v, NotFree)
    assert v.report["used"] == 657


def test_recognize_free_genus_two_at_30000_is_pinned():
    """Deep enough that the Tietze hunt walks bounds whose queue fills
    long before it is drained; that walk once took seconds here."""
    v = recognize_free(GENUS2, oracle_from(GENUS2, "builtin:pinched"), 30000)
    assert isinstance(v, Unknown)
    assert v.report == {
        "budget": 30000,
        "used": 30000,
        "certify": {"spent": 14904, "candidates": 4130, "max_cost": 4},
    }


def test_recognize_free_requires_total_oracle():
    with pytest.raises(ValueError):
        recognize_free(F2, dovetail_oracle(F2))


def test_negative_budgets_are_refused():
    """A budget is a ceiling on `used`, which cannot go below 0; None
    and 0 stay valid."""
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        recognize_limit(TORSION, finite_oracle(TORSION), budget=-1)
    # Klein's torsion would answer NotFree at once, so the check is first
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        recognize_free(KLEIN, klein_oracle(KLEIN), budget=-1)
    v = recognize_limit(TORSION, finite_oracle(TORSION), budget=0)
    assert isinstance(v, Unknown) and v.report["used"] == 0
    assert isinstance(recognize_free(KLEIN, klein_oracle(KLEIN), budget=0), NotFree)
    assert isinstance(recognize_limit(TORSION, finite_oracle(TORSION), budget=None), NotLimit)


def test_pinched_free_product_amalgamated_over_generator():
    v = recognize_cyclically_pinched(2, 2, Word((1,)), Word((1,)))
    assert isinstance(v, Limit)
    assert v.matched.rank == 3
    assert v.matched.relators == ()


def test_pinched_with_central_edge_group_is_rejected():
    # u = a^2 in <a>: the amalgam has a centralizer violating transitivity
    v = recognize_cyclically_pinched(2, 2, Word((1, 1)), Word((1, 1, 1)))
    assert isinstance(v, NotLimit)
    assert v.witness.kind == "commutation-transitivity"


def test_pinched_validates_second_factor_letters():
    with pytest.raises(ValueError):
        recognize_cyclically_pinched(2, 2, Word((1,)), Word((3,)))


# --- whole reports, and the meter against the loops it replaced -------------

# verdict and report of each CORPUS row at the CLI default budget, and of
# recognize_free on genus two with the pinched oracle at two budgets.  The
# recognize_free rows were taken before the resumable searches shared one
# meter; the CORPUS rows since the enumeration skips the pairs and towers
# that cannot emit the target
RECOGNITION_REPORTS = {
    "free rank 1": (
        "Limit",
        {
            "budget": 10_000_000,
            "used": 167,
            "certify": {"spent": 128, "candidates": 40, "max_cost": 4},
            "enumeration": {
                "rounds": 2,
                "steps": 39,
                "emissions": 1,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 2,
                "skipped_towers": 0,
            },
        },
    ),
    "free rank 2": (
        "Limit",
        {
            "budget": 10_000_000,
            "used": 346,
            "certify": {"spent": 253, "candidates": 91, "max_cost": 3},
            "enumeration": {
                "rounds": 3,
                "steps": 93,
                "emissions": 12,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 13,
                "skipped_towers": 0,
            },
        },
    ),
    "free abelian rank 2": (
        "Limit",
        {
            "budget": 10_000_000,
            "used": 439,
            "certify": {"spent": 379, "candidates": 133, "max_cost": 3},
            "enumeration": {
                "rounds": 4,
                "steps": 60,
                "emissions": 2,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 5,
                "skipped_towers": 2,
            },
        },
    ),
    "free abelian rank 3": (
        "Limit",
        {
            "budget": 10_000_000,
            "used": 4219,
            "certify": {"spent": 1964, "candidates": 665, "max_cost": 4},
            "enumeration": {
                "rounds": 14,
                "steps": 2255,
                "emissions": 10,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 187,
                "skipped_towers": 4,
            },
        },
    ),
    "centralizer extension": (
        "Limit",
        {
            "budget": 10_000_000,
            "used": 16_304,
            "certify": {"spent": 7808, "candidates": 2126, "max_cost": 4},
            "enumeration": {
                "rounds": 19,
                "steps": 8448,
                "emissions": 41,
                "expanders": 1,
                "expanded": 6,
                "matchable": True,
                "skipped_pairs": 297,
                "skipped_towers": 4,
            },
        },
    ),
    "order two": (
        "NotLimit",
        {
            "budget": 10_000_000,
            "used": 4,
            "certify": {"spent": 2, "candidates": 1, "max_cost": 2},
            "enumeration": {
                "rounds": 1,
                "steps": 2,
                "emissions": 1,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 0,
                "skipped_towers": 0,
            },
        },
    ),
    "product with center": (
        "NotLimit",
        {
            "budget": 10_000_000,
            "used": 273,
            "certify": {"spent": 273, "candidates": 105, "max_cost": 3},
            "enumeration": {
                "rounds": 3,
                "steps": 0,
                "emissions": 0,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 1,
                "skipped_towers": 2,
            },
        },
    ),
    "klein bottle": (
        "NotLimit",
        {
            "budget": 10_000_000,
            "used": 14,
            "certify": {"spent": 14, "candidates": 7, "max_cost": 2},
            "enumeration": {
                "rounds": 1,
                "steps": 0,
                "emissions": 0,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 1,
                "skipped_towers": 0,
            },
        },
    ),
    "genus two surface": (
        "Unknown",
        {
            "budget": 100_000,
            "used": 100_000,
            "certify": {"spent": 53_972, "candidates": 13_897, "max_cost": 4},
            "enumeration": {
                "rounds": 93,
                "steps": 46_028,
                "emissions": 132,
                "expanders": 0,
                "expanded": 0,
                "matchable": True,
                "skipped_pairs": 7084,
                "skipped_towers": 5,
            },
        },
    ),
    "free genus two 1000": (
        "Unknown",
        {
            "budget": 1000,
            "used": 998,
            "certify": {"spent": 486, "candidates": 186, "max_cost": 3},
        },
    ),
    "free genus two 3500": (
        "Unknown",
        {
            "budget": 3500,
            "used": 3499,
            "certify": {"spent": 1707, "candidates": 593, "max_cost": 3},
        },
    ),
}


def test_recognition_reports_are_pinned():
    """Every field of these reports, which `recognize --json` prints.
    RECOGNITION_STEPS pins `used` alone, which stays put when a branch
    takes more emissions or candidates within the same slices."""
    got = {}
    for row in CORPUS:
        v = corpus_verdict(row, 10**7)
        got[row[0]] = (type(v).__name__, v.report)
    for budget in (1000, 3500):
        v = recognize_free(GENUS2, oracle_from(GENUS2, "builtin:pinched"), budget)
        got[f"free genus two {budget}"] = (type(v).__name__, v.report)
    assert got == RECOGNITION_REPORTS


METER_SLICES = (1, 2, 3, 5, 128, 1000)
CORPUS_IDS = [row[0] for row in CORPUS]


def _corpus_case(row):
    """A corpus row's presentation, and a maker of fresh oracles for it."""
    _, text, strategy, tower_doc = row[:4]
    p = parse(text)
    tower = tower_from_json(tower_doc) if tower_doc else None
    return p, lambda: oracle_from(p, strategy, tower=tower)


@pytest.mark.parametrize("row", CORPUS + (("trivial", "< | >", "builtin:finite", None),),
                         ids=CORPUS_IDS + ["trivial"])
def test_certify_meter_matches_its_old_loop(row):
    """In the same run() slices, the witness search charged by the shared
    meter and by its own loop agree on spent, candidates, max_cost and
    found after every slice, and ask the oracle the same words in the
    same order.  The trivial group has no candidate at all."""
    p, make_oracle = _corpus_case(row)
    wp_new, wp_old = make_oracle(), make_oracle()
    log_new, log_old = _record_queries(wp_new), _record_queries(wp_old)
    new, old = CertifySearch(p, wp_new), CertifySearchLoop(p, wp_old)
    slices = itertools.cycle(METER_SLICES)
    while old.spent < 20_000 and old.found is None:
        k = next(slices)
        assert new.run(k) == old.run(k)
        for attr in ("spent", "candidates", "max_cost", "found"):
            assert getattr(new, attr) == getattr(old, attr)
    assert log_new == log_old


# recognize_free answers NotFree for torsion in the abelianization before
# it expands anything, and the expansion of Z/2 is slow
TORSION_FREE_ROWS = [row for row in CORPUS if not abelianization(parse(row[1]))[1]]


@pytest.mark.parametrize("row", TORSION_FREE_ROWS, ids=[row[0] for row in TORSION_FREE_ROWS])
def test_tietze_meter_matches_its_old_loop(row):
    """recognize_free's Tietze hunt, one expander under the meter, spends
    what the old loop spent and finds the same variant, slice by slice."""
    p, _ = _corpus_case(row)
    start, _ = tietze_simplify(p)
    new = _Expansion(lambda _, v: None if v.relators else v)
    new.expanders.append((None, enumerate_presentations(start)))
    old = TietzeBranchLoop(start)
    spent, found = 0, None
    slices = itertools.cycle(METER_SLICES + (None,))
    while spent < 1500 and found is None:
        k = next(slices)
        hit = new.run(k)
        used, found = old.run(k)
        spent += used
        assert (new.spent, hit) == (spent, found)


def _hit_key(hit):
    return None if hit is None else (hit[0].presentation, hit[0].s_words, hit[1])


@pytest.mark.parametrize(
    "text",
    [row[1] for row in CORPUS] + ["< a, b | [a,[a,b]] >"],
    ids=CORPUS_IDS + ["ab Z^2, two expanders"],
)
def test_match_branch_meter_matches_its_old_loop(text):
    """The enumeration branch, its expanders under the meter, spends what
    its old loop spent, with the same emissions, expanders and hit,
    slice by slice."""
    target, _ = tietze_simplify(parse(text))
    new, old = _MatchBranch(target), MatchBranchLoop(target)
    spent, hit = 0, None
    slices = itertools.cycle(METER_SLICES + (None,))
    while spent < 5000 and hit is None:
        k = next(slices)
        hit = new.run(k)
        used, old_hit = old.run(k)
        spent += used
        assert new.spent == spent
        assert _hit_key(hit) == _hit_key(old_hit)
        assert new.emissions == old.emissions
        assert len(new.expansion.expanders) == len(old._expanders)
        assert new.expansion.spent == 8 * old.expanded


def test_expansion_slice_rule_matches_the_old_loop():
    """Expander nodes of 8 units run while the slice has used fewer than
    _QUANTUM units and the next node fits in `limit`, whatever the slice
    used before the expanders, as in the old loop."""
    for limit, before in itertools.product([None, *range(0, 160, 3)], range(0, 140, 5)):
        meter = _Expansion(lambda tag, v: None)
        meter.expanders.append((None, itertools.repeat(None)))
        meter.run(limit, before)
        used = before
        while used < _QUANTUM and (limit is None or used + 8 <= limit):
            used += 8
        assert meter.spent == used - before, (limit, before)


def test_oracle_error_leaves_the_charges_made_before_it():
    """When the oracle raises, `spent` keeps the candidates completed
    before the failing one; the old loop had charged that one too."""

    def flaky():
        calls = []

        def fn(w):
            calls.append(w)
            if len(calls) > 20:
                raise RuntimeError("oracle gone")
            return not w.ints

        return WordOracle(fn, True, "flaky")

    new, old = CertifySearch(F2, flaky()), CertifySearchLoop(F2, flaky())
    for search in (new, old):
        with pytest.raises(RuntimeError, match="oracle gone"):
            search.run(10**5)
    assert new.spent > 0
    assert new.spent == old.spent - old.max_cost
