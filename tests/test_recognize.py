"""Recognition: bounded refutation, witness schemas, the two verdict engines."""

import hashlib
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from limitforge.ice import ice_oracle, tower_from_json
from limitforge.oracles import (
    dovetail_oracle,
    finite_oracle,
    free_abelian_oracle,
    free_oracle,
    klein_oracle,
    oracle_from,
    product_oracle,
)
from limitforge.presentation import parse, serialize
from limitforge.recognize import (
    CertifySearch,
    Free,
    Limit,
    NotFree,
    NotLimit,
    Sentence,
    Unknown,
    Witness,
    check_witness,
    external_witness,
    recognize_cyclically_pinched,
    recognize_free,
    recognize_limit,
    refute_sentence,
    witness_sentence,
)
from limitforge.words import Word, commutator

from oracles import refute_sentence_reference

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


def test_sentence_validates_variables():
    with pytest.raises(ValueError):
        Sentence(("x",), (W(2),), ())


# --- witness schemas --------------------------------------------------------


def test_torsion_witness_checks():
    wp = finite_oracle(TORSION)
    w = Witness((W(1),), "torsion", {"g": W(1), "n": 2})
    assert check_witness(TORSION, wp, w) is True
    # wrong element set
    bad = Witness((W(1, 1),), "torsion", {"g": W(1), "n": 2})
    assert check_witness(TORSION, wp, bad) is False


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


def test_external_witness_cross_checks():
    wp = klein_oracle(KLEIN)
    w = external_witness(KLEIN, wp, "inversion", g=W(1), h=W(2))
    assert w.kind == "external"
    assert w.data["schema"] == "inversion"
    assert check_witness(KLEIN, wp, w) is True


def test_external_witness_rejects_false_claims():
    wp = free_oracle(F2)
    with pytest.raises(ValueError):
        external_witness(F2, wp, "torsion", g=W(1), n=2)


def test_witness_sentence_shape():
    w = Witness((W(1),), "torsion", {"g": W(1), "n": 2})
    s = witness_sentence(TORSION, w)
    assert s.variables == TORSION.names
    assert s.equations == TORSION.relators
    assert s.inequations == (W(1),)
    # sound witnesses survive bounded refutation
    assert refute_sentence(s, 2) is None


# --- certificate search -----------------------------------------------------


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


@pytest.mark.parametrize(
    "pres, make_oracle, units, spent, candidates, queries, digest",
    [
        # genus two has no witness: the stream walks every tier
        (GENUS2, lambda p: oracle_from(p, "builtin:pinched"), 2 * 10**5,
         199999, 44755, 17501,
         "2d1551c70e754a3b6db5cbb51261058e5ec45b2b750f78107371e664936b92dc"),
        # F2 x Z: a commutation-transitivity witness is found
        (PRODUCT, product_oracle, 10**6, 273, 105, 108,
         "ebbe971328291075b8de82023988b8d79abe3670a8df5374cc86ce4bf6265ca1"),
        # a small-budget dovetail oracle answers None to some words, and
        # such a word must be asked again whenever the search needs it
        (Z2, lambda p: dovetail_oracle(p, 8), 6000, 5998, 1494, 813,
         "c350376165fc7050628460b99c34fdab3b6fc611125d5d768f125a28e580632b"),
        # here some inversion candidates g are left undecided
        (GENUS2, lambda p: dovetail_oracle(p, 2), 3000, 3000, 1024, 548,
         "5f8f79977014e55b1455eba55df51d9ddcaaa8a4802c7de1c698a7ca4b183c49"),
    ],
    ids=["genus2-pinched", "F2xZ-product", "Z2-dovetail", "genus2-dovetail"],
)
def test_certify_query_stream_is_pinned(
    pres, make_oracle, units, spent, candidates, queries, digest
):
    """The witness search asks its oracle the same words in the same
    order, and charges the same units, as the plain nested loops over
    every candidate."""
    wp = make_oracle(pres)
    log = _record_queries(wp)
    search = CertifySearch(pres, wp)
    search.run(units)
    assert (search.spent, search.candidates) == (spent, candidates)
    assert len(log) == queries
    assert _query_digest(log) == digest
    if not wp.total:
        assert any(v is None for _, v in log)


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
    assert v.witness.kind == "torsion" or v.witness.data.get("schema") == "torsion"
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


def test_recognize_free_requires_total_oracle():
    with pytest.raises(ValueError):
        recognize_free(F2, dovetail_oracle(F2))


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
