"""Recognition: bounded refutation, witness schemas, the two verdict engines."""

import pytest

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
    certify_witness,
    check_witness,
    external_witness,
    recognize_cyclically_pinched,
    recognize_free,
    recognize_limit,
    refute_sentence,
    witness_sentence,
)
from limitforge.words import Word, commutator

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
    w = certify_witness(TORSION, wp)
    assert w is not None
    assert w.kind == "torsion"
    assert w.data["n"] == 2
    assert check_witness(TORSION, wp, w) is True


def test_certify_ct_on_product():
    wp = product_oracle(PRODUCT)
    w = certify_witness(PRODUCT, wp)
    assert w is not None
    assert w.kind == "commutation-transitivity"
    assert check_witness(PRODUCT, wp, w) is True


def test_certify_inversion_on_klein():
    wp = klein_oracle(KLEIN)
    w = certify_witness(KLEIN, wp)
    assert w is not None
    assert w.kind == "inversion"
    assert w.data["h"] == W(2)


def test_certify_finds_nothing_on_limit_groups():
    wp = free_abelian_oracle(Z2)
    assert certify_witness(Z2, wp, budget=4000) is None


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
