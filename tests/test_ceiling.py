"""The step budget is a hard ceiling: no recognizer or search spends past it."""

import pytest

from limitforge.cli import CORPUS, corpus_verdict
from limitforge.oracles import oracle_from
from limitforge.presentation import parse
from limitforge.recognize import CertifySearch, recognize_free

GENUS2 = parse("< a, b, c, d | [a,b]*[c,d]^-1 >")


@pytest.mark.parametrize("budget", [10**3, 10**4])
def test_corpus_rows_stay_within_budget(budget):
    for row in CORPUS:
        v = corpus_verdict(row, budget)
        assert v.report["budget"] <= budget, row[0]
        assert v.report["used"] <= v.report["budget"], (row[0], v.report["used"])


@pytest.mark.parametrize("budget", [1000, 3500])
def test_recognize_free_stays_within_budget(budget):
    v = recognize_free(GENUS2, oracle_from(GENUS2, "builtin:pinched"), budget)
    assert v.report["used"] <= budget


def test_certify_search_never_spends_past_its_units():
    search = CertifySearch(GENUS2, oracle_from(GENUS2, "builtin:pinched"))
    total = 0
    for units in (1, 7, 100, 12_345):
        before = search.spent
        assert search.run(units) is None
        assert search.spent - before <= units
        total += units
    assert search.spent <= total
    # a candidate that did not fit is charged by a later call, not skipped
    assert search.spent > total - 12_345
