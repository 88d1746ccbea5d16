"""Every registered verify check as its own tier-1 case, at the default seed."""

import pytest

from xcflow import verify as vf

CHECKS = vf.registered_checks()


@pytest.mark.parametrize("idx", range(len(CHECKS)),
                         ids=[f"{suite}/{name}" for suite, name in CHECKS])
def test_verify_check_passes(idx):
    result = vf.run_check(idx, seed=1729)
    assert result.passed, result.line()


def test_run_checks_is_the_checks_in_order():
    summary = vf.run_checks(suites=["cli"])
    assert summary.seed == vf.DEFAULT_SEED
    assert [(r.suite, r.name) for r in summary.results] == [
        check for check in CHECKS if check[0] == "cli"]
    assert summary.all_passed
