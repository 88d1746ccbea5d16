"""Every registered verify check as its own tier-1 case, at the default seed."""

import numpy as np
import pytest

from xcflow import verify as vf

CHECKS = vf.registered_checks()


@pytest.mark.parametrize("idx", range(len(CHECKS)),
                         ids=[f"{suite}/{name}" for suite, name in CHECKS])
def test_verify_check_passes(idx):
    result = vf.run_check(idx, seed=1729)
    assert result.passed, result.line()
    assert type(result.passed) is bool  # a numpy bool_ would break the JSON report


def test_run_checks_is_the_checks_in_order():
    summary = vf.run_checks(suites=["cli"])
    assert summary.seed == vf.DEFAULT_SEED
    assert [(r.suite, r.name) for r in summary.results] == [
        check for check in CHECKS if check[0] == "cli"]
    assert summary.all_passed


def test_removing_an_earlier_check_leaves_a_checks_data(monkeypatch):
    check = ("tensor_core", "positive_definite_propagation")
    idx = CHECKS.index(check)
    before = vf.run_check(idx, cases=20).detail
    monkeypatch.setattr(vf, "_REGISTRY", vf._REGISTRY[1:])  # the first check goes
    assert vf.registered_checks().index(check) == idx - 1
    assert vf.run_check(idx - 1, cases=20).detail == before
    assert vf.run_check(idx - 1, cases=20, seed=1730).detail != before  # data-dependent


@pytest.mark.parametrize("seed", [1729, 1730])
@pytest.mark.parametrize("check", [("tensor_core", "positive_definite_propagation"),
                                   ("symbol", "spectrum_closed_form")])
def test_a_checks_generator_draws_what_an_eager_one_draws(check, seed):
    # run_check keys a counted check's generator by the seed and the check's
    # "suite/name": its numbers are those of a generator built from that key
    idx = CHECKS.index(check)
    suite, name, fn, cases = vf._REGISTRY[idx]
    key = tuple(f"{suite}/{name}".encode())
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    assert vf.run_check(idx, seed=seed).detail == fn(rng, cases)[1]
