"""Acceptance gate: eleven criteria, one test each.

The suite runs once per session (acceptance.run_all, through the `suite`
fixture).  Each test prints its criterion's PASS/FAIL line (visible with
pytest -s) and asserts that criterion's "passed" flag.  Tolerances are
fixed inside lacelab.acceptance:
  1  closed-form nn transform vs support sum, 1e-14 absolute
  2  four-step return probability vs 3/8, 1e-12 absolute
  3  beta k-space vs x-space, 1e-9 absolute, plus divergence flags and
     the Cauchy-Schwarz split of beta on each base grid
  4  d*beta non-increasing over d in 9..13; L^5*beta max/min <= 3
  5  SAW masses equal exact rational counts; d=1 chi limit within 1e-6;
     the SAW differential inequality at z = 0.3, 0.5, not
     truncation-dominated
  6  lace coefficients reconstruct the series exactly (rational arithmetic)
  7  MC chi within 4 standard errors of exact for >= 48 of 50 seeds;
     derivative identity to 1e-12; tree-graph bound
  8  two-site identity to 1e-12; MC chi within 4 se for >= 48 of 50 seeds;
     single-step bound pointwise on exact instances
  9  bootstrap base point exact; free-model infrared deviation <= 1e-12
 10  zero violations across all randomized inequality suites, among
     them B-tilde <= 4 K^4 beta on the free inputs
 11  cluster-tail sandwich holds on exact size laws, 1e-12 slack
"""

import contextlib
import io
import json

import pytest

from lacelab import acceptance


@pytest.fixture(scope="session")
def suite():
    """acceptance.run_all(), run once, and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        summary = acceptance.run_all()
    return summary, out.getvalue()


def _check(suite, num: int) -> None:
    summary, _ = suite
    row = next(r for r in summary["results"] if r["criterion"] == num)
    print("%s criterion %2d: %s" % ("PASS" if row["passed"] else "FAIL",
                                    num, row["name"]))
    assert row["passed"], row


def test_criterion_01_fourier_closed_form(suite):
    _check(suite, 1)


def test_criterion_02_return_probability(suite):
    _check(suite, 2)


def test_criterion_03_beta_consistency(suite):
    _check(suite, 3)


def test_criterion_04_beta_scaling(suite):
    _check(suite, 4)


def test_criterion_05_saw_counts(suite):
    _check(suite, 5)


def test_criterion_06_lace_reconstruction(suite):
    _check(suite, 6)


def test_criterion_07_percolation(suite):
    _check(suite, 7)


def test_criterion_08_ising(suite):
    _check(suite, 8)


def test_criterion_09_bootstrap_base(suite):
    _check(suite, 9)


def test_criterion_10_inequalities(suite):
    _check(suite, 10)


def test_criterion_11_magnetization_sandwich(suite):
    _check(suite, 11)


def test_run_all_reports_every_criterion(suite):
    summary, out = suite
    assert summary["passed"]
    assert len(summary["results"]) == 11
    for num in range(1, 12):
        assert ("criterion %2d:" % num) in out


def test_the_summary_is_plain_json(suite):
    # `lacelab acceptance` prints it with json.dumps and no fallback for
    # numpy types
    summary, _ = suite
    assert json.loads(json.dumps(summary)) == summary
