"""Acceptance battery, one criterion per test at its stated budget.

The battery is run once per session and shared; the determinism
criterion at the end runs the actual selftest command once more on top
of that and compares its machine report with the one checked in under
data/, so this module is by far the slowest part of the suite.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from quadclif import acceptance
from quadclif.cli import main

SELFTEST_MACHINE = Path(__file__).parent / "data" / "selftest_machine.json"

TIME_BUDGETS = {
    "c01-clifford-dimension": 10.0,
    "c02-orthogonal-sum": 30.0,
    "c03-hyperbolic-fibers": 5.0,
    "c04-reduction-invariance": 60.0,
    "c05-matrix-algebra-witness": 15.0,
    "c06-isotropy-correspondence": 60.0,
    "c07-function-field-witness": 120.0,
    "c08-cover-genus": 10.0,
    "c09-components-vs-center": 30.0,
    "c10-rank4-triviality": 5.0,
    "c11-rank6-plane": 120.0,
}


@pytest.fixture(scope="module")
def battery():
    return {r.name: r for r in acceptance.run_all()}


def _criterion(battery, name):
    r = battery[name]
    assert r.passed, "%s failed: %s" % (name, r.detail)
    assert r.seconds < TIME_BUDGETS[name], (
        "%s exceeded its budget: %.1fs" % (name, r.seconds))


def test_c01_clifford_dimension_law(battery):
    _criterion(battery, "c01-clifford-dimension")


def test_c02_orthogonal_sum_formula(battery):
    _criterion(battery, "c02-orthogonal-sum")


def test_c03_hyperbolic_split_structure(battery):
    _criterion(battery, "c03-hyperbolic-fibers")


def test_c04_reduction_invariance(battery):
    _criterion(battery, "c04-reduction-invariance")


def test_c05_matrix_algebra_witness(battery):
    _criterion(battery, "c05-matrix-algebra-witness")


def test_c06_isotropy_correspondence(battery):
    _criterion(battery, "c06-isotropy-correspondence")


def test_c07_function_field_witness_bound(battery):
    _criterion(battery, "c07-function-field-witness")


def test_c08_cover_genus(battery):
    _criterion(battery, "c08-cover-genus")


def test_c09_components_vs_center(battery):
    _criterion(battery, "c09-components-vs-center")


def test_c10_rank4_triviality_chain(battery):
    _criterion(battery, "c10-rank4-triviality")


def test_c11_rank6_line_check(battery):
    _criterion(battery, "c11-rank6-plane")


def _selftest_machine_bytes():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["selftest", "--format", "machine"])
    assert code == 0, err.getvalue()
    return out.getvalue().encode()


def test_c12_selftest_determinism():
    # the machine report is pinned byte for byte: a change that alters
    # any answer of the battery shows up here
    assert _selftest_machine_bytes() == SELFTEST_MACHINE.read_bytes()
