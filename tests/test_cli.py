"""Front-end parsing, report shapes, exit codes, and the fault hook."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quadclif.cli import (
    CliInputError,
    JobSpec,
    jobspec_from_input,
    main,
    parse_form_literal,
    parse_pencil_literal,
    render_machine,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv + ["--format", "machine"])
    assert out, "no stdout (stderr: %s)" % err
    return code, json.loads(out)


# ----------------------------------------------------------- literals


def test_literal_shapes():
    q = parse_form_literal("field=Fp:5; n=4; q=diag(1,1,1,2)")
    assert q.n == 4 and q.field.label() == "Fp:5"
    q = parse_form_literal("field=F3; q=H(2)")
    assert q.n == 4
    q = parse_form_literal("q=zero(3)", default_field="Q")
    assert q.n == 3 and not any(any(a for a in r) for r in q.c)
    q = parse_form_literal("field=Q; coeffs=[[1,2],[0,3]]")
    assert str(q.c[0][1]) == "2"
    # the literal's field clause beats the flag default
    q = parse_form_literal("field=Q; q=diag(1)", default_field="F3")
    assert q.field.label() == "Q"


def test_literal_errors_carry_positions():
    with pytest.raises(CliInputError) as e:
        parse_form_literal("field=Fp:9; q=diag(1)")
    assert e.value.pos == 6
    with pytest.raises(CliInputError):
        parse_form_literal("field=Q; n=3; q=diag(1,2)")  # rank mismatch
    with pytest.raises(CliInputError):
        parse_form_literal("field=Q; q=diag(1); q=diag(2)")
    with pytest.raises(CliInputError):
        parse_form_literal("field=Q; q=diag(1,a)")
    with pytest.raises(CliInputError):
        parse_form_literal("field=Q; q=[[1,2],[3,4]]")  # below diagonal
    with pytest.raises(CliInputError):
        parse_form_literal("q=diag(1)")  # no field anywhere
    with pytest.raises(CliInputError):
        parse_form_literal("field=Q")  # no shape
    with pytest.raises(CliInputError):
        parse_form_literal("field=Q; q=diag(1); coeffs=[[1]]")


def test_pencil_literal():
    pen = parse_pencil_literal("field=Fp:3; q1=diag(1,1); q2=diag(1,2)")
    assert pen.n == 2
    with pytest.raises(CliInputError):
        parse_pencil_literal("field=Fp:3; q1=diag(1,1)")
    with pytest.raises(CliInputError):
        parse_pencil_literal("field=Fp:3; q1=diag(1,1); q2=diag(1,2,1)")


def test_at_path_expansion(tmp_path):
    p = tmp_path / "form.txt"
    p.write_text("field=Q; q=diag(1,2,3)\n")
    code, rep = run_json(["analyze", "--form", "@%s" % p])
    assert code == 0 and rep["discriminant"] == "24"
    code, out, err = run_cli(["analyze", "--form", "@%s.missing" % p])
    assert code == 2 and "cannot read" in err


# ----------------------------------------------------------- analyze


def test_analyze_examples():
    code, rep = run_json(["analyze", "--form", "field=Fp:5; q=diag(1,1,1,0)"])
    assert code == 0
    assert rep["radical_dim"] == 1
    assert rep["simple_degeneration"] is True
    assert rep["even_algebra"]["center_kind"] == "dual"

    code, rep = run_json(["analyze", "--form", "field=Q; q=diag(1,2,3)"])
    assert rep["discriminant"] == "24"

    code, rep = run_json(["analyze", "--form", "q=H(2)", "--field", "Fp:3"])
    assert rep["even_algebra"]["center_kind"] == "split"
    assert rep["even_algebra"]["dim"] == 8


def test_analyze_char2_odd_rank_has_no_discriminant():
    code, rep = run_json(["analyze", "--form", "field=F2; q=diag(1,1,1)"])
    assert code == 0 and rep["discriminant"] is None


# ------------------------------------------------------------- reduce


def test_reduce_exit_codes():
    code, rep = run_json(["reduce", "--form", "field=Fp:5; q=diag(1,2,3,4,1,2)"])
    assert code == 0 and rep["conclusive"] and rep["witt_index"] == 2
    # rank-2 anisotropic leftover over Q: the bounded search cannot close it
    code, rep = run_json(["reduce", "--form", "field=Q; q=diag(1,-1,1,1)"])
    assert code == 1 and not rep["conclusive"]


# ------------------------------------------------------------- pencil


def test_pencil_plain_report():
    code, rep = run_json(["pencil", "--pencil",
                          "field=Fp:5; q1=diag(1,1,1,1); q2=diag(1,2,3,4)"])
    assert code == 0
    ana = rep["analysis"]
    assert ana["squarefree"] and ana["simple"]
    assert rep["cover"]["genus"] == 1
    assert rep["center_cover"]["matched"] is True


def test_pencil_scenario_rank_is_validated():
    code, out, err = run_cli(["pencil", "--scenario", "elliptic", "--pencil",
                              "field=Q; q1=diag(1,1); q2=diag(1,2)"])
    assert code == 2 and "rank 4" in err


def test_scenario_defaults():
    code, rep = run_json(["pencil", "--scenario", "elliptic"])
    assert code == 0
    assert rep["brauer"]["kind"] == "trivial"
    assert rep["brauer"]["witness_degree"] <= 0

    code, rep = run_json(["pencil", "--scenario", "delpezzo"])
    assert code == 0
    assert rep["isotropy_witness"]["found"] and rep["isotropy_witness"]["degree"] <= 3

    code, rep = run_json(["pencil", "--scenario", "fourfold"])
    assert code == 0
    assert rep["plane_search"]["found"] and rep["plane_search"]["beta_trivial"]
    assert rep["plane_search"]["candidates"] == 11011


def test_elliptic_unknown_is_exit_1():
    code, rep = run_json(["pencil", "--scenario", "elliptic", "--pencil",
                          "field=Q; q1=diag(1,1,1,1); q2=diag(1,2,3,4)",
                          "--budget-height", "3", "--budget-enum", "3000"])
    assert code == 1
    assert rep["brauer"]["kind"] == "unknown"


# --------------------------------------------------------- lagrangian


def test_lagrangian_command():
    code, rep = run_json(["lagrangian", "--form", "field=Fp:3; q=diag(1,1,1,2)"])
    assert code == 0
    assert rep["count"] == 20 and rep["component_sizes"] == [10, 10]
    assert rep["extension_used"] and rep["frobenius_swaps"] is True
    assert len(rep["subspaces"]) == 20
    assert {s["component"] for s in rep["subspaces"]} == {0, 1}


def test_lagrangian_rejects_odd_rank():
    code, out, err = run_cli(["lagrangian", "--form", "field=Fp:3; q=diag(1,1,1)"])
    assert code == 2


# ------------------------------------------------- output conventions


def test_machine_output_is_sorted_and_roundtrips():
    code, out, err = run_cli(["analyze", "--form", "field=Q; q=diag(1,2,3)",
                              "--format", "machine"])
    rep = json.loads(out)
    assert out == render_machine(rep)  # sorted keys, stable formatting
    assert "budget_degree" not in rep["input"]
    spec = jobspec_from_input(rep["input"])
    assert spec == JobSpec(command="analyze", form="field=Q; q=diag(1,2,3)",
                           format="machine")


def test_human_output_renders():
    code, out, err = run_cli(["analyze", "--form", "field=Q; q=diag(1,2,3)"])
    assert code == 0
    assert "discriminant: 24" in out
    assert "simple_degeneration: yes" in out


# ----------------------------------------------------------- selftest


def test_selftest_subset_passes():
    code, rep = run_json(["selftest", "--check", "c03-hyperbolic-fibers",
                          "--check", "c10-rank4-triviality"])
    assert code == 0
    assert rep["passed"] == 2 and rep["failed"] == 0
    assert [c["name"] for c in rep["checks"]] == [
        "c03-hyperbolic-fibers", "c10-rank4-triviality"]


def test_selftest_unknown_check_is_input_error():
    code, out, err = run_cli(["selftest", "--check", "c99-nope"])
    assert code == 2


def test_selftest_flag_shorthand():
    code, rep = run_json(["--selftest", "--check", "c03-hyperbolic-fibers"])
    assert code == 0 and rep["passed"] == 1


def test_fault_injection_fails_with_named_invariant():
    code, rep = run_json(["selftest", "--check", "c01-clifford-dimension",
                          "--fault-inject", "clifford-mul"])
    assert code == 3
    assert rep["failed"] == 1
    assert "invariant falsified" in rep["checks"][0]["detail"]
    assert "associativity" in rep["checks"][0]["detail"]
    # the hook is cleared afterwards
    code, rep = run_json(["selftest", "--check", "c03-hyperbolic-fibers"])
    assert code == 0


def test_unknown_fault_name():
    code, out, err = run_cli(["selftest", "--fault-inject", "bogus"])
    assert code == 2 and "unknown fault" in err


def test_selftest_human_output_has_timings():
    code, out, err = run_cli(["selftest", "--check", "c03-hyperbolic-fibers"])
    assert code == 0
    assert "timings:" in out and "1 passed, 0 failed" in out
