"""Front-end parsing, report shapes, exit codes, and the fault hook."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadclif.cli import (
    EXIT_INTERNAL,
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
    with pytest.raises(CliInputError) as e:
        parse_form_literal("field=Q; q=H(1,2)")
    assert e.value.pos == 11
    with pytest.raises(CliInputError) as e:
        parse_form_literal("field=Fp:3; q=zero(2,3)")
    assert e.value.pos == 14


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


def test_library_preconditions_are_input_errors():
    # each is a precondition of the library call the job makes, checked
    # where the job is built
    cases = [
        (["pencil", "--scenario", "delpezzo", "--pencil",
          "field=F7; q1=diag(1,1,2,1,1); q2=diag(2,1,1,2,1)"], "F2, F3 or F5"),
        (["pencil", "--scenario", "fourfold", "--pencil",
          "field=Q; q1=H(3); q2=diag(1,2,3,4,5,6)"], "F2, F3 or F5"),
        (["pencil", "--scenario", "elliptic", "--pencil",
          "field=Q; q1=diag(1,1,1,1); q2=diag(1,1,2,3)"], "simply degenerating"),
        (["pencil", "--pencil", "field=F2; q1=diag(1,1,1); q2=diag(1,0,1)"],
         "characteristic 2"),
        (["lagrangian", "--form", "field=Q; q=diag(1,1)"], "finite field"),
        (["lagrangian", "--form", "field=F5; q=diag(1,1,1,0)"], "regular"),
        # a nonsquare center sends rank 4 over F7 to F49, past the budget
        (["lagrangian", "--form", "field=F7; q=diag(1,1,1,3)"], "49 elements"),
    ]
    for argv, words in cases:
        code, out, err = run_cli(argv)
        assert code == 2 and not out, argv
        assert err.startswith("input error: ") and words in err, (argv, err)


def test_internal_error_is_not_an_input_error(monkeypatch):
    import quadclif.cli as cli_mod

    def broken(pen):
        raise ValueError("an internal bug")
    monkeypatch.setattr(cli_mod, "analyze", broken)
    code, out, err = run_cli(["pencil", "--pencil",
                              "field=Fp:5; q1=diag(1,1,1,1); q2=diag(1,2,3,4)"])
    assert code == EXIT_INTERNAL == 4 and not out
    assert err.startswith("internal error: ValueError: an internal bug\n")
    assert "Traceback" in err  # kept for the bug report


@pytest.mark.parametrize("argv", [
    ["pencil", "--pencil=--"],
    ["analyze", "--form=--"],
    ["analyze", "--form", "field=Q; q=diag(1,1)", "--field=--"],
    ["reduce", "--form", "q=diag(1,-1)", "--field=--"],
    ["selftest", "--check", "c07-function-field-witness", "--check=--"],
    ["reduce", "--form", "field=Q; q=diag(1,-1)", "--budget-height=--"],
])
def test_an_option_value_of_two_dashes_is_an_input_error(argv):
    # argparse hands '--' over as an empty list
    code, out, err = run_cli(argv)
    assert code == 2 and not out
    assert err.startswith("input error: --") and err.endswith("needs a value other than '--'\n")


def test_the_parser_is_built_once_and_answers_as_a_fresh_one(monkeypatch):
    import quadclif.cli as cli_mod
    jobs = [
        ["selftest", "--check", "c07-function-field-witness", "--check", "c10-rank4-triviality"],
        ["analyze", "--form", "field=F3; q=diag(1,2,1)"],
        ["selftest", "--check", "c10-rank4-triviality"],
        ["reduce", "--form", "q=diag(1,-1,2)", "--field", "Q", "--budget-height", "3"],
        ["pencil", "--scenario", "delpezzo"],
        ["selftest", "--check", "c07-function-field-witness"],
        ["analyze", "--form", "field=Q; q=H(1)"],
    ]
    cached = [run_cli(argv + ["--format", "machine"]) for argv in jobs]
    parser = cli_mod._PARSER
    assert parser is not None
    fresh = []
    for argv in jobs:
        monkeypatch.setattr(cli_mod, "_PARSER", None)
        fresh.append(run_cli(argv + ["--format", "machine"]))
    assert cached == fresh
    # no list of an append option survives into the next call
    checks = [json.loads(out)["input"]["checks"] for code, out, _ in cached if out
              and json.loads(out)["command"] == "selftest"]
    assert checks == [["c07-function-field-witness", "c10-rank4-triviality"],
                      ["c10-rank4-triviality"], ["c07-function-field-witness"]]
    # nor a value of an option the next call does not give
    assert [json.loads(cached[k][1])["input"]["field"] for k in (1, 3, 6)] == [None, "Q", None]
    assert [json.loads(cached[k][1])["input"]["budget_height"] for k in (3, 6)] == [3, 10]
    assert all(code in (0, 1) for code, _, _ in cached)


# exit code, stdout and stderr of every command line of tests/cli_corpus.py,
# written before the discriminant and the sweep over Q ran on integer arrays
PINNED_REPORTS = json.loads((Path(__file__).parent / "data" / "cli_reports.json").read_text())


def test_cli_reports_match_the_pinned_answers():
    from cli_corpus import cli_corpus, run
    assert [pin["argv"] for pin in PINNED_REPORTS] == cli_corpus()
    for pin in PINNED_REPORTS:
        assert run(pin["argv"]) == (pin["code"], pin["stdout"], pin["stderr"]), pin["argv"]
    commands = {(pin["argv"][0], pin["argv"][2] if pin["argv"][1] == "--scenario" else None,
                 pin["code"]) for pin in PINNED_REPORTS}
    assert commands >= {("analyze", None, 0), ("reduce", None, 0), ("reduce", None, 1),
                        ("pencil", None, 0), ("pencil", "elliptic", 0),
                        ("pencil", "elliptic", 1), ("pencil", "elliptic", 2),
                        ("pencil", "delpezzo", 0), ("pencil", "fourfold", 0)}


def test_rank8_pencil_skips_the_center_cover_comparison():
    # the even Clifford algebra stops at rank 7, as in analyze
    code, rep = run_json(["pencil", "--pencil",
                          "field=F11; q1=diag(1,1,1,1,1,1,1,1); "
                          "q2=diag(1,2,3,4,5,6,7,8)"])
    assert code == 0
    assert rep["analysis"]["simple"] and rep["center_cover"] is None


def test_elliptic_unknown_is_exit_1():
    code, rep = run_json(["pencil", "--scenario", "elliptic", "--pencil",
                          "field=Q; q1=diag(1,1,1,1); q2=diag(1,2,3,4)",
                          "--budget-height", "3"])
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
    assert "budget_enum" not in rep["input"]
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


@pytest.mark.parametrize("form", ["field=F5; q=diag(1,2)", "field=Q; q=diag(1,3)",
                                  "field=F7; q=diag(1,1)"])
def test_fault_in_a_rank_two_center_is_refused(form):
    # the corrupted constant keeps a rank-2 algebra associative, so only
    # the discriminant of the form exposes the wrong center
    code, out, err = run_cli(["analyze", "--form", form, "--fault-inject", "clifford-mul",
                              "--format", "machine"])
    assert code == 3 and not out
    assert "center-discriminant" in err
    code, out, err = run_cli(["analyze", "--form", form, "--format", "machine"])
    assert code == 0


def test_unknown_fault_name():
    code, out, err = run_cli(["selftest", "--fault-inject", "bogus"])
    assert code == 2 and "unknown fault" in err


def test_selftest_human_output_has_timings():
    code, out, err = run_cli(["selftest", "--check", "c03-hyperbolic-fibers"])
    assert code == 0
    assert "timings:" in out and "1 passed, 0 failed" in out


def test_simple_fourfold_without_a_line_is_refused(monkeypatch):
    # the default fourfold pencil is simple over F3, so a plane search
    # that finds nothing falsifies Lang's theorem on its Fano lines
    import quadclif.cli as cli_mod
    from quadclif.pencil import PlaneSearchReport
    monkeypatch.setattr(cli_mod, "common_isotropic_plane_rank6",
                        lambda q1, q2: PlaneSearchReport(None, 11011, False))
    code, out, err = run_cli(["pencil", "--scenario", "fourfold", "--format", "machine"])
    assert code == 3 and not out
    assert "fano-lines" in err


# ------------------------------------------------------ literal fuzzing

# pieces of the form and pencil literal grammars, glued in any order
_LITERAL_PIECES = ["field=", "Q", "Fp:", "F", "q=", "q1=", "q2=", "coeffs=", "n=",
                   "diag(", "H(", "zero(", "(", ")", "[", "]", ",", ";", " ",
                   "=", ":", "-", "0", "1", "2", "3", "5", "@", "x", "1.5"]


def _shape(n):
    ints = st.integers(-3, 3)
    rows = st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)
    shapes = [st.lists(ints, min_size=n, max_size=n).map(
                  lambda e: "diag(%s)" % ",".join(map(str, e))),
              st.just("zero(%d)" % n),
              rows.map(lambda r: str([[a if j >= i else 0 for j, a in enumerate(row)]
                                      for i, row in enumerate(r)]))]
    if n % 2 == 0:
        shapes.append(st.just("H(%d)" % (n // 2)))
    return st.one_of(shapes)


def _literal(slots):
    """Literals whose clauses are all well formed, one shape clause per
    slot with its key drawn from the slot, the same with one piece
    spliced in or cut out, and free strings of grammar pieces."""
    field = st.sampled_from(["Q", "Fp:2", "F3", "Fp:5", "F4", "Fp:x", ""]).map("field=".__add__)

    def clauses(n):
        shapes = [st.tuples(st.sampled_from(keys), _shape(n)).map("=".join) for keys in slots]
        return st.tuples(st.lists(field, max_size=1), st.lists(st.just("n=%d" % n), max_size=1),
                         st.tuples(*shapes)).map(lambda t: t[0] + t[1] + list(t[2]))

    whole = st.integers(1, 4).flatmap(clauses).flatmap(st.permutations).map("; ".join)
    spliced = st.tuples(whole, st.integers(0, 40), st.integers(0, 3),
                        st.sampled_from(_LITERAL_PIECES + [""])).map(
        lambda t: t[0][:t[1]] + t[3] + t[0][t[1] + t[2]:])
    glued = st.lists(st.one_of(st.sampled_from(_LITERAL_PIECES), st.text(max_size=2)),
                     max_size=12).map("".join)
    return st.one_of(whole, spliced, glued)


def _assert_parses_or_is_an_input_error(command, flag, text, field):
    # any number in the text stays below 10, so that a literal which
    # parses names a form of rank at most 18 and the job stays quick
    assume(all(int(d) < 10 for d in re.findall(r"\d+", text)))
    # flag=text, so that a literal starting with '-' is not an option
    argv = [command, "%s=%s" % (flag, text), "--format", "machine"]
    code, out, err = run_cli(argv + (["--field", field] if field else []))
    assert code != EXIT_INTERNAL, err
    if code == 2:
        assert err.startswith("input error: ") and not out
    else:
        assert code in (0, 1) and json.loads(out)["command"] == command


@settings(max_examples=150, deadline=None)
@given(text=_literal([("q", "coeffs")]), field=st.sampled_from([None, "Q", "F3"]))
def test_form_literal_fuzz(text, field):
    _assert_parses_or_is_an_input_error("analyze", "--form", text, field)


@settings(max_examples=150, deadline=None)
@given(text=_literal([("q1",), ("q2",)]), field=st.sampled_from([None, "Q", "F5"]))
def test_pencil_literal_fuzz(text, field):
    _assert_parses_or_is_an_input_error("pencil", "--pencil", text, field)
