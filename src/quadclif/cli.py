"""Command-line front end.

Subcommands: analyze (one form), reduce (iterated hyperbolic splitting),
pencil (two-form analysis, covers, verdicts), lagrangian (maximal
isotropic subspaces vs the even center), selftest (acceptance battery).

Form literal grammar, clauses separated by ';' with whitespace ignored:

    field=Q | field=Fp:5 | field=F5
    n=4                       optional, cross-checked against the shape
    q=diag(1,1,1,2)           diagonal entries, integers
    q=H(2)                    hyperbolic form of m planes (rank 2m)
    q=zero(3)                 the zero form of rank 3
    q=[[1,2],[0,3]]           upper-triangular integer coefficient rows
    coeffs=[[...],...]        alias for q=[[...]]

A pencil literal uses the same clauses with q1= and q2= instead of q=.
The field may come from the literal or the --field flag; the literal
wins.  Any --field/--form/--pencil value of the shape @path is replaced
by the contents of the file at path.  `--selftest` anywhere on the
command line is shorthand for the selftest subcommand.

Machine output is JSON with sorted keys and every scalar an exact
string; it embeds the resolved input under "input", and feeding that
block back through jobspec_from_input reproduces the job.  Exit codes:
0 success, 1 inconclusive (an unknown or unresolved verdict is
present), 2 invalid input, 3 internal invariant falsified, 4 internal
error (any other exception: a bug, reported as "internal error").
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, fields

from . import acceptance
from .clifford import even_center_report, inject_fault
from .lagrangian import enumeration_in_budget, stein_vs_center
from .pencil import (
    Pencil,
    analyze,
    brauer_triviality_rank4,
    center_matches_cover,
    common_isotropic_plane_rank6,
    cover_model,
    pencil_isotropy_witness,
)
from .quadform import QuadraticForm
from .rings import QQ, InvariantViolation, PrimeField, scalar_str
from .splitting import SearchBudget, reduce_fully

SCENARIO_RANK = {"elliptic": 4, "delpezzo": 5, "fourfold": 6}

SCENARIO_DEFAULTS = {
    "elliptic": "field=Q; q1=diag(1,1,1,-3); q2=diag(1,2,-1,-2)",
    "delpezzo": "field=Fp:3; q1=diag(1,1,2,1,1); q2=diag(2,1,1,2,1)",
    "fourfold": ("field=Fp:3;"
                 " q1=[[0,0,1,0,2,1],[0,0,0,1,1,0],[0,0,1,2,0,1],"
                 "[0,0,0,2,1,0],[0,0,0,0,1,2],[0,0,0,0,0,1]];"
                 " q2=[[0,0,2,1,0,0],[0,0,1,0,2,2],[0,0,2,0,1,0],"
                 "[0,0,0,1,0,2],[0,0,0,0,2,1],[0,0,0,0,0,2]]"),
}

FAULT_NAMES = ("clifford-mul",)

# exit code for an exception that is neither an input error nor a named
# invariant: a bug in the program
EXIT_INTERNAL = 4


class CliInputError(Exception):
    """Invalid literal or flag combination; carries a char position."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = "char %d: %s" % (pos, message)
        super().__init__(message)


@dataclass(frozen=True)
class JobSpec:
    command: str
    field: str = None
    form: str = None
    pencil: str = None
    budget_height: int = 10
    format: str = "human"
    scenario: str = None
    fault: str = None
    checks: tuple = None


def input_block(spec):
    """Every JobSpec field by name; checks as a list, as JSON has it."""
    block = {f.name: getattr(spec, f.name) for f in fields(JobSpec)}
    if spec.checks is not None:
        block["checks"] = list(spec.checks)
    return block


def jobspec_from_input(block):
    """Rebuild the JobSpec from an emitted report's input block."""
    values = {f.name: block[f.name] for f in fields(JobSpec) if f.name in block}
    if values.get("checks") is not None:
        values["checks"] = tuple(values["checks"])
    return JobSpec(**values)


# ----------------------------------------------------------- parsing


def parse_field(text, pos=0):
    t = text.strip()
    try:
        if t == "Q":
            return QQ
        if t.startswith("Fp:"):
            return PrimeField(int(t[3:]))
        if len(t) > 1 and t[0] == "F" and t[1:].isdigit():
            return PrimeField(int(t[1:]))
    except ValueError as e:
        raise CliInputError(str(e), pos) from None
    raise CliInputError("unknown field %r (use Q, Fp:p, or Fp)" % t, pos)


def _parse_clauses(text):
    """Split a literal into (key, value, position-of-value) triples."""
    out = []
    cursor = 0
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if stripped:
            if "=" not in stripped:
                raise CliInputError(
                    "clause %r has no '='" % stripped,
                    cursor + chunk.index(stripped[0]))
            key, _, val = stripped.partition("=")
            vpos = cursor + chunk.index("=") + 1
            out.append((key.strip(), val.strip(), vpos))
        cursor += len(chunk) + 1
    return out


def _parse_int_list(body, pos):
    try:
        vals = [int(x) for x in body.split(",")] if body.strip() else []
    except ValueError:
        raise CliInputError("expected a comma-separated integer list, got %r"
                            % body, pos) from None
    if not vals:
        raise CliInputError("empty argument list", pos)
    return vals


def _parse_shape(val, pos):
    """One form shape: ('diag', list) | ('H', m) | ('zero', k) | ('rows', rows)."""
    if val.startswith("diag(") and val.endswith(")"):
        return ("diag", _parse_int_list(val[5:-1], pos))
    for kind, arg in (("H", "m"), ("zero", "k")):
        if val.startswith(kind + "(") and val.endswith(")"):
            vals = _parse_int_list(val[len(kind) + 1:-1], pos)
            if len(vals) != 1:
                raise CliInputError("%s(%s) takes one integer, got %d"
                                    % (kind, arg, len(vals)), pos)
            if vals[0] < 1:
                raise CliInputError("%s(%s) needs %s >= 1" % (kind, arg, arg), pos)
            return (kind, vals[0])
    if val.startswith("["):
        try:
            rows = ast.literal_eval(val)
        except (ValueError, SyntaxError) as e:
            raise CliInputError("bad coefficient rows: %s" % e, pos) from None
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(r, list) for r in rows)
                or not all(isinstance(e, int) for r in rows for e in r)):
            raise CliInputError("coefficient rows must be a list of integer "
                                "lists", pos)
        return ("rows", rows)
    raise CliInputError("unrecognized form shape %r (diag(...), H(m), "
                        "zero(k), or [[...],...])" % val, pos)


def _build_form(field, shape, pos):
    kind, data = shape
    try:
        if kind == "diag":
            return QuadraticForm.diagonal(field, data)
        if kind == "H":
            return QuadraticForm.hyperbolic(field, data)
        if kind == "zero":
            return QuadraticForm.zero_form(field, data)
        return QuadraticForm.of_ints(field, data)
    except ValueError as e:
        raise CliInputError(str(e), pos) from None


def _scan_literal(text, form_keys, default_field):
    """Collect field, optional n, and the recognized form clauses."""
    field = None
    rank = None
    shapes = {}
    for key, val, pos in _parse_clauses(text):
        if key == "field":
            field = parse_field(val, pos)
        elif key == "n":
            try:
                rank = int(val)
            except ValueError:
                raise CliInputError("n must be an integer", pos) from None
        elif key in form_keys:
            if key in shapes:
                raise CliInputError("duplicate clause %r" % key, pos)
            shapes[key] = (_parse_shape(val, pos), pos)
        else:
            raise CliInputError("unknown clause %r (expected field, n, %s)"
                                % (key, ", ".join(sorted(form_keys))), pos)
    if field is None:
        if default_field is None:
            raise CliInputError("no field given (field= clause or --field)")
        field = parse_field(default_field)
    forms = {}
    for key, (shape, pos) in shapes.items():
        q = _build_form(field, shape, pos)
        if rank is not None and q.n != rank:
            raise CliInputError("n=%d but %s has rank %d" % (rank, key, q.n),
                                pos)
        forms[key] = q
    return forms


def parse_form_literal(text, default_field=None):
    forms = _scan_literal(text, ("q", "coeffs"), default_field)
    if len(forms) != 1:
        raise CliInputError("need exactly one of q= or coeffs=, got %d"
                            % len(forms))
    return next(iter(forms.values()))


def parse_pencil_literal(text, default_field=None):
    forms = _scan_literal(text, ("q1", "q2"), default_field)
    missing = [k for k in ("q1", "q2") if k not in forms]
    if missing:
        raise CliInputError("missing clause(s): %s" % ", ".join(missing))
    try:
        return Pencil(forms["q1"], forms["q2"])
    except ValueError as e:
        raise CliInputError(str(e)) from None


# ------------------------------------------------------ serialization


def _vec(v):
    return [scalar_str(a) for a in v]


def _form_dict(q):
    return {
        "field": q.field.label(),
        "n": q.n,
        "rows": [[scalar_str(a) for a in row] for row in q.c],
    }


def _binary_form_dict(bf):
    return {
        "degree": bf.deg,
        "coeffs": [scalar_str(c) for c in bf.coeffs],
    }


def _no_floats(obj, path="report"):
    if isinstance(obj, float):
        raise InvariantViolation("exact-output", "float leaked into %s" % path)
    if isinstance(obj, dict):
        for k, v in obj.items():
            _no_floats(v, "%s.%s" % (path, k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _no_floats(v, "%s[%d]" % (path, i))


def render_machine(report):
    _no_floats(report)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _human_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append("%s%s:" % (pad, k))
                lines.extend(_human_lines(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, _human_scalar(v)))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_human_lines(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, _human_scalar(v)))
    else:
        lines.append("%s%s" % (pad, _human_scalar(obj)))
    return lines


def _human_scalar(v):
    if v is None:
        return "~"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[]"
    if isinstance(v, dict):
        return "{}"
    return str(v)


def render_human(report):
    return "\n".join(_human_lines(report)) + "\n"


# ----------------------------------------------------------- commands


def _budget(spec):
    if spec.budget_height < 1:
        raise CliInputError("--budget-height must be positive")
    return SearchBudget(height=spec.budget_height)


def cmd_analyze(spec):
    q = parse_form_literal(spec.form, spec.field)
    try:
        disc = q.discriminant()
        disc_str = scalar_str(disc)
    except ValueError:
        disc_str = None  # odd rank in characteristic 2
    rad = q.radical_basis()
    body = {
        "form": _form_dict(q),
        "discriminant": disc_str,
        "radical_dim": len(rad),
        "radical_basis": [_vec(v) for v in rad],
        "regular_rank": q.regular_rank(),
        "simple_degeneration": q.regular_rank() >= q.n - 1,
    }
    if q.n <= 7:
        alg, rep = even_center_report(q)
        body["even_algebra"] = {
            "dim": alg.dim,
            "center_dim": rep.dim,
            "center_kind": rep.kind,
            "delta": scalar_str(rep.delta) if rep.delta is not None else None,
        }
    else:
        body["even_algebra"] = None
    return body, 0


def cmd_reduce(spec):
    q = parse_form_literal(spec.form, spec.field)
    rep = reduce_fully(q, _budget(spec))
    body = {
        "form": _form_dict(q),
        "witt_index": rep.witt_index,
        "hyperbolic_pairs": [[_vec(v), _vec(w)] for v, w in rep.pairs],
        "anisotropic_form": _form_dict(rep.anisotropic_form),
        "anisotropic_basis": [_vec(v) for v in rep.anisotropic_basis],
        "radical_dim": len(rep.radical_basis),
        "radical_basis": [_vec(v) for v in rep.radical_basis],
        "conclusive": rep.conclusive,
        "shape": rep.describe(),
    }
    return body, 0 if rep.conclusive else 1


def cmd_pencil(spec):
    literal = spec.pencil
    if literal is None:
        if spec.scenario is None:
            raise CliInputError("pencil command needs --pencil or --scenario")
        literal = SCENARIO_DEFAULTS[spec.scenario]
    pen = parse_pencil_literal(literal, spec.field)
    field = pen.field
    if pen.n % 2 and field.characteristic == 2:
        raise CliInputError("odd-rank pencils have no discriminant in "
                            "characteristic 2")
    if spec.scenario:
        want = SCENARIO_RANK[spec.scenario]
        if pen.n != want:
            raise CliInputError("scenario %s expects rank %d, got %d"
                                % (spec.scenario, want, pen.n))
        if (spec.scenario in ("delpezzo", "fourfold")
                and not (isinstance(field, PrimeField) and field.p <= 5)):
            raise CliInputError("scenario %s searches over F2, F3 or F5, got %s"
                                % (spec.scenario, field.label()))
    ana = analyze(pen)
    if spec.scenario == "elliptic" and not ana.simple:
        raise CliInputError("scenario elliptic needs a simply degenerating "
                            "pencil (every member of radical rank <= 1)")
    body = {
        "pencil": {"q1": _form_dict(pen.q1), "q2": _form_dict(pen.q2)},
        "analysis": {
            "field": ana.field_label,
            "n": ana.n,
            "discriminant": _binary_form_dict(ana.delta),
            "squarefree": ana.squarefree,
            "identically_degenerate": ana.identically_degenerate,
            "exhaustive": ana.exhaustive,
            "simple": ana.simple,
            "degenerate_count": ana.degenerate_count(),
            "degenerations": [
                {
                    "point": _vec(p.point) if p.point is not None else None,
                    "factor": p.factor,
                    "degree": p.degree,
                    "multiplicity": p.multiplicity,
                    "radical_rank": p.radical_rank,
                }
                for p in ana.points
            ],
        },
    }
    if ana.squarefree and field.characteristic != 2:
        cm = cover_model(ana)
        body["cover"] = {
            "genus": cm.genus,
            "branch_points": cm.branch_points,
            "infinity_branched": cm.infinity_branched,
            "model_coeffs": [scalar_str(c) for c in cm.model_coeffs],
        }
    else:
        body["cover"] = None
    size = field.size()
    if (pen.n % 2 == 0 and pen.n <= 7 and field.characteristic != 2 and ana.simple
            and size is not None and size <= 11):
        match = center_matches_cover(pen)
        body["center_cover"] = {
            "matched": match["matched"],
            "normalization": scalar_str(match["constant"])
            if match["constant"] is not None else None,
            "samples": len(match["samples"]),
        }
    else:
        body["center_cover"] = None
    code = 0
    if spec.scenario == "elliptic":
        verdict = brauer_triviality_rank4(pen.q1, pen.q2, _budget(spec))
        body["brauer"] = {
            "kind": verdict.kind,
            "witness": _vec(verdict.witness) if verdict.witness else None,
            "witness_degree": verdict.witness_degree,
            "scope": verdict.scope,
        }
        if verdict.kind == "unknown":
            code = 1
    elif spec.scenario == "delpezzo":
        v, _ = pencil_isotropy_witness(pen.q1, pen.q2, max_degree=3)
        body["isotropy_witness"] = {
            "found": v is not None,
            "degree": max(c.degree() for c in v) if v is not None else -1,
            "vector": [str(c) for c in v] if v is not None else None,
        }
        if v is None:
            code = 1
    elif spec.scenario == "fourfold":
        rep = common_isotropic_plane_rank6(pen.q1, pen.q2)
        body["plane_search"] = {
            "found": rep.plane is not None,
            "plane": [_vec(u) for u in rep.plane] if rep.plane else None,
            "candidates": rep.candidates,
            "beta_trivial": rep.beta_trivial,
        }
        # a simple pencil cuts out a smooth threefold whose Fano variety
        # of lines is a torsor under Jac(C); over F_q, q odd, Lang's
        # theorem gives it a rational point, i.e. a common plane
        if rep.plane is None and ana.simple and field.characteristic % 2:
            raise InvariantViolation(
                "fano-lines", "simple rank-6 pencil over %s without a common "
                "isotropic plane, but its threefold must carry a line"
                % field.label())
    return body, code


def cmd_lagrangian(spec):
    q = parse_form_literal(spec.form, spec.field)
    field, n = q.field, q.n
    if field.size() is None or field.characteristic == 2:
        raise CliInputError("lagrangian needs a finite field of odd "
                            "characteristic, got %s" % field.label())
    if n not in (2, 4, 6):
        raise CliInputError("lagrangian needs rank 2, 4 or 6, got %d" % n)
    if q.radical_basis():
        raise CliInputError("lagrangian needs a regular form")
    # the center discriminant lies in the class of (-1)^(n/2) disc(q); a
    # nonsquare one moves the enumeration to the quadratic extension
    size = field.size()
    if not field.is_square(field.from_int((-1) ** (n // 2)) * q.discriminant()):
        size *= size
    if not enumeration_in_budget(size, n):
        raise CliInputError("lagrangian enumerates rank %d over a field of %d "
                            "elements, beyond the budget (9 up to rank 6, 25 "
                            "up to rank 4)" % (n, size))
    rep = stein_vs_center(q)
    body = {
        "form": _form_dict(q),
        "m": rep.m,
        "delta_is_square": rep.delta_is_square,
        "center_kind": rep.center_kind,
        "extension_used": rep.extension_used,
        "enumeration_field": rep.lagrangians.field_label,
        "count": rep.count,
        "component_sizes": list(rep.component_sizes),
        "frobenius_swaps": rep.frobenius_swaps,
        "matches_center": rep.matches_center,
        "subspaces": [
            {"basis": list(basis), "component": label}
            for basis, label in zip(rep.lagrangians.basis_strings(),
                                    rep.lagrangians.labels)
        ],
    }
    return body, 0


def cmd_selftest(spec):
    unknown = set(spec.checks or ()) - set(acceptance.check_names())
    if unknown:
        raise CliInputError("unknown check(s): %s" % ", ".join(sorted(unknown)))
    results = acceptance.run_all(spec.checks)
    body = {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
    }
    return body, (0 if all(r.passed for r in results) else 3), results


# ------------------------------------------------------------ driver


def run_job(spec):
    """Execute a JobSpec.  Returns (report, exit_code, extras)."""
    extras = None
    if spec.fault is not None:
        if spec.fault not in FAULT_NAMES:
            raise CliInputError("unknown fault %r (known: %s)"
                                % (spec.fault, ", ".join(FAULT_NAMES)))
        inject_fault(spec.fault)
    try:
        if spec.command == "analyze":
            body, code = cmd_analyze(spec)
        elif spec.command == "reduce":
            body, code = cmd_reduce(spec)
        elif spec.command == "pencil":
            body, code = cmd_pencil(spec)
        elif spec.command == "lagrangian":
            body, code = cmd_lagrangian(spec)
        elif spec.command == "selftest":
            body, code, extras = cmd_selftest(spec)
        else:
            raise CliInputError("unknown command %r" % spec.command)
    finally:
        if spec.fault is not None:
            inject_fault(None)
    report = {"command": spec.command, "input": input_block(spec)}
    report.update(body)
    return report, code, extras


def _expand_at(value):
    if value is not None and value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError as e:
            raise CliInputError("cannot read %s: %s" % (value[1:], e)) from None
    return value


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help="default field when the literal has none")
    common.add_argument("--format", choices=("human", "machine"),
                        default="human", help="report format")
    common.add_argument("--budget-height", type=int, default=10,
                        help="rational search height bound")
    common.add_argument("--fault-inject", dest="fault", metavar="NAME",
                        help="test hook: corrupt a named internal (see docs)")

    p = argparse.ArgumentParser(
        prog="quadclif",
        description="Exact analysis of quadratic forms, their even "
                    "Clifford algebras, and pencils of quadrics.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common],
                        help="one form: discriminant, radical, even algebra")
    pa.add_argument("--form", required=True, help="form literal or @path")

    pr = sub.add_parser("reduce", parents=[common],
                        help="isotropic search and hyperbolic splitting chain")
    pr.add_argument("--form", required=True, help="form literal or @path")

    pp = sub.add_parser("pencil", parents=[common],
                        help="pencil analysis, discriminant cover, verdicts")
    pp.add_argument("--pencil", help="pencil literal or @path")
    pp.add_argument("--scenario", choices=sorted(SCENARIO_RANK),
                    help="scenario template (sets rank and extra verdicts)")

    pl = sub.add_parser("lagrangian", parents=[common],
                        help="maximal isotropic subspaces vs the center")
    pl.add_argument("--form", required=True, help="form literal or @path")

    ps = sub.add_parser("selftest", parents=[common],
                        help="run the acceptance battery")
    ps.add_argument("--check", action="append", dest="checks", metavar="NAME",
                    help="run only the named check (repeatable); known: %s"
                    % ", ".join(acceptance.check_names()))
    return p


def jobspec_from_args(args):
    """The JobSpec of the parsed flags; a subcommand without a flag gives None.

    argparse reads an option value of exactly '--' (--form=--) as the
    empty list, which no flag accepts; --check appends it to its list."""
    values = {f.name: getattr(args, f.name, None) for f in fields(JobSpec)}
    flags = {"budget_height": "budget-height", "fault": "fault-inject", "checks": "check"}
    for name, value in values.items():
        if value == [] or (name == "checks" and value and [] in value):
            raise CliInputError("--%s needs a value other than '--'" % flags.get(name, name))
    for name in ("field", "form", "pencil"):
        values[name] = _expand_at(values[name])
    values["checks"] = tuple(values["checks"]) if values["checks"] else None
    return JobSpec(**values)


def _emit(report, spec, extras, out):
    if spec.format == "machine":
        out.write(render_machine(report))
        return
    out.write(render_human(report))
    if spec.command == "selftest" and extras is not None:
        out.write("\ntimings:\n")
        for r in extras:
            out.write("  %-28s %s  %.2fs\n"
                      % (r.name, "pass" if r.passed else "FAIL", r.seconds))
        out.write("%d passed, %d failed\n"
                  % (sum(1 for r in extras if r.passed),
                     sum(1 for r in extras if not r.passed)))


# the parser, built by the first main() call of the process
_PARSER = None


def main(argv=None):
    global _PARSER
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--selftest" in argv:
        argv.remove("--selftest")
        argv.insert(0, "selftest")
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        spec = jobspec_from_args(args)
        report, code, extras = run_job(spec)
    except CliInputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print("invariant falsified: %s" % e, file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - a bug, never the user's input
        import traceback  # only here: importing it costs every run ~0.1 MiB
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    _emit(report, spec, extras, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
