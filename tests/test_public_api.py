"""Every public function and method has a caller outside the test suite.

The library surface is what the CLI, the acceptance battery, the
scripts and the benchmark reach.  A public name that only tests call is
dead weight: this guard walks `src/quadclif/*.py` with `ast` and asserts
that each public top-level function and each public method (dunders
excepted) is named somewhere in `src/quadclif`, `scripts/` or
`perfbench/` other than on its own `def` line.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadclif"
SEARCHED = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]

# The documented inverse of the job-spec renderer: a machine report's
# spec line parses back to the job with it.
ALLOWED = {"cli.jobspec_from_input"}


def _public_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node.name, node.name, node.lineno
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path, "%s.%s" % (node.name, item.name), item.name, item.lineno


def _source_lines():
    out = []
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                out.append((path, lineno, line))
    return out


def test_every_public_name_has_a_non_test_caller():
    lines = _source_lines()
    missing = []
    for path, qualname, name, def_line in _public_defs():
        if name.startswith("_") or "%s.%s" % (path.stem, qualname) in ALLOWED:
            continue
        pattern = re.compile(r"\b%s\b" % re.escape(name))
        if not any(
            pattern.search(line) and not (p == path and n == def_line)
            for p, n, line in lines
        ):
            missing.append("%s.%s" % (path.stem, qualname))
    assert not missing, "public names with no caller outside tests: %s" % missing
