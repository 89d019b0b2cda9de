"""Every function and method has a caller outside the test suite.

The library surface is what the CLI, the acceptance battery, the
scripts and the benchmark reach.  A public name that only tests call is
dead weight, and so is a private helper that nothing calls any more:
this guard walks `src/quadclif/*.py` with `ast` and asserts that each
top-level function and each method (dunders excepted), public or
private, is referenced somewhere in `src/quadclif`, `scripts/` or
`perfbench/` outside its own definition.

Only real references count: a name read in code, an attribute read, an
imported name, or a string constant (such as a table of check or span
names) whose dotted parts spell it.  A dataclass field or an assignment
target of the same name is not a reference, and neither is another def
of the same name.
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

DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


def _defs():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path, "%s.%s" % (node.name, item.name), item.name


def _referenced_names(node):
    """Names that node refers to, by the rules in the module docstring."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.split(".")[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if DOTTED.match(node.value):
            return node.value.split(".")
    return []


def _references():
    """(path, enclosing top-level or class-level def, name) per reference."""
    out = []

    def visit(node, path, owner):
        for name in _referenced_names(node):
            out.append((path, owner, name))
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif owner is None and isinstance(child, ast.ClassDef):
                visit_class(child, path)
                continue
            visit(child, path, inner)

    def visit_class(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, "%s.%s" % (node.name, child.name))
            else:
                visit(child, path, None)

    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            visit(ast.parse(path.read_text()), path, None)
    return out


def _uncalled(private):
    """Defs, public or private as asked, with no reference outside their
    own body, dunders and ALLOWED excepted."""
    refs = _references()
    missing = []
    for path, qualname, name in _defs():
        if name.startswith("__") and name.endswith("__"):
            continue
        if name.startswith("_") != private or "%s.%s" % (path.stem, qualname) in ALLOWED:
            continue
        if not any(n == name and not (p == path and owner == qualname)
                   for p, owner, n in refs):
            missing.append("%s.%s" % (path.stem, qualname))
    return missing


def test_every_public_name_has_a_non_test_caller():
    missing = _uncalled(private=False)
    assert not missing, "public names with no caller outside tests: %s" % missing


def test_every_private_helper_has_a_caller():
    missing = _uncalled(private=True)
    assert not missing, "private helpers with no caller outside tests: %s" % missing


def test_a_field_or_a_twin_def_is_not_a_reference():
    tree = ast.parse(
        "class A:\n"
        "    frobenius: tuple\n"
        "    def square_class(self):\n"
        "        return 1\n"
        "class B:\n"
        "    def square_class(self):\n"
        "        return self.square_class\n")
    names = [n for node in ast.walk(tree) for n in _referenced_names(node)]
    assert "frobenius" not in names
    assert names.count("square_class") == 1  # B's own body reads it
