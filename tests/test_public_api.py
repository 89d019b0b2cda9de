"""Every function and method has a caller outside the test suite, and
every parameter with a default is set by one.

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

A parameter with a default that no caller sets is a knob nobody turns:
for every such parameter on a def of `src/quadclif` (top-level or
method), some call in `src/quadclif`, `scripts/` or `perfbench/` must
set it.  A call is one whose callee is the def's name, read as a name or
as an attribute, and a call to a class counts as a call to its
`__init__`.  It sets the parameter by passing it as a keyword, by
passing at least as many positional arguments as reach it (`self` and
`cls` of a method are not counted), or by unpacking with `*` or `**`.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadclif"
SEARCHED = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]

# The documented inverse of the job-spec renderer: a machine report's
# spec line parses back to the job with it.
ALLOWED = {"cli.jobspec_from_input"}

DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


def _defs():
    """(path, qualname, name, def node) of every top-level function and
    method of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node.name, node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path, "%s.%s" % (node.name, item.name), item.name, item


def _searched_trees():
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            yield path, ast.parse(path.read_text())


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

    for path, tree in _searched_trees():
        visit(tree, path, None)
    return out


def _uncalled(private):
    """Defs, public or private as asked, with no reference outside their
    own body, dunders and ALLOWED excepted."""
    refs = _references()
    missing = []
    for path, qualname, name, _ in _defs():
        if name.startswith("__") and name.endswith("__"):
            continue
        if name.startswith("_") != private or "%s.%s" % (path.stem, qualname) in ALLOWED:
            continue
        if not any(n == name and not (p == path and owner == qualname)
                   for p, owner, n in refs):
            missing.append("%s.%s" % (path.stem, qualname))
    return missing


def _calls():
    """{callee name: [(positional count, keyword names, unpacks)]} for
    every call in the searched code."""
    out = defaultdict(list)
    for _, tree in _searched_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            out[name].append((len(node.args), {k.arg for k in node.keywords}, unpacks))
    return out


def _unset_defaults():
    """module.qualname(parameter) for every parameter with a default that
    no call sets, by the rules in the module docstring."""
    calls = _calls()
    missing = []
    for path, qualname, name, node in _defs():
        found = calls[name]
        if name == "__init__":
            found = found + calls[qualname.split(".")[0]]
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        skip = 1 if "." in qualname and not static else 0
        params = [(a.arg, i - skip) for i, a in enumerate(positional)
                  if i >= len(positional) - len(args.defaults)]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        for param, pos in params:
            if not any(unpacks or param in keywords or (pos is not None and count > pos)
                       for count, keywords, unpacks in found):
                missing.append("%s.%s(%s)" % (path.stem, qualname, param))
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


def test_every_default_is_set_by_a_caller():
    missing = _unset_defaults()
    assert not missing, "parameters no caller outside tests sets: %s" % missing
