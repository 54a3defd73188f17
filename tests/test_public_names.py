"""Every public name and every knob in lacelab is reached by the program.

Each public module-level function or class of src/lacelab, and each public
method of such a class, must be referenced somewhere in src/lacelab outside
its own body, or in perfbench/*.py: as a name, an attribute, an import, or
a traced-name string such as "perc.exact_pair_matrix".  Docstrings do not
count.  A reference oracle that only tests call belongs in the tests.

Each defaulted parameter of such a function or method must be passed by
some call in the same code: by keyword, by position past its index, or
through *args or **kwargs.  A value no program call sets is a constant,
and a test that needs another one monkeypatches the constant.

The files are parsed with ast, never imported, and perfbench is only read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lacelab"
PERFBENCH = ROOT / "perfbench"

# Called by no program code, each kept for the reason given.
ALLOWED = {
    # writes the two-point input format that `lacelab diag --input` reads
    "diagnostics.serialize_input",
    # reads the spec that every CLI document records (to_spec)
    "steps.StepDistribution.from_spec",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree) -> set:
    """ids of the docstring constants of tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFS + (ast.Module,)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _walk(tree):
    """(node, ids of the definitions enclosing it) for each node of tree."""
    stack = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        yield node, enclosing
        if isinstance(node, DEFS):
            enclosing = enclosing | {id(node)}
        stack += [(child, enclosing) for child in ast.iter_child_nodes(node)]


def _references(tree, traced: re.Pattern) -> list:
    """(name, ids of the definitions enclosing it) for each reference."""
    skip = _docstrings(tree)
    out = []
    for node, enclosing in _walk(tree):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            match = traced.fullmatch(node.value)
            name = match and match.group(1)
        if name:
            out.append((name, enclosing))
    return out


def _calls(tree) -> list:
    """(callee name, call, ids of the definitions enclosing it) for each
    call of a plain or dotted name."""
    out = []
    for node, enclosing in _walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name:
                out.append((name, node, enclosing))
    return out


def _public_defs(tree):
    """(name, node) of each public module-level function or class and each
    public method of such a class."""
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, DEFS[:2])
                            and not item.name.startswith("_")):
                        yield "%s.%s" % (node.name, item.name), item


def _trees():
    """(module stem -> tree of src/lacelab, trees of perfbench/*.py)."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    return trees, [ast.parse(p.read_text())
                   for p in sorted(PERFBENCH.glob("*.py"))]


def unreached_names() -> list:
    """module.name of each public definition that no program code reaches."""
    trees, perfbench = _trees()
    traced = re.compile(r"(?:%s)\.([A-Za-z_]\w*)" % "|".join(trees))
    refs = [ref for tree in list(trees.values()) + perfbench
            for ref in _references(tree, traced)]
    unreached = []
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree):
            full = "%s.%s" % (module, qualname)
            name = qualname.rpartition(".")[2]
            if full not in ALLOWED and not any(
                    ref == name and id(node) not in enclosing
                    for ref, enclosing in refs):
                unreached.append(full)
    return unreached


def _defaulted(node, is_method: bool):
    """(name, position or None if keyword-only) of each defaulted
    parameter of a function definition; a method's position is counted
    after self."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - is_method)
           for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None)
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def _passes(call, name: str, position) -> bool:
    """Whether call may set parameter name at position."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or position is not None and (
                len(call.args) > position
                or any(isinstance(a, ast.Starred) for a in call.args)))


def unset_parameters() -> list:
    """module.name(parameter) of each defaulted parameter of a public
    function or method that no program call passes."""
    trees, perfbench = _trees()
    calls = [call for tree in list(trees.values()) + perfbench
             for call in _calls(tree)]
    unset = []
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree):
            full = "%s.%s" % (module, qualname)
            if isinstance(node, ast.ClassDef) or full in ALLOWED:
                continue
            name = qualname.rpartition(".")[2]
            sites = [call for callee, call, enclosing in calls
                     if callee == name and id(node) not in enclosing]
            for param, position in _defaulted(node, "." in qualname):
                if not any(_passes(call, param, position) for call in sites):
                    unset.append("%s(%s)" % (full, param))
    return unset


def test_every_public_name_is_reached_by_the_program():
    assert unreached_names() == []


def test_every_defaulted_parameter_is_set_by_the_program():
    assert unset_parameters() == []
