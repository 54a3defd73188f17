"""Every public name in lacelab is reached by the program.

Each public module-level function or class of src/lacelab, and each public
method of such a class, must be referenced somewhere in src/lacelab outside
its own body, or in perfbench/*.py: as a name, an attribute, an import, or
a traced-name string such as "perc.exact_pair_matrix".  Docstrings do not
count.  A reference oracle that only tests call belongs in the tests.

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


def _references(tree, traced: re.Pattern) -> list:
    """(name, ids of the definitions enclosing it) for each reference."""
    skip = _docstrings(tree)
    out = []

    def visit(node, enclosing):
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
        if isinstance(node, DEFS):
            enclosing = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
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


def unreached_names() -> list:
    """module.name of each public definition that no program code reaches."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    traced = re.compile(r"(?:%s)\.([A-Za-z_]\w*)" % "|".join(trees))
    refs = [ref for tree in trees.values()
            for ref in _references(tree, traced)]
    for path in sorted(PERFBENCH.glob("*.py")):
        refs += _references(ast.parse(path.read_text()), traced)
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


def test_every_public_name_is_reached_by_the_program():
    assert unreached_names() == []
