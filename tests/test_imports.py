"""Every name a module of src/cliffork imports is referenced in that module,
and every function, class, method and constant it defines is reachable from
the command line or the module-level code."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cliffork").glob("*.py"))


def unused_imports(tree: ast.Module):
    """Names bound by an import and never read; names in __all__ count as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_cli_import_loads_every_module_and_not_dataclasses():
    # in a fresh interpreter: the benchmark tracer patches the modules that
    # `import cliffork.cli` leaves in sys.modules, so it loads all of them;
    # and no module pays for `dataclasses`, which imports inspect, dis, ast
    # and tokenize and generates each record's methods through exec
    code = "import sys, cliffork.cli; print(*sorted(sys.modules))"
    loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True).stdout.split())
    assert {f"cliffork.{path.stem}" for path in SOURCES if path.stem != "__init__"} <= loaded
    assert "dataclasses" not in loaded


# Defined in src but reached from no verb or suite, each kept on purpose.
KEPT_UNREACHABLE = {
    "spinor_repr.save_spinbasis": "writes the `--basis` file format that the README documents",
    "finite_groups.generate_group_from_matrices":
        "the tests' closure oracle, which the benchmark tracer wraps",
    "finite_groups.MAX_CLOSURE": "the order limit of generate_group_from_matrices",
}


# the operator methods an expression calls, by its operator: a binary
# operator reaches both operands' methods, a += b the in-place one too
_OPERATOR_METHODS = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul",
    ast.Div: "truediv", ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.LShift: "lshift", ast.RShift: "rshift", ast.BitOr: "or", ast.BitXor: "xor",
    ast.BitAnd: "and",
}
_UNARY_METHODS = {ast.USub: "__neg__", ast.UAdd: "__pos__", ast.Invert: "__invert__"}

# the dunder methods Python calls with no operator or name in the source:
# construction, comparison, hashing, repr/str, bool, pickling, the attribute
# guards and __call__; every other dunder method is reached like a method
IMPLICIT_DUNDERS = {
    "__new__", "__init__", "__init_subclass__", "__eq__", "__ne__", "__lt__", "__le__",
    "__gt__", "__ge__", "__hash__", "__repr__", "__str__", "__format__", "__bool__",
    "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__", "__getnewargs__",
    "__getattr__", "__getattribute__", "__setattr__", "__delattr__", "__call__",
}


def _reads(*nodes):
    """Names read under the nodes: 'x' for a bare name, '.x' for an attribute
    and '.__op__' for each method an operator expression calls."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add("." + sub.attr)
            elif isinstance(sub, (ast.BinOp, ast.AugAssign)):
                op = _OPERATOR_METHODS[type(sub.op)]
                out |= {f".__{op}__", f".__r{op}__"}
                if isinstance(sub, ast.AugAssign):
                    out.add(f".__i{op}__")
            elif isinstance(sub, ast.UnaryOp) and type(sub.op) in _UNARY_METHODS:
                out.add("." + _UNARY_METHODS[type(sub.op)])
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _top_level(mod, name, reads):
    """(module, keys, reads) of a top-level definition: it is reached by its
    bare name in its own module or as an attribute."""
    return mod, {(mod, name), "." + name}, reads


def unreachable_definitions(paths):
    """Labels 'module.name' of the top-level functions, classes and assigned
    names, and 'module.Class.method' of the methods, that no chain of reads
    reaches from the roots: every name cli.py reads, the module-level code of
    each module, every dunder method in IMPLICIT_DUNDERS and each __all__
    (dunder names such as __version__ are not definitions).  An operator
    method such as __mul__ is reached by the operator expressions that call
    it.  A bare name resolves in the module that reads it, through its
    `from .module import` lines.  A method is its own node, reached by
    attribute name only, so sibling methods do not reach each other; a
    top-level definition is also reached as an attribute."""
    defs = {}  # label -> (module, keys that reach it, reads it makes)
    roots = []  # (module, reads)
    imported = {}  # (module, local name) -> (defining module, name)
    for path in paths:
        mod = path.stem
        tree = ast.parse(path.read_text())
        if mod == "cli":
            roots.append((mod, _reads(tree)))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[mod, alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.ClassDef):
                rest = []
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        rest.append(item)
                    elif item.name in IMPLICIT_DUNDERS:
                        roots.append((mod, _reads(item)))
                    else:
                        defs[f"{mod}.{node.name}.{item.name}"] = (mod, {"." + item.name},
                                                                  _reads(item))
                reads = _reads(*node.bases, *node.decorator_list, *rest)
                defs[f"{mod}.{node.name}"] = _top_level(mod, node.name, reads)
            elif isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = _top_level(mod, node.name, _reads(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        roots.append((mod, set(ast.literal_eval(node.value))))
                    elif isinstance(target, ast.Name) and not _is_dunder(target.id):
                        defs[f"{mod}.{target.id}"] = _top_level(mod, target.id, set())
                if node.value is not None:
                    roots.append((mod, _reads(node.value)))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append((mod, _reads(node)))

    def keys(mod, reads):
        return {r if r.startswith(".") else imported.get((mod, r), (mod, r)) for r in reads}

    reached, reads = set(), set()
    for mod, names in roots:
        reads |= keys(mod, names)
    while True:
        new = {label for label, (_, k, _) in defs.items() if label not in reached and k & reads}
        if not new:
            return set(defs) - reached
        reached |= new
        for label in new:
            mod, _, names = defs[label]
            reads |= keys(mod, names)


def test_every_definition_reaches_a_verb_or_a_suite():
    assert unreachable_definitions(SOURCES) == set(KEPT_UNREACHABLE)


@pytest.mark.parametrize("use,unreachable", [
    ("", {"num.Num.__pow__", "num.Num.__neg__"}),
    ("print(-Num(1))", {"num.Num.__pow__"}),
    ("x = Num(2)\nx **= 3", {"num.Num.__neg__"}),
], ids=["unused", "negated", "powered"])
def test_an_operator_nothing_uses_is_unreachable(tmp_path, use, unreachable):
    (tmp_path / "num.py").write_text(
        "class Num:\n"
        "    def __init__(self, v):\n        self.v = v\n"
        "    def __repr__(self):\n        return f'Num({self.v})'\n"
        "    def __mul__(self, other):\n        return Num(self.v * other.v)\n"
        "    def __pow__(self, k):\n        return Num(self.v ** k)\n"
        "    def __neg__(self):\n        return Num(-self.v)\n"
    )
    (tmp_path / "cli.py").write_text(f"from .num import Num\nprint(Num(2) * Num(3))\n{use}\n")
    assert unreachable_definitions(sorted(tmp_path.glob("*.py"))) == unreachable
