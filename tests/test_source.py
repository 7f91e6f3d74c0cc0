"""Static checks on the package source.

No linter is installed with the package's toolchain, so the lint rules the
package keeps are checked here with ``ast``: every imported name is used,
only ``linop.make_jacobian_operator`` builds a ``JacobianOperator``, only
the two public solvers and the dual route call ``cgsolver.cg_kernel``, and
only the operator and the plain forward pass run ``forward_trace``.  The
package's size is measured here too, in code lines (see :func:`code_lines`),
against a budget that a change moves by exactly the lines it nets, in its own
diff.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dualgn"


def _exports(tree):
    """The names in a module's literal ``__all__``."""
    names = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def _unused_imports(source):
    """Names a module imports and never uses, in import order.

    A star import binds nothing by name, and a name listed in a literal
    ``__all__`` is used by being exported.
    """
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
    exported = _exports(tree)
    return [name for name in imported if name not in used and name not in exported]


def test_the_check_finds_unused_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .losses import loss_grad, softmax\n"
        "from .models import *\n"
        "from .trainer import train\n"
        "__all__ = ['train']\n"
        "def f(x):\n"
        "    return np.sum(x) + softmax(x)\n"
    )
    assert _unused_imports(source) == ["os", "loss_grad"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _unused_definitions(sources):
    """Module-level functions and classes that nothing names, as ``(module,
    name)`` in source order.

    ``sources`` maps module names to their source.  A definition is named
    where a name or an attribute (``module.f``, ``self.f``) outside the
    definition itself spells it, in any of the modules; one that its
    module's literal ``__all__`` lists is used by being exported.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {  # the names each top-level statement spells
        (module, i): {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        for module, tree in trees.items()
        for i, stmt in enumerate(tree.body)
    }
    unused = []
    for module, tree in trees.items():
        exported = _exports(tree)
        for i, stmt in enumerate(tree.body):
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and stmt.name not in exported and not any(
                stmt.name in names for key, names in named.items() if key != (module, i)
            ):
                unused.append((module, stmt.name))
    return unused


def test_the_check_finds_unused_definitions():
    sources = {
        "a": (
            "__all__ = ['public']\n"
            "def public():\n"
            "    return _helper()\n"
            "def _helper():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Unused:\n"
            "    def public(self):\n"
            "        pass\n"
            "def _called_elsewhere():\n"
            "    pass\n"
            "@_decorator\n"
            "def _only_decorated():\n"
            "    pass\n"
            "def _decorator(f):\n"
            "    return f\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _imported_only\n"
            "def _caller():\n"
            "    return a._called_elsewhere()\n"
            "x = _caller()\n"
        ),
    }
    assert _unused_definitions(sources) == [
        ("a", "_recursive"), ("a", "_Unused"), ("a", "_only_decorated"),
    ]


def test_every_definition_is_used_or_exported():
    # Keep no helpers that nothing in the package uses: a function or class
    # at module level is named by another part of src/ or is in __all__.
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unused_definitions(sources) == []


def _callers(source, name):
    """The functions that call ``name(...)``, one entry per call, by qualified
    name; a call outside any function or class is listed as ``""``.

    A call counts whether ``name`` is called bare or as an attribute.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_callers():
    source = (
        "import linop\n"
        "x = Op(1)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return linop.Op(2), Other(Op)\n"
        "def g():\n"
        "    def h():\n"
        "        return [Op(4) for _ in range(2)]\n"
        "    return h\n"
    )
    assert _callers(source, "Op") == ["", "A.f", "g.h"]


def test_only_make_jacobian_operator_builds_an_operator():
    # The operator is the model operator only: its products assume the
    # linearization that this constructor builds.
    sites = [
        (path.stem, caller)
        for path in sorted(SRC.glob("*.py"))
        for caller in _callers(path.read_text(), "JacobianOperator")
    ]
    assert sites == [("linop", "make_jacobian_operator")]


def test_only_the_solvers_and_the_dual_route_run_the_cg_kernel():
    # The kernel takes one product protocol and one right-hand-side form; the
    # public solvers and the dual route are the only callers that adapt to it.
    sites = sorted(
        (path.stem, caller)
        for path in sorted(SRC.glob("*.py"))
        for caller in _callers(path.read_text(), "cg_kernel")
    )
    assert sites == [
        ("cgsolver", "cg_solve"), ("cgsolver", "projected_cg_solve"),
        ("directions", "_dual_direction"),
    ]


def test_only_the_operator_and_forward_run_forward_trace():
    # Every Jacobian product is taken at the step's linearization, which the
    # operator builds; the model's jvp and vjp take it and trace nothing.
    sites = sorted(
        (path.stem, caller)
        for path in sorted(SRC.glob("*.py"))
        for caller in _callers(path.read_text(), "forward_trace")
    )
    assert sites == [("linop", "make_jacobian_operator"), ("models", "MLPModel.forward")]


# Total code lines in src/dualgn, exactly: a change that adds code raises
# this in its own diff and says why in CHANGES.md, and a change that removes
# code lowers it, so that no slack is left for a later change to spend unseen.
CODE_LINE_BUDGET = 1404

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source):
    """Lines that hold a token other than a comment, leaving out the lines of
    module, class and function docstrings.

    Each line of a multi-line string that is not a docstring counts.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


_COUNTED = '''"""Module docstring,
over two lines."""

# a comment
import numpy as np  # a trailing comment


class A:
    'Class docstring.'

    def f(self, x):
        """Function
        docstring."""
        text = """a
        b"""
        return (x +
                1)
'''


def test_the_counter_counts_code_lines_only():
    # the import, the class and def lines, the plain string's two lines and
    # the return statement's two
    assert code_lines(_COUNTED) == 7
    assert code_lines("") == 0


def test_src_stays_within_its_code_line_budget():
    total = sum(code_lines(path.read_text()) for path in SRC.glob("*.py"))
    assert total == CODE_LINE_BUDGET, f"{total} code lines, budget {CODE_LINE_BUDGET}"
