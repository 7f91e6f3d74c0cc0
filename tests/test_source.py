"""Static checks on the package source.

No linter is installed with the package's toolchain, so the one lint rule the
package keeps is checked here with ``ast``: every imported name is used.  The
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


def _unused_imports(source):
    """Names a module imports and never uses, in import order.

    A star import binds nothing by name, and a name listed in a literal
    ``__all__`` is used by being exported.
    """
    tree = ast.parse(source)
    imported = []
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported.update(
                    e.value for e in node.value.elts if isinstance(e, ast.Constant)
                )
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


# Total code lines in src/dualgn, exactly: a change that adds code raises
# this in its own diff and says why in CHANGES.md, and a change that removes
# code lowers it, so that no slack is left for a later change to spend unseen.
CODE_LINE_BUDGET = 1599

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
