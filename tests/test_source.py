"""Static checks on the package source.

No linter is installed with the package's toolchain, so the one lint rule the
package keeps is checked here with ``ast``: every imported name is used.
"""

import ast
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
