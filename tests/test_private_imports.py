"""The truncation rules stay behind fockspace.

fockspace.validity_window and fockspace.toeplitz_max_bound are the one
home of the validity window N - min(deg f, N) and of the Gram bracket's
top.  No module of the package reaches for the private helpers behind
them, by import or by attribute, and none keeps a window of its own.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nchardy"
PRIVATE = {"_off_diagonal_bound", "_validity_window"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_private_truncation_rule(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.FunctionDef) and \
                node.name == "_validity_window":
            used.add(node.name)
    assert not used & PRIVATE
