"""The word-code arithmetic stays behind ncseries and fockspace.

ncseries defines the int64 code of a word, and fockspace.FockBasis is the
view of its code table that every other module reads (dim, degree_start,
index_of).  No other module of the package reaches for the helpers
behind them, by import or by attribute.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nchardy"
PRIVATE = {"_code_table", "_encode", "_decode", "_cat_codes", "_lengths",
           "_code_of"}
HOMES = {"ncseries.py", "fockspace.py"}


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name not in HOMES),
    ids=lambda p: p.name)
def test_no_other_module_imports_the_word_code_helpers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & PRIVATE


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "ncseries.py"),
    ids=lambda p: p.name)
def test_only_ncseries_names_the_concatenation_code(path):
    # fockspace pairs words through ncseries._prefix_pairs instead
    assert "_cat_codes" not in path.read_text()
