"""The JSON boundary is one place.

ncseries holds the one JSON form of complex data, the pair [re, im]:
_complex_to_json writes it for a scalar, vector, matrix or stack, and
_complex_from_json reads it back, entry by entry and then by shape.  No
other module of the package reads numbers out of a document or writes
[re, im] lists of its own, and the CLI's runner is the one writer of a
report's "command" key.
"""

import ast
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchardy.errors import SchemaError
from nchardy.ncseries import _complex_from_json, _complex_to_json

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nchardy"


# the encodings the codec replaced, one per rank: the report encoder's
# scalar, evaluate's vector and point forms, and ncseries' matrix form
def _old_scalar(c):
    c = complex(c)
    return [c.real, c.imag]


def _old_vector(y):
    return [[float(x.real), float(x.imag)] for x in np.asarray(y).reshape(-1)]


def _old_matrix(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _old_stack(mats):
    return [[[[float(x.real), float(x.imag)] for x in row] for row in m]
            for m in mats]


OLD_FORMS = {0: _old_scalar, 1: _old_vector, 2: _old_matrix, 3: _old_stack}

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def complex_arrays(draw):
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(
        [(), (n,), (n, n), (draw(st.integers(1, 3)), n, n)]))
    size = int(np.prod(shape, dtype=int))
    parts = draw(st.lists(finite, min_size=2 * size, max_size=2 * size))
    return np.array(parts, dtype=float).view(complex).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(complex_arrays())
def test_codec_round_trips_bitwise_in_the_old_form(a):
    enc = _complex_to_json(a)
    assert json.dumps(enc) == json.dumps(OLD_FORMS[a.ndim](a))
    back = _complex_from_json(json.loads(json.dumps(enc)), "x", "value",
                              a.shape)
    assert back.shape == a.shape
    assert np.asarray(back).tobytes() == a.tobytes()


@pytest.mark.parametrize("obj, shape, where", [
    ([[1.0, 0.0]], (2,), "x"),
    ([[1.0, 0.0, 2.0]], (1,), "x"),
    ([[1.0, 0.0], [2.0]], (2,), "x"),
    ([[1.0, "0"]], (1,), "x[0][1]"),
    ([[1.0, float("inf")]], (1,), "x"),
])
def test_decode_refuses_at_its_path(obj, shape, where):
    with pytest.raises(SchemaError) as info:
        _complex_from_json(obj, "x", "value", shape)
    assert info.value.path == where


def _numpy_call(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np")


def _real_imag_lists(tree):
    """Lines of the list displays holding a value's .real and .imag that
    are not handed straight to numpy (np.stack of a residual's parts is
    arithmetic, not a document)."""
    handed = {id(arg) for node in ast.walk(tree) if _numpy_call(node)
              for arg in node.args}
    for node in ast.walk(tree):
        if isinstance(node, ast.List) and id(node) not in handed:
            attrs = {n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Attribute)}
            if {"real", "imag"} <= attrs:
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_ncseries_speaks_the_complex_json_form(path):
    if path.name == "ncseries.py":
        return
    name, tree = path.name, ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "_floats_from_json"]
    assert not calls, f"{name} reads numbers itself at lines {calls}"
    lists = list(_real_imag_lists(tree))
    assert not lists, f"{name} builds [re, im] lists at lines {lists}"


def _writes_command(node):
    if isinstance(node, ast.Dict):
        return any(isinstance(k, ast.Constant) and k.value == "command"
                   for k in node.keys)
    return (isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "command")


def test_only_the_runner_writes_the_command_key():
    tree = ast.parse((SRC / "cli.py").read_text())
    writers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and any(_writes_command(n) for n in ast.walk(fn))}
    assert writers == {"_run"}
