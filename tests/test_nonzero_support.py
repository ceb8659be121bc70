"""A series stores exactly its nonzero coefficients.

NcSeries(...) and the private adopter NcSeries._of drop every all-zero
block (ncseries._nonzero), so degree() and every gate read off it count
only nonzero words, whichever way the series was built.  No other module
writes a series' coefficients or names the rule, and none reads the
read-only coeffs view: library code works on the codes and the stack.
"""

import ast
import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nchardy.cli import main
from nchardy.errors import NotInnerError
from nchardy.evaluate import MatrixPoint, point_to_json_dict
from nchardy.fockspace import FockBasis, coeff_stack, vec_to_series
from nchardy.kernels import check_inner
from nchardy.ncseries import (
    NcSeries,
    _complex_to_json,
    from_json_dict,
    rescale,
    series_invert,
    shift_adjoint_apply,
    to_json_dict,
)
from nchardy.transforms import eigenvector_shift, homogeneous_degree

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nchardy"


def stores_no_zero(f):
    """No stored block is all zero, and degree() is the longest word whose
    coefficient is nonzero."""
    assert all(np.any(m) for m in f.coeffs.values())
    basis = FockBasis(f.d, f.max_degree)
    nonzero = np.flatnonzero(coeff_stack(f, basis).any(axis=(1, 2)))
    top = len(basis.words[nonzero[-1]]) if nonzero.size else 0
    assert f.degree() == top
    assert f.degree() == max(map(len, f.coeffs), default=0)


# -- the inner gate and the classify command ------------------------------


def near_inner_with_a_stored_zero():
    # 0.99 z1 is not inner; a zero on (2,)^8 used to read as degree 8,
    # window 0 and the loose window-0 gate
    return (NcSeries(2, 1, 1, 8, {(1,): 0.99}),
            NcSeries(2, 1, 1, 8, {(1,): 0.99, (2,) * 8: 0.0}))


def test_a_stored_zero_does_not_widen_the_inner_gate():
    plain, padded = near_inner_with_a_stored_zero()
    assert padded.degree() == 1
    assert list(padded.coeffs) == [(1,)]
    for f in (plain, padded):
        with pytest.raises(NotInnerError, match="column degree 7"):
            check_inner(f)


def test_classify_refuses_both_documents_alike(tmp_path):
    plain, padded = near_inner_with_a_stored_zero()
    doc = to_json_dict(plain)
    docs = [doc, dict(doc, coeffs=doc["coeffs"] + [
        {"word": [2] * 8, "matrix": _complex_to_json(np.zeros((1, 1)))}])]
    messages = []
    for i, d in enumerate(docs):
        p = tmp_path / f"s{i}.json"
        p.write_text(json.dumps(d))
        res = CliRunner().invoke(main, ["classify", "--series", str(p)])
        assert res.exit_code == 1
        messages.append(json.loads(res.output)["error"]["message"])
    assert messages[0] == messages[1]
    assert "column degree 7" in messages[0]


def test_the_report_echo_leaves_out_an_input_zero(tmp_path):
    doc = to_json_dict(NcSeries(2, 1, 1, 3, {(1,): 0.5}))
    padded = dict(doc, coeffs=doc["coeffs"] + [
        {"word": [2, 2], "matrix": _complex_to_json(np.zeros((1, 1)))}])
    p = tmp_path / "s.json"
    p.write_text(json.dumps(padded))
    point = tmp_path / "pt.json"
    point.write_text(json.dumps(point_to_json_dict(
        MatrixPoint([0.3 * np.eye(1), np.zeros((1, 1))]))))
    res = CliRunner().invoke(main, ["eval", "--series", str(p),
                                    "--point", str(point)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["inputs"]["series"] == doc


def test_a_stored_zero_leaves_the_commutator_homogeneous():
    s = 1.0 / np.sqrt(2.0)
    V = NcSeries(2, 1, 1, 6, {(1,): 0.0, (1, 2): s, (2, 1): -s})
    assert homogeneous_degree(V) == 2
    basis = FockBasis(2, 6)
    h = np.zeros(basis.dim, dtype=complex)
    h[basis.index_of((1,))] = 1.0
    vec, residual = eigenvector_shift(h, V, 0.5, 0.9, basis)
    assert vec.shape == (basis.dim,)
    assert residual < 1e-12


# -- the rule holds under every operation ---------------------------------

# small integer parts, so sums and products cancel exactly and often
parts = st.sampled_from([-1.0, 0.0, 0.0, 1.0, 2.0])


@st.composite
def raw_coeffs(draw, d, n, N):
    words = FockBasis(d, N).words
    chosen = draw(st.lists(st.sampled_from(words), max_size=8, unique=True))
    return {w: [[complex(draw(parts), draw(parts)) for _ in range(n)]
                for _ in range(n)] for w in chosen}


@st.composite
def cases(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    N = draw(st.integers(0, 3))
    return d, n, N, draw(raw_coeffs(d, n, N)), draw(raw_coeffs(d, n, N))


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([0.0, -1.0, 1j, 2.0]),
       st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 3))
def test_no_operation_stores_a_zero_block(case, c, r, k):
    d, n, N, a, b = case
    f = NcSeries(d, n, n, N, a)
    g = from_json_dict({
        "d": d, "rows": n, "cols": n, "max_degree": N,
        "coeffs": [{"word": list(w), "matrix": _complex_to_json(np.array(m))}
                   for w, m in b.items()]})
    one = NcSeries.identity(n, d, N)
    basis = FockBasis(d, N)
    out = [f, g, f + g, f - g, f - f, f * g, g * f, f.scale(c),
           rescale(f, r), f.truncate(k),
           series_invert(one + (f - f.truncate(0))),
           vec_to_series(coeff_stack(f, basis).reshape(-1, n), basis, n)]
    if n == 1:
        out += [shift_adjoint_apply(f, g), shift_adjoint_apply(g, f)]
    for h in out:
        stores_no_zero(h)


def test_zero_scale_and_zero_radius_store_nothing_off_the_vacuum():
    f = NcSeries(2, 1, 1, 3, {(): 2.0, (1,): 1.0, (2, 1): -1.0})
    assert f.scale(0).coeffs == {}
    assert list(rescale(f, 0.0).coeffs) == [()]
    assert NcSeries.constant(0.0, 2, 3).coeffs == {}
    assert NcSeries.monomial((1, 2), 2, value=0.0).degree() == 0


# -- the rule has one home ------------------------------------------------

MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _is_coeffs(node):
    return isinstance(node, ast.Attribute) and node.attr == "coeffs"


def coeffs_writes_and_rule_names(path):
    """Lines that assign, delete or mutate .coeffs or an item of it, or that
    name _nonzero."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for t in targets:
            for sub in ast.walk(t):
                if _is_coeffs(sub) or (isinstance(sub, ast.Subscript)
                                       and _is_coeffs(sub.value)):
                    hits.add(node.lineno)
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and _is_coeffs(node.func.value)):
            hits.add(node.lineno)
        if ((isinstance(node, ast.Name) and node.id == "_nonzero")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "_nonzero")
                or (isinstance(node, ast.ImportFrom)
                    and any(a.name == "_nonzero" for a in node.names))):
            hits.add(node.lineno)
    return hits


def test_the_walker_finds_the_rule_in_ncseries():
    assert coeffs_writes_and_rule_names(SRC / "ncseries.py")


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "ncseries.py"),
    ids=lambda p: p.name)
def test_only_ncseries_writes_coefficients(path):
    assert not coeffs_writes_and_rule_names(path)


def coeffs_reads(path):
    """Lines that read .coeffs at all."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.lineno for node in ast.walk(tree) if _is_coeffs(node)}


def test_the_read_walker_finds_the_tracer_count():
    assert coeffs_reads(ROOT / "benchmark" / "tracer.py")


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "ncseries.py"),
    ids=lambda p: p.name)
def test_only_ncseries_reads_the_coeffs_view(path):
    assert not coeffs_reads(path)
