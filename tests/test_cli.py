"""End-to-end checks of the JSON command line front-end."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from nchardy.cli import main
from nchardy.evaluate import MatrixPoint, point_to_json_dict, vector_to_json
from nchardy.ncseries import NcSeries, to_json_dict
from nchardy.transforms import semigroup_inner


def pair_to_json_dict(Z, y):
    return {"Z": point_to_json_dict(Z), "y": vector_to_json(y)}


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def commutator(N):
    return NcSeries(2, 1, 1, N, {(): 1.0, (1, 2): -1.0, (2, 1): 1.0})


def z1_series(N):
    return NcSeries.monomial((1,), 2, N)


@pytest.fixture
def paths(tmp_path):
    Z = MatrixPoint([np.array([[0.0, 0.5], [0.0, 0.0]]),
                     np.array([[0.0, 0.0], [0.5, 0.0]])])
    return {
        "H": write_json(tmp_path / "H.json", to_json_dict(commutator(8))),
        "z1": write_json(tmp_path / "z1.json", to_json_dict(z1_series(6))),
        "pt": write_json(tmp_path / "pt.json", point_to_json_dict(Z)),
        "y": write_json(tmp_path / "y.json",
                        [[1.0, 0.0], [0.0, 0.0]]),
        "v": write_json(tmp_path / "v.json",
                        [[0.0, 0.0], [1.0, 0.0]]),
        "poly": write_json(tmp_path / "p.json",
                           {"coeffs": [[0.0, 0.0], [-0.5, 0.0], [1.0, 0.0]]}),
        "E": write_json(
            tmp_path / "E.json",
            to_json_dict(NcSeries(2, 2, 2, 6, {
                (): [[1.0, 0.0], [0.0, 0.0]],
                (1,): [[0.0, 1.0], [0.0, 0.0]]}))),
        "tmp": tmp_path,
    }


def run_json(runner, args):
    res = runner.invoke(main, args)
    return res, json.loads(res.output) if res.output.strip() else None


def test_eval_reports_value_and_row_norm(runner, paths):
    res, doc = run_json(runner, [
        "eval", "--series", paths["H"], "--point", paths["pt"]])
    assert res.exit_code == 0
    assert doc["command"] == "eval"
    assert doc["outputs"]["row_norm"] == pytest.approx(0.5)
    val = doc["outputs"]["value"]
    # 1 - Z1 Z2 + Z2 Z1 at the nilpotent pair: diagonal 1 -+ 0.25
    assert val[0][0] == pytest.approx([0.75, 0.0])
    assert val[1][1] == pytest.approx([1.25, 0.0])
    assert "generated_at" in doc["timestamp"]


def test_factor_splits_shifted_polynomial(runner, tmp_path):
    h = NcSeries(2, 1, 1, 8, {(1,): 1.0, (1, 1): -0.5})
    p = write_json(tmp_path / "h.json", to_json_dict(h))
    res, doc = run_json(CliRunner(), [
        "factor", "--series", p, "--seed", "3"])
    assert res.exit_code == 0
    assert doc["outputs"]["wandering_dim"] == 1
    outer = {tuple(c["word"]): c["matrix"][0][0]
             for c in doc["outputs"]["outer"]["coeffs"]}
    assert outer[()] == pytest.approx([1.0, 0.0])
    assert outer[(1,)] == pytest.approx([-0.5, 0.0])
    # without singularity data the inner part sits in the singular slot
    assert "no-pairs" in doc["outputs"]["flags"]
    sing = {tuple(c["word"]) for c in doc["outputs"]["singular"]["coeffs"]}
    assert sing == {(1,)}
    assert doc["defects"]["outer_defect"] < 0.05


def test_factor_without_pairs_is_not_diagnostic(runner, paths):
    res, doc = run_json(runner, ["factor", "--series", paths["z1"]])
    assert res.exit_code == 0
    assert "no-pairs" in doc["outputs"]["flags"]


def test_factor_of_a_matrix_series_is_diagnostic(runner, tmp_path):
    H = NcSeries(2, 2, 2, 4, {(): [[2.0, 0.5], [0.0, 1.0]],
                              (1,): [[0.3, 0.0], [0.1, -0.4]]})
    p = write_json(tmp_path / "H.json", to_json_dict(H))
    res, doc = run_json(runner, ["factor", "--series", p])
    assert res.exit_code == 2
    assert doc["outputs"]["flags"] == ["sampling-insufficient"]
    assert doc["outputs"]["singular"] is None


def test_kernel_h2_norm_matches_closed_form(runner, paths):
    res, doc = run_json(runner, [
        "kernel", "--point", paths["pt"], "--y", paths["y"],
        "--v", paths["v"], "--degree", "6"])
    assert res.exit_code == 0
    K = doc["outputs"]["kernel"]
    assert K["d"] == 2 and K["rows"] == 1
    # the pair walks e2 -> e1 -> e2 under Z1, Z2, so the only surviving
    # words alternate 1,2,1,...,1 (odd length k) with coefficient 2^-k
    want = np.sqrt(sum(4.0 ** -k for k in (1, 3, 5)))
    assert doc["outputs"]["h2_norm"] == pytest.approx(want, abs=1e-12)


def test_classify_blaschke_without_pairs_exits_2(runner, paths):
    res, doc = run_json(runner, ["classify", "--series", paths["z1"]])
    assert res.exit_code == 2
    assert doc["outputs"]["flags"] == ["no-pairs"]


def test_classify_singular_without_pairs_exits_0(runner, tmp_path):
    sig = semigroup_inner(z1_series(8), 0.7, 8)
    p = write_json(tmp_path / "sig.json", to_json_dict(sig))
    res, doc = run_json(CliRunner(), ["classify", "--series", p])
    assert res.exit_code == 0
    assert "consistent-with-singular" in doc["outputs"]["flags"]
    assert doc["outputs"]["singular_report"]["singular"] is True


@pytest.mark.parametrize("command, key", [
    ("classify", "singular_report"),
    ("factor", "split_singular_report"),
])
def test_samples_option_reaches_singular_test(tmp_path, command, key):
    sig = semigroup_inner(z1_series(4), 0.7, 4)
    p = write_json(tmp_path / "sig.json", to_json_dict(sig))
    res, doc = run_json(CliRunner(), [command, "--series", p,
                                      "--samples", "7"])
    assert res.exit_code == 0
    assert doc["parameters"]["samples"] == 7
    section = "outputs" if command == "classify" else "defects"
    assert doc[section][key]["num_samples"] == 7


def test_classify_with_thin_pairs_is_diagnostic(runner, tmp_path):
    # kernel pairs at commuting points carry no directional information,
    # so the split must refuse a verdict rather than guess
    V = NcSeries(2, 1, 1, 8, {(1, 2): 2 ** -0.5, (2, 1): -(2 ** -0.5)})
    vp = write_json(tmp_path / "V.json", to_json_dict(V))
    Za = MatrixPoint([0.5 * np.array([[0.0, 1.0], [0.0, 0.0]]),
                      np.zeros((2, 2))])
    Zb = MatrixPoint([np.zeros((2, 2)),
                      0.5 * np.array([[0.0, 0.0], [1.0, 0.0]])])
    pairs = [pair_to_json_dict(Za, np.array([1.0, 0.0], dtype=complex)),
             pair_to_json_dict(Zb, np.array([0.0, 1.0], dtype=complex))]
    pp = write_json(tmp_path / "pairs.json", pairs)
    res, doc = run_json(CliRunner(), [
        "classify", "--series", vp, "--pairs", pp])
    assert res.exit_code == 2
    assert "sampling-insufficient" in doc["outputs"]["flags"]
    assert doc["outputs"]["blaschke_defect"] > 0.25


def test_classify_rejects_pairs_over_another_alphabet(runner, tmp_path):
    V = NcSeries(2, 1, 1, 6, {(1, 2): 2 ** -0.5, (2, 1): -(2 ** -0.5)})
    vp = write_json(tmp_path / "V.json", to_json_dict(V))
    Z = MatrixPoint([0.3 * np.array([[0.0, 1.0], [0.0, 0.0]]),
                     0.3 * np.array([[0.0, 0.0], [1.0, 0.0]]),
                     np.zeros((2, 2))])
    pp = write_json(tmp_path / "pairs.json", [
        pair_to_json_dict(Z, np.array([1.0, 0.0], dtype=complex))])
    res, doc = run_json(runner, [
        "classify", "--series", vp, "--pairs", pp])
    assert res.exit_code == 1
    assert "alphabet" in doc["error"]["message"]


def test_frostman_window_defect_small(runner, paths):
    res, doc = run_json(runner, [
        "frostman", "--series", paths["z1"], "--w", "0.5"])
    assert res.exit_code == 0
    out = doc["outputs"]["frostman"]
    # constant term of the shifted monomial is -w
    const = [c for c in out["coeffs"] if c["word"] == []]
    assert const[0]["matrix"][0][0] == pytest.approx([-0.5, 0.0])
    assert doc["defects"]["window0_defect"] < 0.02


def test_crofoot_command_runs(runner, paths):
    res, doc = run_json(runner, [
        "crofoot", "--series", paths["z1"], "--w", "0.3+0.2j"])
    assert res.exit_code == 0
    assert doc["command"] == "crofoot"
    assert doc["outputs"]["crofoot"]["rows"] == 1


def test_frostman_rejects_boundary_parameter(runner, paths):
    res, doc = run_json(runner, [
        "frostman", "--series", paths["z1"], "--w", "1.0"])
    assert res.exit_code == 1
    assert "error" in doc


def test_semigroup_constant_term(runner, paths):
    res, doc = run_json(runner, [
        "semigroup", "--series", paths["z1"], "--t", "0.5"])
    assert res.exit_code == 0
    assert doc["outputs"]["constant_term"][0] == pytest.approx(
        np.exp(-0.5), abs=1e-12)
    assert doc["defects"]["window0_defect"] <= 1.0


def test_idempotent_straightening(runner, paths):
    res, doc = run_json(runner, ["idempotent", "--series", paths["E"]])
    assert res.exit_code == 0
    assert doc["outputs"]["m"] == 1
    assert doc["outputs"]["k"] == 1
    assert doc["outputs"]["P"] == [[1.0, 0.0], [0.0, 0.0]]
    assert doc["defects"]["straightening_residual"] < 1e-10


def test_idempotent_rejects_non_idempotent(runner, tmp_path):
    bad = NcSeries(2, 2, 2, 4, {(): [[1.0, 0.0], [0.0, 0.5]]})
    p = write_json(tmp_path / "bad.json", to_json_dict(bad))
    res, doc = run_json(CliRunner(), ["idempotent", "--series", p])
    assert res.exit_code == 1
    assert "error" in doc


@pytest.mark.parametrize("command, option", [
    ("frostman", "--w"), ("crofoot", "--w"), ("semigroup", "--t")])
def test_nan_transform_parameter_refused(runner, paths, command, option):
    res, doc = run_json(runner, [command, "--series", paths["z1"],
                                 option, "nan"])
    assert res.exit_code == 1
    assert "nan" in doc["error"]["message"]


@pytest.mark.parametrize("command", ["idempotent"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_refused(runner, paths, command, tol):
    # a NaN gate compares False both ways and would switch the gate off
    bad = NcSeries(2, 2, 2, 4, {(): [[1.0, 0.0], [0.0, 0.5]]})
    series = write_json(paths["tmp"] / "bad.json", to_json_dict(bad))
    res, doc = run_json(runner, [command, "--series", series, "--tol", tol])
    assert res.exit_code == 1
    assert doc["error"]["path"] == "tol"


@pytest.mark.parametrize("command", ["idempotent"])
def test_negative_tol_refused(runner, paths, command):
    # a negative gate refuses the exact idempotent
    res, doc = run_json(runner, [command, "--series", paths["E"],
                                 "--tol", "-1"])
    assert res.exit_code == 1
    assert doc["error"]["path"] == "tol"
    assert ">= 0" in doc["error"]["message"]


def test_zero_tol_asks_for_an_exact_idempotent(runner, paths):
    res, doc = run_json(runner, ["idempotent", "--series", paths["E"],
                                 "--tol", "0"])
    assert res.exit_code == 0
    assert doc["outputs"]["m"] == 1


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", [0, -1])
def test_eval_refuses_empty_coefficient_shape(runner, paths, field, value):
    doc = to_json_dict(commutator(4))
    doc[field] = value
    p = write_json(paths["tmp"] / "empty.json", doc)
    res, out = run_json(runner, ["eval", "--series", p,
                                 "--point", paths["pt"]])
    assert res.exit_code == 1
    assert out["error"]["path"] == f"series.{field}"


def test_compare_classical_zero_layout(runner, paths):
    res, doc = run_json(runner, [
        "compare-classical", "--poly", paths["poly"], "--degree", "10"])
    assert res.exit_code == 0
    mods = sorted(z[0] ** 2 + z[1] ** 2 for z in doc["outputs"]["zeros"])
    assert mods == pytest.approx([0.0, 0.25])
    assert doc["defects"]["inner_agreement"] < 1e-6
    assert all(jp["member"] for jp in doc["outputs"]["jordan_pairs"])


def test_compare_classical_rejects_bad_schema(runner, tmp_path):
    p = write_json(tmp_path / "bad.json", {"c": [1, 2]})
    res, doc = run_json(CliRunner(), ["compare-classical", "--poly", p])
    assert res.exit_code == 1
    assert doc["error"]["path"] == "poly"


def test_missing_input_file_reports_path(runner, paths):
    res, doc = run_json(runner, [
        "eval", "--series", "/nonexistent.json", "--point", paths["pt"]])
    assert res.exit_code == 1
    assert doc["error"]["path"] == "series"
    assert "not found" in doc["error"]["message"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_factor_rejects_non_finite_coefficient(runner, tmp_path, bad):
    doc = to_json_dict(NcSeries(2, 1, 1, 4, {(): 1.0, (1,): -0.5}))
    doc["coeffs"][1]["matrix"][0][0][1] = bad
    p = tmp_path / "h.json"
    p.write_text(json.dumps(doc))
    res, out = run_json(runner, ["factor", "--series", str(p)])
    assert res.exit_code == 1
    assert out["error"]["path"] == "series.coeffs[1].matrix"
    assert "finite" in out["error"]["message"]


@pytest.mark.parametrize("bad", ["1.5", True])
def test_series_matrix_refuses_a_non_number(runner, paths, bad):
    doc = to_json_dict(commutator(4))
    doc["coeffs"][0]["matrix"][0][0][1] = bad
    p = write_json(paths["tmp"] / "h.json", doc)
    res, out = run_json(runner, ["factor", "--series", p])
    assert res.exit_code == 1
    assert out["error"]["path"] == "series.coeffs[0].matrix[0][0][1]"
    assert "not a number" in out["error"]["message"]


@pytest.mark.parametrize("bad", ["2", True])
def test_point_matrix_refuses_a_non_number(runner, paths, bad):
    with open(paths["pt"]) as fh:
        doc = json.load(fh)
    doc["Z"][0][0][1][0] = bad
    p = write_json(paths["tmp"] / "pt_bad.json", doc)
    res, out = run_json(runner, ["eval", "--series", paths["H"],
                                 "--point", p])
    assert res.exit_code == 1
    assert out["error"]["path"] == "point.Z[0][0][1][0]"


@pytest.mark.parametrize("bad", ["2", True])
def test_vector_refuses_a_non_number(runner, paths, bad):
    p = write_json(paths["tmp"] / "y_bad.json", [[1.0, 0.0], [bad, 0.0]])
    res, out = run_json(runner, ["kernel", "--point", paths["pt"],
                                 "--y", p, "--v", paths["v"]])
    assert res.exit_code == 1
    assert out["error"]["path"] == "y[1][0]"


@pytest.mark.parametrize("bad", ["-0.5", True])
def test_poly_coefficient_refuses_a_non_number(runner, paths, bad):
    p = write_json(paths["tmp"] / "p_bad.json",
                   {"coeffs": [[0.0, 0.0], [bad, 0.0], [1.0, 0.0]]})
    res, out = run_json(runner, ["compare-classical", "--poly", p])
    assert res.exit_code == 1
    assert out["error"]["path"] == "poly.coeffs[1][0]"


def test_eval_rejects_non_finite_point(runner, paths):
    with open(paths["pt"]) as fh:
        doc = json.load(fh)
    doc["Z"][1][0][0][0] = float("nan")
    bad = write_json(paths["tmp"] / "bad_pt.json", doc)
    res, out = run_json(runner, [
        "eval", "--series", paths["H"], "--point", bad])
    assert res.exit_code == 1
    assert out["error"]["path"] == "point.Z[1]"


def test_kernel_rejects_non_finite_vector(runner, paths):
    bad = write_json(paths["tmp"] / "bad_y.json",
                     [[1.0, 0.0], [float("inf"), 0.0]])
    res, out = run_json(runner, [
        "kernel", "--point", paths["pt"], "--y", bad, "--v", paths["v"]])
    assert res.exit_code == 1
    assert out["error"]["path"] == "y"


def outside_point():
    """A point of row norm 1.3, where the Szego kernel diverges."""
    return MatrixPoint([np.array([[0.0, 1.3], [0.0, 0.0]]), np.zeros((2, 2))])


def test_kernel_refuses_a_point_outside_the_row_ball(runner, paths):
    pt = write_json(paths["tmp"] / "far.json",
                    point_to_json_dict(outside_point()))
    res, out = run_json(runner, [
        "kernel", "--point", pt, "--y", paths["y"], "--v", paths["v"]])
    assert res.exit_code == 1
    assert "row norm 1.300000 is not below 1" in out["error"]["message"]


def test_classify_refuses_a_pair_outside_the_row_ball(runner, paths):
    pp = write_json(paths["tmp"] / "far_pairs.json", [
        pair_to_json_dict(outside_point(), np.array([1.0, 0.0]))])
    res, out = run_json(runner, [
        "classify", "--series", paths["z1"], "--pairs", pp])
    assert res.exit_code == 1
    assert "row norm 1.300000 is not below 1" in out["error"]["message"]


def test_output_file_append_only(runner, paths):
    out = paths["tmp"] / "report.json"
    args = ["eval", "--series", paths["H"], "--point", paths["pt"],
            "--out", str(out)]
    res1 = runner.invoke(main, args)
    assert res1.exit_code == 0
    assert out.exists()
    res2 = runner.invoke(main, args)
    assert res2.exit_code == 1
    assert "--force" in json.loads(res2.output)["error"]["message"]
    res3 = runner.invoke(main, args + ["--force"])
    assert res3.exit_code == 0


def test_determinism_modulo_timestamp(runner, paths):
    args = ["factor", "--series", paths["H"], "--seed", "7"]
    docs = []
    for _ in range(2):
        res, doc = run_json(CliRunner(), args)
        assert res.exit_code == 0
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_degree_option_truncates(runner, paths):
    res, doc = run_json(runner, [
        "eval", "--series", paths["H"], "--point", paths["pt"],
        "--degree", "1"])
    assert res.exit_code == 0
    # degree-1 truncation drops the degree-2 words: value is the identity
    assert doc["outputs"]["value"][0][0] == pytest.approx([1.0, 0.0])
    assert doc["outputs"]["value"][1][1] == pytest.approx([1.0, 0.0])


SHARED_OPTIONS = ["--degree", "--out", "--force"]
SPLIT_OPTIONS = ["--series", "--pairs", "--samples", "--seed"]

# every option a command accepts, in declared order; each one is read
COMMAND_OPTIONS = {
    "factor": SPLIT_OPTIONS,
    "eval": ["--series", "--point"],
    "kernel": ["--point", "--y", "--v"],
    "classify": SPLIT_OPTIONS,
    "frostman": ["--series", "--w"],
    "crofoot": ["--series", "--w"],
    "semigroup": ["--series", "--t"],
    "idempotent": ["--series", "--tol"],
    "compare-classical": ["--poly"],
}


def test_every_command_pins_its_options():
    assert set(main.commands) == set(COMMAND_OPTIONS)


@pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
def test_command_options(name):
    opts = [o for p in main.commands[name].params for o in p.opts]
    assert opts == COMMAND_OPTIONS[name] + SHARED_OPTIONS


@pytest.mark.parametrize("name", ["frostman", "factor"])
def test_help_lists_options_in_declared_order(runner, name):
    res = runner.invoke(main, [name, "--help"])
    assert res.exit_code == 0
    listed = [line.split()[0].rstrip(",") for line in res.output.splitlines()
              if line.startswith("  --")]
    assert listed == COMMAND_OPTIONS[name] + SHARED_OPTIONS + ["--help"]


@pytest.mark.parametrize("command", ["factor", "classify"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_rejected(runner, paths, command, samples):
    res, doc = run_json(runner, [command, "--series", paths["z1"],
                                 "--samples", samples])
    assert res.exit_code == 1
    assert doc["error"]["path"] == "samples"


@pytest.mark.parametrize("command", ["eval", "kernel"])
def test_point_file_read_once(runner, paths, monkeypatch, command):
    import nchardy.cli

    reads = []
    load = nchardy.cli._load_json

    def counting(path, what):
        reads.append(path)
        return load(path, what)

    monkeypatch.setattr(nchardy.cli, "_load_json", counting)
    if command == "eval":
        args = ["eval", "--series", paths["H"], "--point", paths["pt"]]
    else:
        args = ["kernel", "--point", paths["pt"], "--y", paths["y"],
                "--v", paths["v"]]
    res, doc = run_json(runner, args)
    assert res.exit_code == 0
    with open(paths["pt"]) as fh:
        assert doc["inputs"]["point"] == json.load(fh)
    assert sorted(reads) == sorted(args[2::2])


def command_args(paths):
    """A valid invocation of every command, less the shared options."""
    return {
        "factor": ["--series", paths["z1"]],
        "eval": ["--series", paths["H"], "--point", paths["pt"]],
        "kernel": ["--point", paths["pt"], "--y", paths["y"],
                   "--v", paths["v"]],
        "classify": ["--series", paths["z1"]],
        "frostman": ["--series", paths["z1"], "--w", "0.3"],
        "crofoot": ["--series", paths["z1"], "--w", "0.3"],
        "semigroup": ["--series", paths["z1"], "--t", "1.0"],
        "idempotent": ["--series", paths["E"]],
        "compare-classical": ["--poly", paths["poly"]],
    }


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_report_command_is_the_invoked_name(runner, paths, command):
    res, doc = run_json(runner, [command, *command_args(paths)[command]])
    assert res.exit_code in (0, 2)
    assert doc["command"] == command


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
@pytest.mark.parametrize("degree", ["0", "-3"])
def test_degree_below_one_rejected(runner, paths, command, degree):
    res, doc = run_json(runner, [command, *command_args(paths)[command],
                                 "--degree", degree])
    assert res.exit_code == 1
    assert doc["error"]["path"] == "degree"


@pytest.mark.parametrize("command", ["factor", "classify"])
def test_negative_seed_rejected(runner, paths, command):
    res, doc = run_json(runner, [command, *command_args(paths)[command],
                                 "--seed", "-1"])
    assert res.exit_code == 1
    assert doc["error"]["path"] == "seed"
