"""scipy stays out of processes that never call into it.

Only spectral factorization uses scipy, and it imports it where it is
called.  A CLI process that runs any other command, a Blaschke/singular
split given a ready frame or singularity pairs, `crofoot_kernel_frame`,
the singularity search and the outer defect must therefore end with no
scipy module loaded.
"""

import json
import os
import subprocess
import sys

import numpy as np
import scipy.optimize

import nchardy
from nchardy.evaluate import MatrixPoint, point_to_json_dict
from nchardy.factorization import inner_outer
from nchardy.ncseries import NcSeries, commutator_inner, to_json_dict

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nchardy.__file__)))

REPORT_SCIPY = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n")


def run_python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_loads_no_scipy(tmp_path):
    assert run_python("import nchardy, nchardy.cli\n" + REPORT_SCIPY,
                      tmp_path) == []


def test_scipy_free_commands_load_no_scipy(tmp_path):
    Z = MatrixPoint([np.array([[0.0, 0.5], [0.0, 0.0]]),
                     np.array([[0.0, 0.0], [0.5, 0.0]])])
    V = write_json(tmp_path / "V.json",
                   to_json_dict(commutator_inner(max_degree=6)))
    pt = write_json(tmp_path / "pt.json", point_to_json_dict(Z))
    y = write_json(tmp_path / "y.json", [[1.0, 0.0], [0.0, 0.0]])
    v = write_json(tmp_path / "v.json", [[0.0, 0.0], [1.0, 0.0]])
    E = write_json(tmp_path / "E.json", to_json_dict(NcSeries(2, 2, 2, 4, {
        (): [[1.0, 0.0], [0.0, 0.0]], (1,): [[0.0, 1.0], [0.0, 0.0]]})))
    jobs = [
        ["eval", "--series", V, "--point", pt],
        ["kernel", "--point", pt, "--y", y, "--v", v, "--degree", "4"],
        ["semigroup", "--series", V, "--t", "0.5"],
        ["frostman", "--series", V, "--w", "0.3"],
        ["idempotent", "--series", E],
    ]
    for i, job in enumerate(jobs):
        job += ["--out", str(tmp_path / f"report{i}.json")]
    code = ("from nchardy.cli import main\n"
            f"for args in {jobs!r}:\n"
            "    main(args=args, standalone_mode=False)\n" + REPORT_SCIPY)
    assert run_python(code, tmp_path) == []
    for i, job in enumerate(jobs):
        report = json.loads((tmp_path / f"report{i}.json").read_text())
        assert report["command"] == job[0]


def test_split_with_a_frame_loads_no_scipy(tmp_path):
    # the mixed branch: z1 sigma_t with the exact complement of z1 H^2
    code = (
        "import numpy as np\n"
        "from nchardy.factorization import blaschke_singular_split\n"
        "from nchardy.fockspace import FockBasis\n"
        "from nchardy.ncseries import NcSeries, max_coeff_diff, series_mul\n"
        "from nchardy.transforms import semigroup_inner\n"
        "N = 8\n"
        "z1 = NcSeries.monomial((1,), 2, N)\n"
        "theta = series_mul(z1, semigroup_inner(z1, 0.5, N), N)\n"
        "basis = FockBasis(2, N)\n"
        "frame = np.eye(basis.dim)[:, [i for i, w in enumerate(basis.words)\n"
        "                              if not (w and w[0] == 1)]]\n"
        "res = blaschke_singular_split(theta, [], N=N, extra_frame=frame)\n"
        "assert res.flags == [] and res.defects['blaschke_defect'] > 0.25\n"
        "assert max_coeff_diff(res.blaschke, z1, N) == 0.0\n"
        + REPORT_SCIPY)
    assert run_python(code, tmp_path) == []


def test_split_with_pairs_loads_no_scipy(tmp_path):
    # kernels at commuting points: the pairs' frame leaves the wandering
    # vector ambiguous
    code = (
        "import numpy as np\n"
        "from nchardy.evaluate import MatrixPoint\n"
        "from nchardy.factorization import blaschke_singular_split\n"
        "from nchardy.kernels import SingularityPair\n"
        "from nchardy.ncseries import NcSeries\n"
        "N, c = 8, 2 ** -0.5\n"
        "V = NcSeries(2, 1, 1, N, {(1, 2): c, (2, 1): -c})\n"
        "E = np.array([[0.0, 0.5], [0.0, 0.0]])\n"
        "pairs = [SingularityPair(MatrixPoint([E, 0 * E]), [1.0, 0.0]),\n"
        "         SingularityPair(MatrixPoint([0 * E, E.T]), [0.0, 1.0])]\n"
        "res = blaschke_singular_split(V, pairs, N=N)\n"
        "assert res.flags == ['sampling-insufficient']\n"
        + REPORT_SCIPY)
    assert run_python(code, tmp_path) == []


def test_crofoot_frame_and_its_split_load_no_scipy(tmp_path):
    code = (
        "import numpy as np\n"
        "from nchardy.factorization import (blaschke_singular_split,\n"
        "                                   crofoot_kernel_frame)\n"
        "from nchardy.ncseries import commutator_inner\n"
        "from nchardy.transforms import frostman\n"
        "N, w = 6, 0.5\n"
        "V = commutator_inner(max_degree=N)\n"
        "E = crofoot_kernel_frame(V, w, N)\n"
        "assert E.shape[1] > 0\n"
        "res = blaschke_singular_split(frostman(V, w, N), [], N=N,\n"
        "                              extra_frame=E)\n"
        "assert res.wandering_dim == 1\n"
        + REPORT_SCIPY)
    assert run_python(code, tmp_path) == []


def test_singularity_search_loads_no_scipy(tmp_path):
    code = (
        "import numpy as np\n"
        "from nchardy.kernels import search_singularities\n"
        "from nchardy.ncseries import NcSeries\n"
        "H = NcSeries(2, 1, 1, 4, {(): 1.0, (1, 2): -2.0})\n"
        "rng = np.random.default_rng(31)\n"
        "assert search_singularities(H, 2, trials=20, rng=rng)\n"
        "f = NcSeries(2, 1, 1, 3, {(): 1.0, (1,): 0.3})\n"
        "assert search_singularities(f, 1, trials=8, rng=rng) == []\n"
        + REPORT_SCIPY)
    assert run_python(code, tmp_path) == []


def test_outer_defect_loads_no_scipy(tmp_path):
    code = (
        "from nchardy.factorization import outer_defect\n"
        "from nchardy.ncseries import NcSeries\n"
        "h = NcSeries(2, 1, 1, 6, {(): 1.0, (1,): -0.5})\n"
        "H = NcSeries(2, 2, 2, 4, {(): [[2.0, 0.5], [0.0, 1.0]],\n"
        "                          (1,): [[0.3, 0.0], [0.1, -0.4]]})\n"
        "assert 0.0 < outer_defect(h) < 0.1 and outer_defect(H) < 1.0\n"
        + REPORT_SCIPY)
    assert run_python(code, tmp_path) == []


def test_spectral_outer_looks_up_least_squares_at_call_time(monkeypatch):
    # benchmark/tracer.py counts solver evaluations by patching the scipy
    # module attribute, which only works while no caller binds the name
    calls = []
    original = scipy.optimize.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", counting)
    H = NcSeries(2, 1, 1, 4, {(): 1.0, (1,): -0.5})
    res = inner_outer(H)
    assert res.wandering_dim == 1
    assert len(calls) >= 1
