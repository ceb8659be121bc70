"""The package runs without scipy.

Nothing in `nchardy` imports scipy: spectral factorization solves its
least-squares problem with the numpy Levenberg-Marquardt `_lm`, and every
other layer is plain numpy.  The first test runs all nine CLI commands
and the factorization API (`spectral_outer`, `inner_outer`, `bso_factor`,
`compare_with_nc`) in a process whose first import finder refuses scipy.
The others check that processes doing one job each (importing the CLI,
the split given a ready frame or singularity pairs,
`crofoot_kernel_frame`, the singularity search and the outer defect) end
with no scipy module loaded.  Only the tests use scipy, as a reference.
"""

import json
import os
import subprocess
import sys

import numpy as np

import nchardy
from nchardy.evaluate import MatrixPoint, point_to_json_dict
from nchardy.ncseries import NcSeries, commutator_inner, to_json_dict
from nchardy.transforms import semigroup_inner

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nchardy.__file__)))

REPORT_SCIPY = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n")

# installed before anything else is imported, so any import of scipy, at
# any depth, raises
BLOCK_SCIPY = (
    "import sys\n"
    "assert 'scipy' not in sys.modules\n"
    "class RefuseScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, RefuseScipy())\n")


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


def test_every_command_and_the_factorization_api_run_without_scipy(
        tmp_path):
    N = 6
    Z = MatrixPoint([np.array([[0.0, 0.5], [0.0, 0.0]]),
                     np.array([[0.0, 0.0], [0.5, 0.0]])])
    V = write_json(tmp_path / "V.json",
                   to_json_dict(commutator_inner(max_degree=N)))
    z1 = NcSeries.monomial((1,), 2, N)
    sigma = write_json(tmp_path / "sigma.json",
                       to_json_dict(semigroup_inner(z1, 0.7, N)))
    # z1 (1 - 0.4 z2): inner z1, outer 1 - 0.4 z2
    H = write_json(tmp_path / "H.json", to_json_dict(
        NcSeries(2, 1, 1, N, {(1,): 1.0, (1, 2): -0.4})))
    pt = write_json(tmp_path / "pt.json", point_to_json_dict(Z))
    y = write_json(tmp_path / "y.json", [[1.0, 0.0], [0.0, 0.0]])
    v = write_json(tmp_path / "v.json", [[0.0, 0.0], [1.0, 0.0]])
    E = write_json(tmp_path / "E.json", to_json_dict(NcSeries(2, 2, 2, 4, {
        (): [[1.0, 0.0], [0.0, 0.0]], (1,): [[0.0, 1.0], [0.0, 0.0]]})))
    poly = write_json(tmp_path / "poly.json",
                      {"coeffs": [[0.5, 0.0], [-1.0, 0.0], [0.2, 0.1]]})
    jobs = [
        ["factor", "--series", H],
        ["eval", "--series", V, "--point", pt],
        ["kernel", "--point", pt, "--y", y, "--v", v, "--degree", "4"],
        ["classify", "--series", sigma, "--samples", "40"],
        ["frostman", "--series", V, "--w", "0.3"],
        ["crofoot", "--series", V, "--w", "0.3-0.2j"],
        ["semigroup", "--series", V, "--t", "0.5"],
        ["idempotent", "--series", E],
        ["compare-classical", "--poly", poly, "--degree", "10"],
    ]
    for i, job in enumerate(jobs):
        job += ["--out", str(tmp_path / f"report{i}.json")]
    code = BLOCK_SCIPY + (
        "import numpy as np\n"
        "from nchardy.classical import compare_with_nc\n"
        "from nchardy.cli import main\n"
        "from nchardy.factorization import (bso_factor, inner_outer,\n"
        "                                   spectral_outer)\n"
        "from nchardy.ncseries import NcSeries, max_coeff_diff\n"
        f"for args in {jobs!r}:\n"
        "    try:\n"
        "        main(args=args, standalone_mode=False)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, None), (args[0], exc.code)\n"
        "H = NcSeries(2, 1, 1, 6, {(1,): 1.0, (1, 2): -0.4})\n"
        "F = NcSeries(2, 1, 1, 6, {(): 1.0, (2,): -0.4})\n"
        "assert max_coeff_diff(spectral_outer(H.truncate(2)), F, 6) < 1e-12\n"
        "io = inner_outer(H)\n"
        "assert io.wandering_dim == 1\n"
        "assert io.defects['reconstruction_error'] < 1e-12\n"
        "assert bso_factor(H).outer.degree() == 1\n"
        "rep = compare_with_nc([0.5, -1.0, 0.2 + 0.1j], N=10)\n"
        "assert max(rep['inner_agreement'], rep['outer_agreement']) < 1e-10\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('scipy was not blocked')\n"
        + REPORT_SCIPY)
    assert run_python(code, tmp_path) == []
    for i, job in enumerate(jobs):
        report = json.loads((tmp_path / f"report{i}.json").read_text())
        assert report["command"] == job[0]


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
