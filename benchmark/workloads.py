"""Seeded job corpora for the three benchmark workloads.

A workload is a list of passes; each pass is a list of jobs with the same
make-up (the same kinds and sizes in the same order), and only the seeded
data differ between passes.  The timed loop runs whole passes, so every
run measures the same mix whatever its seed.  A job's ``run`` is the
program work that is timed; its ``check`` compares the output against a
closed form or a first repetition and raises ``CheckFailed``.

Known limits kept outside the workloads rather than hidden by them:

* ``blaschke_singular_split`` calls z1 * sigma_t all-Blaschke (defect
  <= 0.25) for t below about 0.095 at N = 8, so the split jobs draw t from
  [0.3, 1].
* ``semigroup_inner(z1 z2, t, 8)`` fails the window-0 inner gate of
  ``singular_test`` for t = 1.5 (defect 0.271 > 0.25).  The
  ``sample_certify`` workload keeps t in (0, 1] and runs that case as a
  job that must be refused with ``NotInnerError``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np

from nchardy.errors import NotInnerError
from nchardy.evaluate import MatrixPoint, point_to_json_dict, vector_to_json
from nchardy.factorization import (
    blaschke_singular_split,
    inner_outer,
    singular_test,
)
from nchardy.fockspace import FockBasis
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    max_coeff_diff,
    phase_normalize,
    series_mul,
    to_json_dict,
)
from nchardy.transforms import (
    cayley_herglotz,
    frostman,
    herglotz_min_real,
    semigroup_inner,
)

# Distinct seeded passes generated per run; the timed loop cycles them.
LIBRARY_PASSES = 8

SQRT2 = math.sqrt(2.0)


class CheckFailed(Exception):
    """A job's output does not match what the job guarantees."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Job:
    """One unit of work: ``run()`` is timed, ``check(out)`` is not."""

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Corpus:
    """The passes of one workload plus the digest of their inputs."""

    def __init__(self, passes, inputs, warm_up):
        self.passes = passes
        self.warm_up = warm_up
        blob = json.dumps(inputs, sort_keys=True, default=_encode)
        self.digest = hashlib.sha256(blob.encode()).hexdigest()


def _encode(obj):
    if isinstance(obj, NcSeries):
        return to_json_dict(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot encode {type(obj)}")


def _cgauss(rng, shape=None):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _z1(N):
    return NcSeries.monomial((1,), 2, N)


# -- spectral_factor ---------------------------------------------------


def _random_scalar_poly(rng, d, deg, N):
    """Constant term, one word of the top degree and up to four more
    words, all with complex Gaussian coefficients."""
    words = FockBasis(d, deg).words[1:]
    top = [w for w in words if len(w) == deg]
    coeffs = {(): complex(_cgauss(rng))}
    coeffs[top[rng.integers(len(top))]] = complex(_cgauss(rng))
    for i in rng.choice(len(words), size=min(4, len(words)), replace=False):
        coeffs[words[i]] = complex(_cgauss(rng))
    return NcSeries(d, 1, 1, N, coeffs)


def _random_matrix_poly(rng, deg, N):
    """2x2 coefficients over d = 2 with a dominant constant term."""
    words = FockBasis(2, deg).words[1:]
    top = [w for w in words if len(w) == deg]
    coeffs = {(): 2.0 * np.eye(2) + 0.3 * _cgauss(rng, (2, 2))}
    coeffs[top[rng.integers(len(top))]] = _cgauss(rng, (2, 2))
    for w in words:
        if w not in coeffs and rng.random() < 0.5:
            coeffs[w] = _cgauss(rng, (2, 2))
    return NcSeries(2, 2, 2, N, coeffs)


def _factor_job(kind, H):
    def check(res):
        err = res.defects["reconstruction_error"]
        require(err <= 1e-10, f"reconstruction error {err:.3e} > 1e-10")
        require(res.wandering_dim == H.rows,
                f"wandering dimension {res.wandering_dim} != {H.rows}")

    return Job(kind, lambda: inner_outer(H), check)


def _worked_example_job(N):
    """1 - sqrt(2) V factors as Frostman(V, 1/sqrt 2) times sqrt(2) - V."""
    V = commutator_inner(max_degree=N)
    H = 1.0 - SQRT2 * V
    inner_ref, _ = phase_normalize(frostman(V, 1.0 / SQRT2, N))
    outer_ref, _ = phase_normalize(SQRT2 - V)
    base = _factor_job(f"one_minus_sqrt2V_N{N}", H)

    def check(res):
        base.check(res)
        b, _ = phase_normalize(res.inner)
        g, _ = phase_normalize(res.outer)
        di = max_coeff_diff(b, inner_ref, N - 3)
        do = max_coeff_diff(g, outer_ref, N - 3)
        require(di <= 1e-8 and do <= 1e-8,
                f"worked example off: inner {di:.3e}, outer {do:.3e}")

    return Job(base.kind, base.run, check)


def analytic_complement_frame(N):
    """Coordinate vectors at the vacuum and at words starting with 2: an
    exact basis for the orthocomplement of z1 times the Hardy space."""
    basis = FockBasis(2, N)
    idx = [i for i, w in enumerate(basis.words) if not (w and w[0] == 1)]
    return np.eye(basis.dim)[:, idx]


def _split_job(sigma, frame, N):
    z1 = _z1(N)
    theta = series_mul(z1, sigma, N)

    def run():
        return blaschke_singular_split(theta, [], N=N, extra_frame=frame)

    def check(res):
        require(res.flags == [], f"split flagged {res.flags}")
        require(max_coeff_diff(res.blaschke, z1, N) == 0.0,
                "Blaschke part is not exactly z1")
        err = max_coeff_diff(res.singular, sigma, N - 1)
        require(err <= 1e-14, f"singular part off by {err:.3e}")

    return Job("split_z1_sigma", run, check)


def spectral_factor(seed):
    """``inner_outer`` on a mix of sizes.  Eight small jobs sit below ten
    d = 2, degree-2 jobs and eight larger ones above them, so the median
    lands inside one kind of job; the N = 10 worked example runs twice so
    the large jobs set the tail."""
    rng = np.random.default_rng([seed, 1])
    split_N = 8
    frame = analytic_complement_frame(split_N)
    sigma_ts = [float(t) for t in rng.uniform(0.3, 1.0, size=2)]
    sigmas = [semigroup_inner(_z1(split_N), t, split_N) for t in sigma_ts]
    worked = _worked_example_job(10)
    V5 = commutator_inner(max_degree=5)
    passes, inputs = [], {"split_t": sigma_ts, "passes": []}
    for k in range(LIBRARY_PASSES):
        small = [_random_scalar_poly(rng, 2, 1, 4) for _ in range(3)] \
            + [_random_scalar_poly(rng, 3, 1, 3) for _ in range(3)]
        middle = [_random_scalar_poly(rng, 2, 2, 5) for _ in range(10)]
        large = [_random_scalar_poly(rng, 3, 2, 4),
                 _random_scalar_poly(rng, 2, 3, 6),
                 _random_scalar_poly(rng, 2, 3, 6),
                 _random_scalar_poly(rng, 3, 3, 5)]
        mats = [_random_matrix_poly(rng, deg, 4) for deg in (1, 1, 2)]
        w = complex(0.6 * math.sqrt(rng.random())
                    * np.exp(2j * math.pi * rng.random()))
        shifted = frostman(V5, w, 5)
        below = [_factor_job(f"poly_d{h.d}_deg1", h) for h in small] + \
            [_factor_job("matrix_deg1", H) for H in mats[:2]]
        mid = [_factor_job("poly_d2_deg2", h) for h in middle]
        above = [
            worked,
            _factor_job("poly_d3_deg2", large[0]),
            _factor_job("frostman_V_N5", shifted),
            _factor_job("poly_d2_deg3", large[1]),
            worked,
            _split_job(sigmas[k % 2], frame, split_N),
            _factor_job("poly_d2_deg3", large[2]),
            _factor_job("matrix_deg2", mats[2]),
            _factor_job("poly_d3_deg3", large[3]),
        ]
        # interleave the three groups so no stretch of a pass is all big
        jobs = [job for trio in zip(above, mid[:9], below + [mid[9]])
                for job in trio]
        passes.append(jobs)
        inputs["passes"].append({"scalar": small + middle + large,
                                 "matrix": mats, "frostman_w": w})

    def warm_up():
        inner_outer(_random_scalar_poly(np.random.default_rng(0), 2, 1, 3))
        N = 4
        sigma = semigroup_inner(_z1(N), 0.5, N)
        blaschke_singular_split(series_mul(_z1(N), sigma, N), [], N=N,
                                extra_frame=analytic_complement_frame(N))

    return Corpus(passes, inputs, warm_up)


# -- sample_certify ----------------------------------------------------


def _semigroup_job(name, B, t, s, sample_seed, N=8, samples=240):
    z_d1 = NcSeries.monomial((1,), 1, N)

    def run():
        St = semigroup_inner(B, t, N)
        law = max_coeff_diff(
            semigroup_inner(B, t + s, N),
            series_mul(St, semigroup_inner(B, s, N), N), N)
        c0 = semigroup_inner(z_d1, t, N).scalar_coeff(())
        st = singular_test(St, num_samples=samples,
                           rng=np.random.default_rng(sample_seed))
        herg = herglotz_min_real(cayley_herglotz(St),
                                 rng=np.random.default_rng(sample_seed + 1))
        return law, c0, st, herg

    def check(out):
        law, c0, st, herg = out
        require(law <= 1e-8, f"semigroup law defect {law:.3e}")
        dc = abs(c0 - math.exp(-t))
        require(dc <= 1e-10, f"d=1 constant off by {dc:.3e}")
        require(st["singular"] is True, "singular_test verdict not singular")
        require(st["num_samples"] == samples, "sample count changed")
        require(herg > 0.0, f"Cayley transform min real part {herg:.3e}")

    return Job(f"semigroup_{name}", run, check)


def _dense_inner(rng, N=5):
    """Inner factor of 1 - sqrt(2) (a . z) over d = 3: the Frostman shift
    of a unit linear form, supported on every word of length <= N."""
    a = _cgauss(rng, 3)
    a /= np.linalg.norm(a)
    H = NcSeries(3, 1, 1, N, {(): 1.0, (1,): -SQRT2 * a[0],
                              (2,): -SQRT2 * a[1], (3,): -SQRT2 * a[2]})
    res = inner_outer(H)
    require(res.defects["reconstruction_error"] <= 1e-10,
            "dense inner set-up did not factor")
    return res.inner


def _dense_job(B, sample_seed, samples=120):
    def run():
        return singular_test(B, num_samples=samples,
                             rng=np.random.default_rng(sample_seed))

    def check(st):
        # B(0) = -1/sqrt(2), and an inner is contractive on the ball
        require(abs(st["constant_sigma"] - 1.0 / SQRT2) <= 1e-12,
                f"constant sigma {st['constant_sigma']!r}")
        require(st["num_samples"] == samples, "sample count changed")
        require(0.0 < st["min_sample_sigma"] <= 1.0 + 1e-8,
                f"sample sigma {st['min_sample_sigma']!r}")

    return Job("dense_inner_singular_test", run, check)


def _refusal_job():
    """Past the window-0 gate: must be refused, never certified."""
    B = NcSeries.monomial((1, 2), 2, 8)

    def run():
        try:
            return singular_test(semigroup_inner(B, 1.5, 8), num_samples=8)
        except NotInnerError as exc:
            return exc

    def check(out):
        require(isinstance(out, NotInnerError),
                "semigroup_inner(z1z2, 1.5, 8) was not refused")

    return Job("refuse_z1z2_t1.5", run, check)


def sample_certify(seed):
    """Singular inners from the semigroup, certified by sampling, beside a
    few sampling jobs on a dense inner."""
    rng = np.random.default_rng([seed, 2])
    N = 8
    gens = {"z1": _z1(N), "z1z2": NcSeries.monomial((1, 2), 2, N),
            "V": commutator_inner(max_degree=N)}
    dense = _dense_inner(rng)
    refuse = _refusal_job()
    passes, inputs = [], {"dense": dense, "passes": []}
    for _ in range(LIBRARY_PASSES):
        params = []
        jobs = []
        # five light generators around the median, two commutators and
        # the dense inner above it
        for name in ("z1", "V", "z1z2", "z1", "V", "z1z2", "z1"):
            t, s = 1.0 - rng.random(), 1.0 - rng.random()
            sample_seed = int(rng.integers(2 ** 31))
            params.append([name, t, s, sample_seed])
            jobs.append(_semigroup_job(name, gens[name], t, s, sample_seed))
        dense_seed = int(rng.integers(2 ** 31))
        params.append(["dense", dense_seed])
        jobs.insert(3, _dense_job(dense, dense_seed))
        jobs.append(refuse)
        passes.append(jobs)
        inputs["passes"].append(params)

    def warm_up():
        S = semigroup_inner(_z1(3), 0.5, 3)
        singular_test(S, num_samples=3)
        herglotz_min_real(cayley_herglotz(S), num_samples=3)

    return Corpus(passes, inputs, warm_up)


# -- cli_batch ---------------------------------------------------------


class CliJob(Job):
    """One ``python -m nchardy.cli`` process.  The first run of a job is
    the reference its later repetitions must reproduce byte for byte once
    the ``timestamp`` block is dropped."""

    def __init__(self, kind, args, expected_code, ctx):
        self.args = args
        self.expected_code = expected_code
        self.ctx = ctx
        self.reference = None
        super().__init__(kind, self._run, self._check)

    def _run(self):
        proc = subprocess.run(self.ctx.cli_argv() + self.args,
                              cwd=self.ctx.root, env=self.ctx.env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def _check(self, out):
        code, stdout = out
        require(code == self.expected_code,
                f"{self.kind} exited {code}, expected {self.expected_code}")
        doc = json.loads(stdout)
        require(doc.get("command") == self.args[0],
                f"report names command {doc.get('command')!r}")
        doc.pop("timestamp")
        canon = json.dumps(doc, sort_keys=True).encode()
        if self.reference is None:
            self.reference = canon
        require(canon == self.reference,
                "report differs from the first repetition")


class CliContext:
    """Where CLI jobs run and how they are started.  The environment is
    the worker's, which puts ``src`` on PYTHONPATH; ``traced`` switches the
    entry point to the benchmark's traced wrapper."""

    def __init__(self, root, workdir):
        self.root = root
        self.env = dict(os.environ)
        self.traced = False
        self.span_file = os.path.join(workdir, "cli-spans.json")

    def cli_argv(self):
        if self.traced:
            here = os.path.dirname(os.path.abspath(__file__))
            return [sys.executable, os.path.join(here, "cli_traced.py"),
                    self.span_file]
        return [sys.executable, "-m", "nchardy.cli"]


def _classical_poly(rng):
    """d = 1 polynomial of degree 2-3 with no root within 0.05 of the
    unit circle, as in acceptance criterion 10."""
    while True:
        deg = int(rng.integers(2, 4))
        c = _cgauss(rng, deg + 1)
        if abs(c[-1]) < 0.2:
            continue
        roots = np.roots(c[::-1])
        if np.min(np.abs(np.abs(roots) - 1.0)) >= 0.05:
            return c


def cli_batch(seed, root, workdir):
    """One pass of every command on small d = 2 documents; the same
    documents repeat every pass."""
    rng = np.random.default_rng([seed, 3])
    os.makedirs(workdir, exist_ok=True)
    ctx = CliContext(root, workdir)
    docs = {}

    def doc(name, obj):
        # jobs run in the checkout root, so relative paths keep the input
        # digest independent of where the checkout is
        docs[name] = obj
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        return os.path.relpath(path, root)

    N = 6
    a, b = (int(x) for x in rng.integers(1, 3, size=2))
    c = complex(0.6 * math.sqrt(rng.random())
                * np.exp(2j * math.pi * rng.random()))
    # z_a (1 - c z_b): inner z_a, outer 1 - c z_b
    factor_h = NcSeries(2, 1, 1, N, {(a,): 1.0, (a, b): -c})
    Z = MatrixPoint(list(_cgauss(rng, (2, 3, 3))))
    Z = Z.scale(0.8 / Z.row_norm())
    eval_f = _random_scalar_poly(rng, 2, 3, 8)
    t_sig = float(rng.uniform(0.3, 1.0))
    sigma = semigroup_inner(_z1(8), t_sig, 8)
    w = complex(0.6 * math.sqrt(rng.random())
                * np.exp(2j * math.pi * rng.random()))
    t_semi = float(rng.uniform(0.2, 1.0))
    # diag(1, 0) plus strictly upper-right terms: E * E = E exactly
    E = NcSeries(2, 2, 2, N, {(): np.diag([1.0, 0.0])} | {
        word: np.array([[0.0, _cgauss(rng)], [0.0, 0.0]])
        for word in ((1,), (2,), (1, 2))})
    poly = _classical_poly(rng)
    kz = MatrixPoint(list(_cgauss(rng, (2, 2, 2))))
    kz = kz.scale(0.7 / kz.row_norm())
    ky, kv = _cgauss(rng, 2), _cgauss(rng, 2)

    p = {
        "factor": doc("factor_h", to_json_dict(factor_h)),
        "eval_f": doc("eval_f", to_json_dict(eval_f)),
        "point": doc("point", point_to_json_dict(Z)),
        "kpoint": doc("kpoint", point_to_json_dict(kz)),
        "y": doc("y", vector_to_json(ky)),
        "v": doc("v", vector_to_json(kv)),
        "sigma": doc("sigma", to_json_dict(sigma)),
        "z": doc("z", to_json_dict(NcSeries.monomial((a,), 2, N))),
        "V": doc("V", to_json_dict(commutator_inner(max_degree=8))),
        "z1z2": doc("z1z2", to_json_dict(NcSeries.monomial((1, 2), 2, 8))),
        "E": doc("E", to_json_dict(E)),
        "poly": doc("poly", {"coeffs": [[x.real, x.imag] for x in poly]}),
    }
    w_text = f"{w.real!r}{w.imag:+.17g}j"
    specs = [
        ("factor", ["--series", p["factor"], "--seed", str(seed)], 0),
        ("eval", ["--series", p["eval_f"], "--point", p["point"]], 0),
        ("kernel", ["--point", p["kpoint"], "--y", p["y"], "--v", p["v"],
                    "--degree", "6"], 0),
        ("classify", ["--series", p["sigma"], "--seed", str(seed)], 0),
        ("frostman", ["--series", p["V"], "--w", w_text], 0),
        ("semigroup", ["--series", p["z1z2"], "--t", repr(t_semi)], 0),
        # no singularity data and z_a(0) = 0: a diagnostic verdict
        ("classify", ["--series", p["z"], "--seed", str(seed)], 2),
        ("crofoot", ["--series", p["V"], "--w", w_text], 0),
        ("idempotent", ["--series", p["E"]], 0),
        ("compare-classical", ["--poly", p["poly"], "--degree", "10"], 0),
    ]
    jobs = [CliJob(cmd, [cmd] + args, code, ctx)
            for cmd, args, code in specs]
    inputs = {"docs": docs, "argv": [[j.args, j.expected_code]
                                     for j in jobs]}

    def warm_up():
        subprocess.run(ctx.cli_argv() + ["--help"], cwd=root, env=ctx.env,
                       capture_output=True, timeout=120, check=True)

    corpus = Corpus([jobs], inputs, warm_up)
    corpus.cli = ctx
    return corpus
