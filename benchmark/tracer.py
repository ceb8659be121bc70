"""Span tracing for the benchmark's traced run.

The tracer wraps every public function of every nchardy module at each
name the package reaches it through: module globals, ``from .x import y``
bindings and the package namespace.  A call records a span
``[name, layer, start, end, parent, job, tag]`` in memory; nothing is written
until the run ends.  It also wraps ``scipy.optimize.least_squares`` and
``scipy.linalg.expm`` to count solver evaluations and the exponentiated
dimension, without opening spans for them, so their time stays inside the
nchardy function that called them.

Spans are recorded only while ``active`` is set, so checks the benchmark
runs on a job's output never show up as program work.
"""

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

LAYERS = ("ncseries", "fockspace", "evaluate", "kernels", "factorization",
          "transforms", "classical", "cli")

# Counters fed by the hooks below; every one reads 0 when nothing fed it.
COUNTERS = (
    "ncseries.series_mul.pairs",
    "fockspace.mult_operator.bytes",
    "fockspace.max_dim",
    "evaluate.evaluate.terms",
    "factorization.singular_test.samples",
    "factorization.spectral_outer.lsq_nfev",
    "factorization.spectral_outer.lsq_attempts",
    "transforms.semigroup_inner.expm_dim",
)

# Counters that keep the largest value seen rather than a sum.
MAXED = {"fockspace.max_dim", "transforms.semigroup_inner.expm_dim"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _hook_series_mul(tr, args, kwargs, out):
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    tr.counts["ncseries.series_mul.pairs"] += len(f.coeffs) * len(g.coeffs)


def _hook_mult_operator(tr, args, kwargs, out):
    # a dense complex matrix of D*p x D*q entries: 16 D^2 p q bytes
    tr.counts["fockspace.mult_operator.bytes"] += out.mat.nbytes
    tr.raise_max("fockspace.max_dim", out.basis.dim)


def _hook_evaluate(tr, args, kwargs, out):
    tr.counts["evaluate.evaluate.terms"] += len(_arg(args, kwargs, 0, "f")
                                                .coeffs)


def _hook_singular_test(tr, args, kwargs, out):
    tr.counts["factorization.singular_test.samples"] += out["num_samples"]


def _hook_semigroup_inner(tr, args, kwargs, out):
    # tags the span with its generator's shape, which tells the
    # commutator runs apart from the d = 1 runs in the same job
    B = _arg(args, kwargs, 0, "B")
    return f"d={B.d},deg={B.degree()}"


_HOOKS = {
    "ncseries.series_mul": _hook_series_mul,
    "fockspace.mult_operator": _hook_mult_operator,
    "evaluate.evaluate": _hook_evaluate,
    "factorization.singular_test": _hook_singular_test,
    "transforms.semigroup_inner": _hook_semigroup_inner,
}


class Tracer:
    """Collects spans and counters in memory for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.job = None
        self.active = False
        self.traced = set()
        self._stack = []
        self._restore = []

    def raise_max(self, key, value):
        self.counts[key] = max(self.counts[key], value)

    def begin(self, name, layer):
        """Open a span by hand; returns the record that ``end`` closes."""
        stack = self._stack
        rec = [name, layer, time.perf_counter(), 0.0,
               stack[-1] if stack else -1, self.job, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        hook = _HOOKS.get(qual)
        self.traced.add(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self.begin(qual, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if hook is not None:
                rec[6] = hook(self, args, kwargs, out)
            return out

        return traced

    def install(self, callers=(), with_cli=False):
        """Wrap the package in place, and rebind the names the modules in
        ``callers`` imported from it.  With ``with_cli`` the CLI module is
        imported afterwards, so its import-time bindings (including the
        functions the Mobius commands capture) pick up the wrappers."""
        pkg = importlib.import_module("nchardy")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"nchardy.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(layer, name, obj)
        mods = [pkg, *callers] + [m for n, m in list(sys.modules.items())
                                  if n.startswith("nchardy.")
                                  and m is not None]
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        self._patch_scipy()
        if with_cli:
            cli = importlib.import_module("nchardy.cli")
            for cmd in cli.main.commands.values():
                self._restore.append((cmd, "callback", cmd.callback))
                cmd.callback = self.wrap("cli", cmd.name, cmd.callback)
        return self

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def _patch_scipy(self):
        import scipy.linalg
        import scipy.optimize

        lsq = scipy.optimize.least_squares
        expm = scipy.linalg.expm

        @functools.wraps(lsq)
        def least_squares(*args, **kwargs):
            res = lsq(*args, **kwargs)
            if self.active:
                self.counts["factorization.spectral_outer.lsq_attempts"] += 1
                self.counts["factorization.spectral_outer.lsq_nfev"] += \
                    res.nfev
            return res

        @functools.wraps(expm)
        def expm_counted(A, *args, **kwargs):
            if self.active:
                self.raise_max("transforms.semigroup_inner.expm_dim",
                               A.shape[0])
            return expm(A, *args, **kwargs)

        for owner, name, obj in ((scipy.optimize, "least_squares",
                                  least_squares),
                                 (scipy.linalg, "expm", expm_counted)):
            self._restore.append((owner, name, getattr(owner, name)))
            setattr(owner, name, obj)

    def merge(self, dump, parent):
        """Adopt what a traced child process recorded (see ``dump``), with
        its top-level spans placed under span index ``parent``."""
        base = len(self.spans)
        for name, layer, start, end, par, _, tag in dump["spans"]:
            self.spans.append([name, layer, start, end,
                               parent if par < 0 else par + base, self.job,
                               tag])
        for key, value in dump["counts"].items():
            if key in MAXED:
                self.raise_max(key, value)
            else:
                self.counts[key] += value
        self.traced.update(dump["traced"])

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "traced": sorted(self.traced)}


def self_times(spans):
    """Span duration minus the time its child spans cover.  Spans nest
    strictly (one thread), so the children's durations can be summed."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            covered[rec[4]] += rec[3] - rec[2]
    return [(rec[3] - rec[2]) - covered[i] for i, rec in enumerate(spans)]


def layer_metrics(tracer):
    """Self time and call count per layer and per traced function, plus
    the counters.  Functions that never ran read 0."""
    out = {key: 0.0 for key in COUNTERS}
    for qual in tracer.traced:
        out[f"{qual}.self_s"] = 0.0
        out[f"{qual}.calls"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        name, layer = rec[0], rec[1]
        if layer not in LAYERS:
            continue
        out[f"{layer}.self_s"] += own
        out[f"{layer}.calls"] += 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    out.update(tracer.counts)
    return out
