"""nchardy benchmark: one seeded workload, timed or traced.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload spectral_factor --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``spectral_factor``: library ``inner_outer`` and certified split jobs;
* ``sample_certify``: semigroup singular inners, ``singular_test`` and
  the Cayley/Herglotz check;
* ``cli_batch``: one ``python -m nchardy.cli`` process per job, over all
  nine commands.

Every job's output is checked.  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run, whose spans are written to
``.bench_out/trace/``.  The line before the result describes the run:
environment, input digest and details of the measurement.  Each run also
leaves its full record in ``.bench_out/results/``.

Set-up (interpreter start, imports, input generation, warm-up) is timed
in fresh worker processes, three per timed run, and ``setup_s`` is their
median.  Timed values are scaled by a reference kernel that tracks the
host's current speed (see worker.py and README.md); unscaled values are
in the ``run_info`` line.  The package is used from ``src/`` as it stands
in the checkout; without it the benchmark exits with status 2 and prints
no result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("spectral_factor", "sample_certify", "cli_batch")

# One client runs one job at a time, so BLAS gets one thread: that keeps
# the timings steady on a shared machine, and never exceeds nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nchardy")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


class Worker:
    """A worker process.  ``setup_s`` is the time from spawn to READY,
    scaled by the slowdown the worker measured right after it (see
    REFERENCE_NOMINAL_S in worker.py)."""

    def __init__(self, args, env, setup_only, deadline):
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--root", ROOT, "--out-dir", OUT_DIR]
        if setup_only:
            argv.append("--setup-only")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        # a worker stuck before READY would block readline forever
        self.timer = threading.Timer(deadline - time.monotonic(),
                                     self.proc.kill)
        self.timer.start()
        try:
            line = self.proc.stdout.readline()
            setup_s = time.perf_counter() - start
            if line.strip() != "READY":
                raise BenchError("worker failed during set-up")
            self.setup_raw_s = setup_s
            self.setup_s = setup_s / float(self.proc.stdout.readline())
        except BaseException:
            self.stop()
            raise

    def finish(self):
        """Wait for the worker and return its last stdout line."""
        out, _ = self.proc.communicate()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        lines = out.strip().splitlines()
        return lines[-1] if lines else ""

    def stop(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def measure(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    workers = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            workers.append(Worker(args, env, True, deadline))
            workers[-1].finish()
    workers.append(Worker(args, env, False, deadline))
    result = json.loads(workers[-1].finish())

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(w.setup_s for w in workers)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        **result["env"],
        "setup_samples_s": [w.setup_s for w in workers],
        "setup_unscaled_s": [w.setup_raw_s for w in workers],
        "details": result["details"],
    }
    if args.trace:
        info["baseline_check"] = result["baseline_check"]
    return info, final


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "nchardy",
                                       "__init__.py")):
        print("benchmark: src/nchardy not found in the checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        info, final = measure(args, spec)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    for check in info.get("baseline_check", ()):
        if check["flagged"]:
            print(f"benchmark: {check['quantity']} = {check['measured']:.4g}"
                  f" is outside 20% of the seed baseline {check['baseline']}",
                  file=sys.stderr)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, "results", name), "w",
              encoding="utf-8") as fh:
        json.dump({"run_info": info, "result": final}, fh, indent=1)
    print(json.dumps({"run_info": info}))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
