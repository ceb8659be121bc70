"""JSON-driven batch front-end.

One process, one job: parse the input documents, run the requested
computation, emit a JSON report.  Reports are deterministic for a fixed
seed; everything volatile (wall-clock, timings) lives under the single
top-level "timestamp" key so reports can be compared byte for byte after
dropping it.  Exit codes: 0 success, 1 input/validation error, 2 a
diagnostic outcome (the computation ran but sampling or conditioning was
insufficient for a clean verdict).
"""

import datetime
import functools
import json
import os
import sys
import time

import click
import numpy as np

from .classical import compare_with_nc
from .errors import DiagnosticError, NcError, SchemaError
from .evaluate import (
    evaluate,
    pair_from_json_dict,
    point_from_json_dict,
    vector_from_json,
)
from .factorization import blaschke_singular_split, bso_factor
from .kernels import SingularityPair, szego_kernel
from .ncseries import (
    _complex_from_json,
    _complex_to_json,
    _object_with_keys,
    from_json_dict,
    h2_norm,
    to_json_dict,
)
from .transforms import (
    IDEMPOTENT_GATE,
    crofoot,
    frostman,
    idempotent_split,
    semigroup_inner,
)


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{what} file not found: {path}", what)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}", what)


def _parse_complex(text, name):
    try:
        return complex(str(text).replace(" ", "").replace("i", "j"))
    except ValueError:
        raise SchemaError(f"cannot parse '{text}' as a complex number",
                          name)


def _series_from_file(path, degree):
    """The series document at path, sized to --degree when it is given."""
    s = from_json_dict(_load_json(path, "series"))
    if degree is not None:
        s = s.truncate(degree).with_max_degree(degree)
    return s


def _pairs_from_file(path):
    """The singularity pairs at path; none when no file is given."""
    doc = _load_json(path, "pairs") if path else []
    if not isinstance(doc, list):
        raise SchemaError("pairs document must be a list", "pairs")
    return [SingularityPair(*pair_from_json_dict(obj, f"pairs[{i}]"))
            for i, obj in enumerate(doc)]


def _emit(report, out, force, started):
    report["timestamp"] = {
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
    }
    text = json.dumps(report, sort_keys=True, indent=2,
                      default=_json_default) + "\n"
    if out is None:
        click.echo(text, nl=False)
        return
    if os.path.exists(out) and not force:
        raise SchemaError(
            f"output file exists: {out} (pass --force to overwrite)",
            "out")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    click.echo(f"report written to {out}")


def _json_default(obj):
    """The reports' one encoder: complex values take ncseries' JSON form,
    [re, im] pairs."""
    if np.iscomplexobj(obj):
        return _complex_to_json(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def _fail(error, code):
    click.echo(json.dumps({"error": error}, sort_keys=True, indent=2))
    sys.exit(code)


def _run(body):
    """Make a command body into a command callback.

    The body takes the command's parameters except --out and --force and
    returns its report and whether the outcome is diagnostic.  The runner
    checks the integer options against their floors, runs and times the
    body, writes the report's "command" and "timestamp", emits it and
    maps errors to the exit codes above.
    """
    @functools.wraps(body)
    def callback(out, force, **params):
        started = time.perf_counter()
        try:
            for name, low in (("degree", 1), ("samples", 1), ("seed", 0)):
                if params.get(name) is not None and params[name] < low:
                    raise SchemaError(f"{name} must be >= {low}", name)
            report, diagnostic = body(**params)
            report["command"] = click.get_current_context().command.name
            _emit(report, out, force, started)
        except DiagnosticError as exc:
            _fail({"message": str(exc), "diagnostic": True}, 2)
        except (NcError, ValueError) as exc:
            error = {"message": str(exc)}
            if getattr(exc, "path", ""):
                error["path"] = exc.path
            _fail(error, 1)
        if diagnostic:
            sys.exit(2)

    return callback


def _options(*decos):
    """One decorator applying decos so that --help lists them in order
    (click lists options in reverse order of application)."""
    def apply(fn):
        for deco in reversed(decos):
            fn = deco(fn)
        return fn

    return apply


common_options = _options(
    click.option("--degree", type=int, default=None,
                 help="Truncation order N (>= 1)."),
    click.option("--out", type=click.Path(), default=None,
                 help="Report file (default: stdout)."),
    click.option("--force", is_flag=True,
                 help="Allow overwriting an existing report file."),
)

# the Blaschke/singular split, shared by factor and classify
split_options = _options(
    click.option("--pairs", "pairs_path", type=click.Path(), default=None,
                 help="Optional singularity pairs JSON (list)."),
    click.option("--samples", type=int, default=200, show_default=True,
                 help="Sample count for the singular test (>= 1)."),
    click.option("--seed", type=int, default=0, show_default=True,
                 help="Seed for the singular test's sample points."),
)


@click.group()
def main():
    """Free Hardy-space computations on JSON documents."""


@main.command()
@click.option("--series", "series_path", required=True,
              type=click.Path(), help="Series JSON to factor.")
@split_options
@common_options
@_run
def factor(series_path, pairs_path, samples, seed, degree):
    """Inner-outer plus Blaschke/singular split with defect report."""
    H = _series_from_file(series_path, degree)
    res = bso_factor(H, pairs=_pairs_from_file(pairs_path),
                     rng=np.random.default_rng(seed), num_samples=samples)
    report = {
        "inputs": {"series": to_json_dict(H),
                   "pairs": pairs_path or None},
        "parameters": {"degree": H.max_degree, "seed": seed,
                       "samples": samples},
        "outputs": {
            "blaschke": to_json_dict(res.blaschke),
            "singular": to_json_dict(res.singular)
            if res.singular is not None else None,
            "outer": to_json_dict(res.outer),
            "wandering_dim": res.wandering_dim,
            "flags": res.flags,
        },
        "defects": res.defects,
    }
    return report, res.diagnostic


@main.command("eval")
@click.option("--series", "series_path", required=True, type=click.Path())
@click.option("--point", "point_path", required=True, type=click.Path(),
              help="Matrix point JSON.")
@common_options
@_run
def eval_cmd(series_path, point_path, degree):
    """Evaluate a series at a matrix point."""
    f = _series_from_file(series_path, degree)
    point = _load_json(point_path, "point")
    Z = point_from_json_dict(point)
    val = evaluate(f, Z)
    report = {
        "inputs": {"series": to_json_dict(f), "point": point},
        "parameters": {"degree": f.max_degree},
        "outputs": {
            "value": val,
            "row_norm": Z.row_norm(),
        },
        "defects": {},
    }
    return report, False


@main.command()
@click.option("--point", "point_path", required=True, type=click.Path())
@click.option("--y", "y_path", required=True, type=click.Path(),
              help="JSON file with the y vector ([[re,im],...]).")
@click.option("--v", "v_path", required=True, type=click.Path(),
              help="JSON file with the v vector.")
@common_options
@_run
def kernel(point_path, y_path, v_path, degree):
    """Materialize a Szego kernel vector at a point."""
    N = degree if degree is not None else 8
    point = _load_json(point_path, "point")
    Z = point_from_json_dict(point)
    y = vector_from_json(_load_json(y_path, "y"), Z.n, "y")
    v = vector_from_json(_load_json(v_path, "v"), Z.n, "v")
    K = szego_kernel(Z, y, v, N)
    report = {
        "inputs": {"point": point,
                   "y": y, "v": v},
        "parameters": {"degree": N},
        "outputs": {"kernel": to_json_dict(K.series),
                    "h2_norm": h2_norm(K.series)},
        "defects": {},
    }
    return report, False


@main.command()
@click.option("--series", "series_path", required=True, type=click.Path(),
              help="Inner series JSON to classify.")
@split_options
@common_options
@_run
def classify(series_path, pairs_path, samples, seed, degree):
    """Blaschke/singular classification of an inner series."""
    theta = _series_from_file(series_path, degree)
    sp = blaschke_singular_split(theta, _pairs_from_file(pairs_path),
                                 rng=np.random.default_rng(seed),
                                 num_samples=samples)
    defect = sp.defects.get("blaschke_defect")
    report = {
        "inputs": {"series": to_json_dict(theta),
                   "pairs": pairs_path or None},
        "parameters": {"degree": theta.max_degree,
                       "seed": seed, "samples": samples},
        "outputs": {
            "blaschke": to_json_dict(sp.blaschke),
            "singular": to_json_dict(sp.singular),
            "flags": sp.flags,
            "blaschke_defect": defect,
        },
        "defects": {k: v for k, v in sp.defects.items()
                    if k != "singular_report"},
    }
    if "singular_report" in sp.defects:
        report["outputs"]["singular_report"] = sp.defects["singular_report"]
    return report, sp.diagnostic


def _mobius_command(name, transform):
    @main.command(name)
    @click.option("--series", "series_path", required=True,
                  type=click.Path(), help="Inner series JSON.")
    @click.option("--w", "w_text", required=True,
                  help="Shift parameter, |w| < 1 (e.g. '0.5', '0.3+0.1j').")
    @common_options
    @_run
    def cmd(series_path, w_text, degree):
        theta = _series_from_file(series_path, degree)
        w = _parse_complex(w_text, "w")
        res = transform(theta, w)
        report = {
            "inputs": {"series": to_json_dict(theta), "w": w},
            "parameters": {"degree": theta.max_degree},
            "outputs": {name: to_json_dict(res)},
            "defects": {"window0_defect": abs(h2_norm(res) ** 2 - 1.0)},
        }
        return report, False

    cmd.help = f"Apply the {name} transform to an inner series."
    cmd.short_help = cmd.help
    return cmd


_mobius_command("frostman", frostman)
_mobius_command("crofoot", crofoot)


@main.command()
@click.option("--series", "series_path", required=True, type=click.Path(),
              help="Inner series JSON generating the semigroup.")
@click.option("--t", "t_val", type=float, required=True,
              help="Semigroup parameter t >= 0.")
@common_options
@_run
def semigroup(series_path, t_val, degree):
    """Singular inner exp(-t H_B) from an inner B."""
    B = _series_from_file(series_path, degree)
    Bt = semigroup_inner(B, t_val)
    report = {
        "inputs": {"series": to_json_dict(B), "t": t_val},
        "parameters": {"degree": B.max_degree},
        "outputs": {"semigroup_inner": to_json_dict(Bt),
                    "constant_term": Bt.scalar_coeff(())},
        "defects": {"window0_defect": abs(h2_norm(Bt) ** 2 - 1.0)},
    }
    return report, False


@main.command()
@click.option("--series", "series_path", required=True, type=click.Path(),
              help="Matrix idempotent series JSON.")
@click.option("--tol", type=float, default=None,
              help="Residual gate of the straightening.")
@common_options
@_run
def idempotent(series_path, tol, degree):
    """Straighten a series idempotent to a constant projection."""
    E = _series_from_file(series_path, degree)
    # NaN would compare False both ways and switch the gate off, and no
    # residual falls below a negative gate; 0 asks for exactness
    if tol is not None and not 0 <= tol < np.inf:
        raise SchemaError(f"tol must be finite and >= 0, got {tol}", "tol")
    sp = idempotent_split(E, gate=IDEMPOTENT_GATE if tol is None else tol)
    report = {
        "inputs": {"series": to_json_dict(E)},
        "parameters": {"degree": E.max_degree, "gate": tol},
        "outputs": {
            "S": to_json_dict(sp.S),
            "P": sp.P,
            "m": sp.m, "k": sp.k,
        },
        "defects": {"straightening_residual": sp.residual},
    }
    return report, False


@main.command("compare-classical")
@click.option("--poly", "poly_path", required=True, type=click.Path(),
              help='JSON file {"coeffs": [[re, im], ...]} (ascending).')
@common_options
@_run
def compare_classical(poly_path, degree):
    """Cross-check the d=1 pipeline against classical factorization."""
    doc = _object_with_keys(_load_json(poly_path, "poly"), ("coeffs",),
                            "poly", "poly document")
    raw = doc["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("coeffs must be a nonempty list", "poly.coeffs")
    rep = compare_with_nc(_complex_from_json(raw, "poly.coeffs",
                                             "coefficient", (len(raw),)),
                          N=degree)
    pairs_out = [{k: v for k, v in jp.items() if k != "pair"}
                 for jp in rep["jordan_pairs"]]
    report = {
        "inputs": {"poly": doc},
        "parameters": {"degree": degree},
        "outputs": {
            "zeros": rep["zeros"],
            "phase": rep["phase"],
            "wandering_dim": rep["wandering_dim"],
            "jordan_pairs": pairs_out,
        },
        "defects": {
            "inner_agreement": rep["inner_agreement"],
            "outer_agreement": rep["outer_agreement"],
            **{f"nc_{k}": v for k, v in rep["nc_defects"].items()},
        },
    }
    return report, False


if __name__ == "__main__":
    main()
