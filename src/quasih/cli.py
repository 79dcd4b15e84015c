"""Command-line front end.

Subcommands: spectrum, scan, boundary, pmn, metric, perturb, fig1, fig2,
dim.  All data outputs are deterministic (no timestamps; floats at 17
significant digits), so equal configurations produce byte-identical
files.  When writing to a file, a sidecar ``<out>.meta.json`` records the
resolved configuration.

Option precedence is flags > config file > built-in defaults; the config
file (``--config``) is a flat ``key = value`` text file whose keys match
the long option names with dashes replaced by underscores.

Exit status: 0 on success, 1 on numerical failure, 2 on bad arguments
(with a one-line ``error:`` message on stderr).  The ``QUASIH_THREADS``
environment variable is accepted and ignored: the grid scan is one numpy
evaluation.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from quasih import __version__
from quasih.domain import (
    BoundaryTraceError,
    boundary_trace_ray,
    figure1_geometry,
    in_domain,
    pmn_points,
    scan_grid,
)
from quasih.metric import (
    boundary_degeneracy_profile,
    closed_form_band_metric,
    find_positive,
    metric_nullspace,
)
from quasih.model import (
    ParamPoint,
    build_alpha,
    build_band,
    build_full,
    build_two_state,
)
from quasih.perturb import (
    SpikeAnsatz,
    band_series_E1,
    band_series_E3,
    critical_strength,
    spike_membership,
    spike_point,
)
from quasih.serialize import csv_rows, grid_csv, json_dumps, matrix_to_json_dict
from quasih.spectrum import DEFAULT_REALITY_TOL, numeric_energies


#: Largest scan grid, in cells: 2000x2000.  A grid holds several float64
#: arrays of this size and its CSV one row per cell.
MAX_SCAN_CELLS = 4_000_000


def dim_domain(n: int) -> int:
    """Dimension count floor(n^2 / 4) of the coupling space at even n >= 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    return (n * n) // 4


def _read_config(path: str) -> dict:
    config = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _resolve(args, name: str, default, cast=float):
    """flags > config > default for a single option."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    config = getattr(args, "_config", {})
    if name in config:
        return cast(config[name])
    return default


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require_d2(args) -> float:
    d2 = _resolve(args, "d2", None)
    if d2 is None:
        _usage_error(f"{args.command} needs --d2")
    return d2


def _emit(args, text: str, meta: dict) -> None:
    out = _resolve(args, "out", None, str)
    if out is None:
        sys.stdout.write(text)
        return
    Path(out).write_text(text)
    meta_doc = {"tool": "quasih", "version": __version__, **meta}
    Path(out + ".meta.json").write_text(json_dumps(meta_doc))


def _spectrum_json(spec) -> dict:
    return {
        "energies": [[e.real, e.imag] for e in spec.energies],
        "classification": spec.classification.value,
        "max_imag": spec.max_imag,
    }


def _select_matrix(args):
    chosen = [
        name
        for name in ("two_state", "full", "band", "alpha")
        if getattr(args, name, None) is not None
    ]
    if len(chosen) != 1:
        _usage_error("give exactly one of --two-state, --full, --band, --alpha")
    name = chosen[0]
    if name == "two_state":
        return build_two_state(args.two_state), {"two_state": args.two_state}
    if name == "full":
        a, b, c, d = args.full
        return build_full(ParamPoint(a, b, c, d)), {"full": list(args.full)}
    if name == "band":
        a, c = args.band
        return build_band(a, c), {"band": list(args.band)}
    return build_alpha(args.alpha), {"alpha": args.alpha}


def _parse_range(text: str) -> tuple[float, float, float, float]:
    parts = [float(p) for p in text.split(":")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("range must be a_min:a_max:b_min:b_max")
    return tuple(parts)


def _parse_res(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("resolution must be NxM")
    na, nb = int(parts[0]), int(parts[1])
    if na < 1 or nb < 1:
        raise argparse.ArgumentTypeError("resolution counts must be >= 1")
    return na, nb


def _parse_profile(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("profile must be alpha_min:alpha_max:n")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _cmd_spectrum(args) -> int:
    tol = _resolve(args, "tol", DEFAULT_REALITY_TOL)
    h, selector = _select_matrix(args)
    spec = numeric_energies(h, tol)
    doc = _spectrum_json(spec)
    doc["matrix"] = matrix_to_json_dict(h)
    _emit(args, json_dumps(doc), {"command": "spectrum", **selector, "tol": tol})
    return 0


def _cmd_scan(args) -> int:
    tol = _resolve(args, "tol", DEFAULT_REALITY_TOL)
    d2 = _require_d2(args)
    if d2 < 0:
        raise ValueError("d2 must be non-negative")
    a_min, a_max, b_min, b_max = _resolve(args, "range", (-4.0, 4.0, -4.0, 4.0), _parse_range)
    na, nb = _resolve(args, "res", (81, 81), _parse_res)
    if na * nb > MAX_SCAN_CELLS:
        raise ValueError(f"resolution {na}x{nb} exceeds {MAX_SCAN_CELLS} cells")
    grid = scan_grid((a_min, a_max), (b_min, b_max), math.sqrt(d2), (na, nb), tol)
    text = grid_csv(
        ["a", "b", "inside", "margin"], grid.a_values, grid.b_values, grid.inside, grid.margin
    )
    meta = {
        "command": "scan",
        "d2": d2,
        "range": [a_min, a_max, b_min, b_max],
        "res": [na, nb],
        "tol": tol,
    }
    _emit(args, text, meta)
    return 0


def _cmd_boundary(args) -> int:
    tol = _resolve(args, "tol", DEFAULT_REALITY_TOL)
    a, b = boundary_trace_ray(
        tuple(args.center), tuple(args.direction), args.d, tol
    )
    verdict = in_domain(a, b, args.d, tol)
    doc = {"a": a, "b": b, "d": args.d, "margin": verdict.margin}
    _emit(
        args,
        json_dumps(doc),
        {
            "command": "boundary",
            "center": list(args.center),
            "direction": list(args.direction),
            "d": args.d,
            "tol": tol,
        },
    )
    return 0


def _cmd_pmn(args) -> int:
    d2 = _require_d2(args)
    points = pmn_points(d2)
    doc = {
        "d2": d2,
        "points": [
            {
                "a": p.a,
                "b": p.b,
                "d": p.d,
                "residuals": {
                    "sphere": p.residuals[0],
                    "linear_term": p.residuals[1],
                    "constant_term": p.residuals[2],
                },
            }
            for p in points
        ],
    }
    _emit(args, json_dumps(doc), {"command": "pmn", "d2": d2})
    return 0


def _cmd_metric(args) -> int:
    if args.profile is not None:
        lo, hi, n = args.profile
        alphas = np.linspace(lo, hi, n)
        profile = boundary_degeneracy_profile(alphas)
        text = csv_rows(["alpha", "min_eig"], profile)
        _emit(args, text, {"command": "metric", "profile": [lo, hi, n]})
        return 0

    h, selector = _select_matrix(args)
    rank_tol = _resolve(args, "rank_tol", 1e-10)
    fam = metric_nullspace(h, rank_tol)
    doc = {"dim": fam.dim, "residual": fam.residual}
    if args.basis:
        doc["basis"] = [matrix_to_json_dict(e) for e in fam.basis]
    if args.positivity:
        cert = find_positive(fam)
        doc["positivity"] = {
            "coefficients": list(cert.coefficients),
            "min_eigenvalue": cert.min_eigenvalue,
            "positive": cert.positive,
        }
    _emit(args, json_dumps(doc), {"command": "metric", **selector, "rank_tol": rank_tol})
    return 0


def _cmd_perturb(args) -> int:
    doc = {}
    if args.critical:
        alpha_cs, e_cs = critical_strength()
        doc["critical"] = {"alpha_cs": alpha_cs, "e_cs": e_cs}
    if args.series is not None:
        if args.alpha is None or args.order is None:
            _usage_error("--series needs --alpha and --order")
        series = band_series_E1 if args.series == "e1" else band_series_E3
        doc["series"] = {
            "which": args.series,
            "order": args.order,
            "alpha": args.alpha,
            "value": series(args.alpha, args.order),
        }
    if args.spike is not None:
        coef_a, coef_c, t = args.spike
        ansatz = SpikeAnsatz(t=t, coef_a=coef_a, coef_c=coef_c)
        a, c = spike_point(ansatz)
        doc["spike"] = {
            "a": a,
            "c": c,
            "inside_leading": spike_membership(coef_a, coef_c, t),
            "inside_exact": in_domain(a, 0.0, c).inside,
        }
    if not doc:
        _usage_error("perturb needs --critical, --series or --spike")
    _emit(args, json_dumps(doc), {"command": "perturb"})
    return 0


def _cmd_fig1(args) -> int:
    d2 = _require_d2(args)
    geo = figure1_geometry(d2)
    doc = {
        "d2": d2,
        "circle_radius": geo["circle_radius"],
        "hyperbolas": [
            {
                "locus": h["locus"],
                "center": list(h["center"]),
                "branches": [branch.tolist() for branch in h["branches"]],
            }
            for h in geo["hyperbolas"]
        ],
        "intersections": [
            {"a": p.a, "b": p.b, "residuals": list(p.residuals)}
            for p in geo["intersections"]
        ],
    }
    _emit(args, json_dumps(doc), {"command": "fig1", "d2": d2})
    return 0


def _cmd_fig2(args) -> int:
    coef_c = _resolve(args, "coef_c", 0.0)
    t_max = _resolve(args, "t_max", 0.02)
    t_steps = int(_resolve(args, "t_steps", 20))
    if t_steps < 1:
        raise ValueError("t-steps must be >= 1")
    res = int(_resolve(args, "res_a", 101))
    corner = (args.corner_a, args.corner_c)
    rows = []
    for t in np.linspace(t_max / t_steps, t_max, t_steps):
        for coef_a in np.linspace(coef_c - 1.0, coef_c + 1.5, res):
            ansatz = SpikeAnsatz(t=t, coef_a=coef_a, coef_c=coef_c, corner=corner)
            a, c = spike_point(ansatz)
            rows.append((a, c, in_domain(a, 0.0, c).inside))
    text = csv_rows(["a", "c", "inside"], rows)
    meta = {
        "command": "fig2",
        "coef_c": coef_c,
        "t_max": t_max,
        "t_steps": t_steps,
        "res_a": res,
        "corner": list(corner),
    }
    _emit(args, text, meta)
    return 0


def _cmd_dim(args) -> int:
    try:
        value = dim_domain(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, f"{value}\n", {"command": "dim", "n": args.n})
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--two-state", dest="two_state", type=float, metavar="B")
    p.add_argument("--full", type=float, nargs=4, metavar=("A", "B", "C", "D"))
    p.add_argument("--band", type=float, nargs=2, metavar=("A", "C"))
    p.add_argument("--alpha", type=float, metavar="ALPHA")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasih",
        description="Spectra, quasi-Hermiticity domain and metrics of the "
        "four-level PT-symmetric matrix model.",
    )
    parser.add_argument("--version", action="version", version=f"quasih {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--tol", type=float, help="reality/margin tolerance")

    p = sub.add_parser("spectrum", help="energies of a selected model matrix")
    common(p)
    _add_model_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scan", help="membership grid over the a-b plane")
    common(p)
    p.add_argument("--d2", type=float, help="fixed c^2 = d^2 value")
    p.add_argument("--range", type=_parse_range, metavar="A0:A1:B0:B1")
    p.add_argument("--res", type=_parse_res, metavar="NxM")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("boundary", help="trace the domain boundary along a ray")
    common(p)
    p.add_argument("--center", type=float, nargs=2, required=True, metavar=("A", "B"))
    p.add_argument(
        "--direction", type=float, nargs=2, required=True, metavar=("DX", "DY")
    )
    p.add_argument("--d", type=float, required=True)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("pmn", help="points of maximal non-Hermiticity at fixed d^2")
    common(p)
    p.add_argument("--d2", type=float)
    p.set_defaults(func=_cmd_pmn)

    p = sub.add_parser("metric", help="metric family, positivity, or alpha profile")
    common(p)
    _add_model_flags(p)
    p.add_argument("--rank-tol", dest="rank_tol", type=float)
    p.add_argument("--basis", action="store_true", help="emit all basis matrices")
    p.add_argument(
        "--positivity", action="store_true", help="emit a positivity certificate"
    )
    p.add_argument(
        "--profile",
        type=_parse_profile,
        metavar="A0:A1:N",
        help="alpha sweep CSV of best min eigenvalues",
    )
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("perturb", help="band series, critical strength, spike ansatz")
    common(p)
    p.add_argument("--series", choices=["e1", "e3"])
    p.add_argument("--order", type=int, choices=[2, 4, 6])
    p.add_argument("--alpha", type=float)
    p.add_argument("--critical", action="store_true")
    p.add_argument(
        "--spike", type=float, nargs=3, metavar=("COEF_A", "COEF_C", "T")
    )
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("fig1", help="circle/hyperbola geometry of the PMN search")
    common(p)
    p.add_argument("--d2", type=float)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="spike-shaped domain scan near a vertex")
    common(p)
    p.add_argument("--coef-c", dest="coef_c", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--t-steps", dest="t_steps", type=int)
    p.add_argument("--res-a", dest="res_a", type=int)
    p.add_argument("--corner-a", dest="corner_a", type=int, choices=[-1, 1], default=-1)
    p.add_argument("--corner-c", dest="corner_c", type=int, choices=[-1, 1], default=-1)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("dim", help="coupling-space dimension floor(n^2/4)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_dim)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves no state on it (config
    values are read into each call's namespace)."""
    return build_parser()


#: A negative float in exponent form, which argparse (Python 3.11 and other
#: versions whose negative-number pattern has no exponent) takes for an
#: option string.
_NEGATIVE_EXPONENT_FORM = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _plain_number(token: str) -> str:
    """A negative float such as "-8.4e-05" written out without the exponent,
    in the shortest positional form that parses to the same float."""
    if _NEGATIVE_EXPONENT_FORM.fullmatch(token):
        value = float(token)
        if math.isfinite(value):
            return np.format_float_positional(value, trim="-")
    return token


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    # Fold values like "-4:4:-4:4" into "--range=..." so argparse does not
    # mistake them for option strings.
    argv = [_plain_number(token) for token in argv]
    for i, token in enumerate(argv[:-1]):
        if token == "--range" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--range={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    try:
        args._config = (
            _read_config(args.config) if getattr(args, "config", None) else {}
        )
        return args.func(args)
    except (BoundaryTraceError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
