"""Command-line front end.

Subcommands: spectrum, scan, boundary, pmn, metric, perturb, fig1, fig2,
dim.  All data outputs are deterministic (no timestamps; floats at 17
significant digits), so equal configurations produce byte-identical
files.  When writing to a file, a sidecar ``<out>.meta.json`` records the
tool, its version, the subcommand and every option that is set (defaults
included; ``--out``, ``--config`` and switches left off are not).

The parser holds every option's type, default and requirement.  A config
file (``--config``) is a flat ``key = value`` text file whose keys are
the subcommand's long options with dashes replaced by underscores; a
switch such as ``basis`` takes ``true`` or ``false``.  Its lines are read
as ``--key value`` flags right after the subcommand, so flags on the
command line win and config values pass the same checks.  ``--tol``
exists only on spectrum, scan and boundary, which use it.  Options are
spelled in full: a prefix such as ``--d`` for ``--d2`` is an error.

Exit status: :func:`main` returns 0 on success, 1 on numerical failure
and 2 on a usage error, with a one-line ``error:`` message on stderr for
1 and 2; only ``-h`` and ``--version`` raise ``SystemExit``.  The
``QUASIH_THREADS`` environment variable is accepted and ignored: the grid
scan is one numpy evaluation.
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
    DEFAULT_MARGIN_TOL,
    BoundaryTraceError,
    _margins,
    boundary_trace_ray,
    figure1_geometry,
    in_domain,
    pmn_points,
    scan_grid,
)
from quasih.metric import (
    DEFAULT_RANK_TOL,
    boundary_degeneracy_profile,
    find_positive,
    metric_nullspace,
)
from quasih.model import (
    ParamPoint,
    _require_finite,
    build_alpha,
    build_band,
    build_full,
    build_two_state,
)
from quasih.perturb import (
    A_VERTEX,
    C_VERTEX,
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ValueError on a usage error, so that
    :func:`main` reports it in one line and returns 2 (argparse itself
    prints its usage text and exits)."""

    #: The subcommand parsers by name (set by :func:`build_parser`).
    subcommands: dict[str, argparse.ArgumentParser]

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _config_argv(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The ``key = value`` lines of a config file as flags of ``command``."""
    argv = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"bad config line: {raw!r}")
        flag = "--" + key.replace("_", "-")
        action = command._option_string_actions.get(flag)
        if action is None or flag in ("--config", "--help"):
            raise ValueError(f"{command.prog} has no config key {key!r}")
        if action.nargs != 0:
            argv += [flag, *(value.split() if action.nargs else [value])]
        elif value not in ("true", "false"):
            raise ValueError(f"config key {key!r} takes true or false")
        elif value == "true":
            argv.append(flag)
    return argv


def _config_path(argv: list[str]) -> str | None:
    """The value of the last ``--config`` flag in argv."""
    path = None
    for token, following in zip(argv, [*argv[1:], None]):
        if token == "--config":
            path = following
        elif token.startswith("--config="):
            path = token[len("--config="):]
    return path


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    Path(args.out).write_text(text)
    meta = {
        key: value
        for key, value in vars(args).items()
        if key not in ("out", "config", "func") and value is not None and value is not False
    }
    Path(args.out + ".meta.json").write_text(
        json_dumps({"tool": "quasih", "version": __version__, **meta})
    )


def _matrix(args) -> np.ndarray:
    """The matrix of the one model flag given."""
    if args.two_state is not None:
        return build_two_state(args.two_state)
    if args.full is not None:
        return build_full(ParamPoint(*args.full))
    if args.band is not None:
        return build_band(*args.band)
    return build_alpha(args.alpha)


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
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise argparse.ArgumentTypeError("profile n must be >= 1")
    return lo, hi, n


def _cmd_spectrum(args) -> int:
    h = _matrix(args)
    spec = numeric_energies(h, args.tol)
    doc = {
        "energies": [[e.real, e.imag] for e in spec.energies],
        "classification": spec.classification.value,
        "max_imag": spec.max_imag,
        "matrix": matrix_to_json_dict(h),
    }
    _emit(args, json_dumps(doc))
    return 0


def _cmd_scan(args) -> int:
    if args.d2 < 0:
        raise ValueError("d2 must be non-negative")
    a_min, a_max, b_min, b_max = args.range
    na, nb = args.res
    if na * nb > MAX_SCAN_CELLS:
        raise ValueError(f"resolution {na}x{nb} exceeds {MAX_SCAN_CELLS} cells")
    grid = scan_grid((a_min, a_max), (b_min, b_max), math.sqrt(args.d2), args.res, args.tol)
    text = grid_csv(
        ["a", "b", "inside", "margin"], grid.a_values, grid.b_values, grid.inside, grid.margin
    )
    _emit(args, text)
    return 0


def _cmd_boundary(args) -> int:
    a, b = boundary_trace_ray(tuple(args.center), tuple(args.direction), args.d, args.tol)
    verdict = in_domain(a, b, args.d, args.tol)
    _emit(args, json_dumps({"a": a, "b": b, "d": args.d, "margin": verdict.margin}))
    return 0


def _cmd_pmn(args) -> int:
    doc = {
        "d2": args.d2,
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
            for p in pmn_points(args.d2)
        ],
    }
    _emit(args, json_dumps(doc))
    return 0


def _cmd_metric(args) -> int:
    if args.profile is not None:
        lo, hi, n = args.profile
        profile = boundary_degeneracy_profile(np.linspace(lo, hi, n))
        _emit(args, csv_rows(["alpha", "min_eig"], profile))
        return 0

    fam = metric_nullspace(_matrix(args), args.rank_tol)
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
    _emit(args, json_dumps(doc))
    return 0


def _cmd_perturb(args) -> int:
    doc = {}
    if args.critical:
        alpha_cs, e_cs = critical_strength()
        doc["critical"] = {"alpha_cs": alpha_cs, "e_cs": e_cs}
    if args.series is not None:
        if args.alpha is None or args.order is None:
            raise ValueError("--series needs --alpha and --order")
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
        raise ValueError("perturb needs --critical, --series or --spike")
    _emit(args, json_dumps(doc))
    return 0


def _cmd_fig1(args) -> int:
    geo = figure1_geometry(args.d2)
    doc = {
        "d2": args.d2,
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
    _emit(args, json_dumps(doc))
    return 0


@np.errstate(over="raise", invalid="raise")  # a huge --t-max or --coef-c is a usage error
def _cmd_fig2(args) -> int:
    for flag, count in (("t-steps", args.t_steps), ("res-a", args.res_a)):
        if count < 1:
            raise ValueError(f"{flag} must be >= 1")
    _require_finite(**{"--coef-c": args.coef_c, "--t-max": args.t_max})
    if args.t_max < 0.0:
        raise ValueError("--t-max: spike parameter t must be non-negative")
    # One ansatz for the whole scan: it warns once if t_max is past the policy bound.
    SpikeAnsatz(t=args.t_max, coef_a=args.coef_c, coef_c=args.coef_c)
    t = np.linspace(args.t_max / args.t_steps, args.t_max, args.t_steps)[:, None]
    coef_a = np.linspace(args.coef_c - 1.0, args.coef_c + 1.5, args.res_a)
    # spike_point's expression, over the (t, coef_a) grid.
    a = args.corner_a * A_VERTEX * (1.0 - t - coef_a * t * t)
    c = args.corner_c * C_VERTEX * (1.0 - t - args.coef_c * t * t)
    a, c = np.broadcast_arrays(a, c)
    inside = _margins(a, 0.0, c)[2] >= -DEFAULT_MARGIN_TOL
    _emit(args, csv_rows(["a", "c", "inside"], zip(a.flat, c.flat, inside.flat)))
    return 0


def _cmd_dim(args) -> int:
    _emit(args, f"{dim_domain(args.n)}\n")
    return 0


def _model_flags(p: argparse.ArgumentParser):
    """The model flags, of which exactly one must be given."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-state", type=float, metavar="B")
    group.add_argument("--full", type=float, nargs=4, metavar=("A", "B", "C", "D"))
    group.add_argument("--band", type=float, nargs=2, metavar=("A", "C"))
    group.add_argument("--alpha", type=float, metavar="ALPHA")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quasih",
        allow_abbrev=False,
        description="Spectra, quasi-Hermiticity domain and metrics of the "
        "four-level PT-symmetric matrix model.",
    )
    parser.add_argument("--version", action="version", version=f"quasih {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--config", help="flat key = value file of options")
        p.set_defaults(func=func)
        return p

    def tol(p):
        p.add_argument(
            "--tol", type=float, default=DEFAULT_REALITY_TOL, help="reality/margin tolerance"
        )

    p = command("spectrum", _cmd_spectrum, "energies of a selected model matrix")
    _model_flags(p)
    tol(p)

    p = command("scan", _cmd_scan, "membership grid over the a-b plane")
    p.add_argument("--d2", type=float, required=True, help="fixed c^2 = d^2 value")
    p.add_argument(
        "--range", type=_parse_range, default=(-4.0, 4.0, -4.0, 4.0), metavar="A0:A1:B0:B1"
    )
    p.add_argument("--res", type=_parse_res, default=(81, 81), metavar="NxM")
    tol(p)

    p = command("boundary", _cmd_boundary, "trace the domain boundary along a ray")
    p.add_argument("--center", type=float, nargs=2, required=True, metavar=("A", "B"))
    p.add_argument(
        "--direction", type=float, nargs=2, required=True, metavar=("DX", "DY")
    )
    p.add_argument("--d", type=float, required=True)
    tol(p)

    p = command("pmn", _cmd_pmn, "points of maximal non-Hermiticity at fixed d^2")
    p.add_argument("--d2", type=float, required=True)

    p = command("metric", _cmd_metric, "metric family, positivity, or alpha profile")
    _model_flags(p).add_argument(
        "--profile",
        type=_parse_profile,
        metavar="A0:A1:N",
        help="alpha sweep CSV of best min eigenvalues (instead of a model)",
    )
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--basis", action="store_true", help="emit all basis matrices")
    p.add_argument(
        "--positivity", action="store_true", help="emit a positivity certificate"
    )

    p = command("perturb", _cmd_perturb, "band series, critical strength, spike ansatz")
    p.add_argument("--series", choices=["e1", "e3"])
    p.add_argument("--order", type=int, choices=[2, 4, 6])
    p.add_argument("--alpha", type=float)
    p.add_argument("--critical", action="store_true")
    p.add_argument(
        "--spike", type=float, nargs=3, metavar=("COEF_A", "COEF_C", "T")
    )

    p = command("fig1", _cmd_fig1, "circle/hyperbola geometry of the PMN search")
    p.add_argument("--d2", type=float, required=True)

    p = command("fig2", _cmd_fig2, "spike-shaped domain scan near a vertex")
    p.add_argument("--coef-c", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=0.02)
    p.add_argument("--t-steps", type=int, default=20)
    p.add_argument("--res-a", type=int, default=101)
    p.add_argument("--corner-a", type=int, choices=[-1, 1], default=-1)
    p.add_argument("--corner-c", type=int, choices=[-1, 1], default=-1)

    p = command("dim", _cmd_dim, "coupling-space dimension floor(n^2/4)")
    p.add_argument("--n", type=int, required=True)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser; parsing leaves no state on it (a config
    file is read into each call's argv)."""
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


def _normalize(argv: list[str]) -> list[str]:
    """argv with negative numbers in exponent form written out and each
    ``--range`` value such as "-4:4:-4:4" folded into ``--range=...``, so
    that argparse takes neither for an option string.  A config file can
    add a second ``--range``, so every one is folded."""
    out = []
    for token in argv:
        if out and out[-1] == "--range" and token.startswith("-"):
            out[-1] = f"--range={token}"
        else:
            out.append(_plain_number(token))
    return out


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        path = _config_path(argv)
        if path is not None and argv[0] in parser.subcommands:
            argv[1:1] = _config_argv(path, parser.subcommands[argv[0]])
        args = parser.parse_args(_normalize(argv))
        return args.func(args)
    except (BoundaryTraceError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
