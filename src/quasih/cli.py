"""Command-line front end.

Subcommands: spectrum, scan, boundary, pmn, metric, perturb, fig1, fig2,
dim.  All data outputs are deterministic (no timestamps; CSV floats at 17
significant digits, JSON floats as Python's shortest repr, both exact),
so equal configurations produce byte-identical files.  When writing to a
file, a sidecar ``<out>.meta.json`` records the tool, its version, the
subcommand and every option that is set (defaults included; ``--out``,
``--config`` and switches left off are not).

The parser holds every option's type, default and requirement.  A config
file (``--config``) is a flat ``key = value`` text file whose keys are
the subcommand's long options with dashes replaced by underscores; a
switch such as ``basis`` takes ``true`` or ``false``.  Its lines are read
as ``--key value`` flags right after the subcommand, so flags on the
command line win and config values pass the same checks.  Numerical
thresholds are module constants, not options, and a flag that the mode
would ignore (``perturb --alpha`` without ``--series``, ``metric
--profile`` with ``--basis``) is an error.  Options are spelled in full:
a prefix such as ``--d`` for ``--d2`` is an error.
Negative numbers in any form (``-8.4e-05``, ``-inf``) and ``--range
-4:4:-4:4`` are values, never option strings.

Exit status: :func:`main` returns 0 on success, 2 on bad input (a
ValueError or OSError, such as a ray center outside the domain) and 1 on
a numerical failure (a RuntimeError or numpy's LinAlgError: a result past
the float range, or LAPACK failing to converge), with a one-line
``error:`` message on stderr for 1 and 2; only ``-h`` and ``--version``
raise ``SystemExit``.  A warning,
such as ``fig2 --t-max`` past the spike policy bound, is one ``warning:``
line on stderr.

Each subcommand imports the library modules it uses when it runs, so
``dim``, ``pmn``, ``boundary``, ``fig1`` and ``perturb`` (``--critical``,
``--series`` or ``--spike``) load no numpy.  Every CSV is one printf-style
pass of :func:`quasih.serialize.csv_text`, which imports no numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import warnings
from pathlib import Path
from typing import NoReturn

from quasih import __version__
from quasih.model import _require_finite
from quasih.serialize import csv_text, json_dumps, matrix_to_json_dict

#: Largest scan or fig2 grid, in cells: 2000x2000.  A grid holds several
#: float64 arrays of this size and its CSV one row per cell.
MAX_SCAN_CELLS = 4_000_000

#: Most points in a ``metric --profile`` sweep.  Each point is one family and
#: certificate, 0.5-0.7 ms on a 2-core Xeon and no slower near the exceptional
#: point (0.64 ms at alpha^2 = 0.4 - 1e-10): a full sweep takes about 8 s.
MAX_PROFILE_POINTS = 10_000


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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token "-" then a digit, ".digit", "inf" or "nan" is a value, such as
        # "-8.4e-05" or "-4:4:-4:4"; argparse's own rule misses these, and it
        # has no public setting.  No option of quasih looks like a number.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _with_config(argv: list[str], parser: _Parser) -> list[str]:
    """argv with the ``key = value`` lines of its last ``--config`` file read
    in as flags right after the subcommand."""
    path = None
    for token, following in zip(argv, [*argv[1:], None]):
        flag, eq, value = token.partition("=")
        if flag == "--config":
            path = value if eq else following
    if path is None or argv[0] not in parser.subcommands:
        return argv
    command = parser.subcommands[argv[0]]
    from_file = []
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
            from_file += [flag, *(value.split() if action.nargs else [value])]
        elif value not in ("true", "false"):
            raise ValueError(f"config key {key!r} takes true or false")
        elif value == "true":
            from_file.append(flag)
    return [argv[0], *from_file, *argv[1:]]


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
    from quasih.model import ParamPoint, build_alpha, build_band, build_full, build_two_state

    if args.two_state is not None:
        return build_two_state(args.two_state)
    if args.full is not None:
        return build_full(ParamPoint(*args.full))
    if args.band is not None:
        return build_band(*args.band)
    return build_alpha(args.alpha)


def _fields(text: str, sep: str, kinds: tuple, usage: str) -> tuple:
    """The ``sep``-separated fields of ``text``, each read by its kind; a
    wrong count or a field that does not read is the flag's usage message."""
    parts = text.split(sep)
    try:
        if len(parts) == len(kinds):
            return tuple(kind(part) for kind, part in zip(kinds, parts))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(usage)


def _parse_range(text: str) -> tuple[float, float, float, float]:
    a0, a1, b0, b1 = _fields(text, ":", (float,) * 4, "range must be a_min:a_max:b_min:b_max")
    if not all(map(math.isfinite, (a0, a1, b0, b1, a1 - a0, b1 - b0))):
        raise argparse.ArgumentTypeError("range ends and their spans must be finite")
    return a0, a1, b0, b1


def _parse_res(text: str) -> tuple[int, int]:
    na, nb = _fields(text.lower(), "x", (int, int), "resolution must be NxM")
    if na < 1 or nb < 1:
        raise argparse.ArgumentTypeError("resolution counts must be >= 1")
    return na, nb


def _parse_profile(text: str) -> tuple[float, float, int]:
    lo, hi, n = _fields(text, ":", (float, float, int), "profile must be alpha_min:alpha_max:n")
    if n < 1:
        raise argparse.ArgumentTypeError("profile n must be >= 1")
    if n > MAX_PROFILE_POINTS:
        raise argparse.ArgumentTypeError(f"profile n must be <= {MAX_PROFILE_POINTS}")
    return lo, hi, n


def _cmd_spectrum(args) -> str:
    from quasih.spectrum import numeric_energies

    h = _matrix(args)
    spec = numeric_energies(h)
    doc = {
        "energies": spec.energies,
        "classification": spec.classification.value,
        "max_imag": spec.max_imag,
        "matrix": matrix_to_json_dict(h),
    }
    return json_dumps(doc)


def _cmd_scan(args) -> str:
    import numpy as np

    from quasih.domain import scan_grid

    _require_finite(**{"--d2": args.d2})
    if args.d2 < 0:
        raise ValueError("d2 must be non-negative")
    na, nb = args.res
    if na * nb > MAX_SCAN_CELLS:
        raise ValueError(f"resolution {na}x{nb} exceeds {MAX_SCAN_CELLS} cells")
    try:
        with np.errstate(over="raise", invalid="raise"):
            g = scan_grid(args.range[:2], args.range[2:], math.sqrt(args.d2), args.res)
    except FloatingPointError:
        raise ValueError("--d2 and --range put the margins beyond the float range")
    # Labels "\na," per a and "b,0," or "b,1," per b, formatted once; a tuple, so
    # that no list of every cell stays alive during the %.
    rows = np.array([f"\n{x:.17g}," for x in g.a_values.tolist()], dtype=object)
    cols = np.array([f"{y:.17g},{f}," for y in g.b_values.tolist() for f in "01"], object)
    cells = np.empty((*g.margin.shape, 3), dtype=object)
    cells[..., 0], cells[..., 2] = rows[:, None], g.margin
    cells[..., 1] = cols[2 * np.arange(len(g.b_values)) + g.inside]
    return csv_text(["a", "b", "inside", "margin"], "%s%s%.17g", tuple(cells.ravel().tolist()))


def _cmd_boundary(args) -> str:
    from quasih.domain import boundary_trace_ray, in_domain

    a, b = boundary_trace_ray(tuple(args.center), tuple(args.direction), args.d)
    return json_dumps({"a": a, "b": b, "d": args.d, "margin": in_domain(a, b, args.d).margin})


def _cmd_pmn(args) -> str:
    from quasih.domain import pmn_points

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
    return json_dumps(doc)


def _cmd_metric(args) -> str:
    import numpy as np

    from quasih.metric import boundary_degeneracy_profile, find_positive, metric_nullspace

    if args.profile is not None:
        if args.basis or args.positivity:
            raise ValueError("--profile excludes --basis and --positivity")
        lo, hi, n = args.profile
        profile = boundary_degeneracy_profile(np.linspace(lo, hi, n).tolist())
        return csv_text(["alpha", "min_eig"], "\n%.17g,%.17g", [x for row in profile for x in row])

    fam = metric_nullspace(_matrix(args))
    doc = {"dim": fam.dim, "residual": fam.residual}
    if args.basis:
        doc["basis"] = [matrix_to_json_dict(e) for e in fam.basis]
    if args.positivity:
        cert = find_positive(fam)
        doc["positivity"] = {
            "coefficients": cert.coefficients,
            "min_eigenvalue": cert.min_eigenvalue,
            "upper_bound": cert.upper_bound,
            "positive": cert.positive,
        }
    return json_dumps(doc)


def _cmd_perturb(args) -> str:
    from quasih.domain import in_domain
    from quasih.perturb import (
        SpikeAnsatz,
        band_series_E1,
        band_series_E3,
        critical_strength,
        spike_membership,
        spike_point,
    )

    if args.series is None and (args.alpha is not None or args.order is not None):
        raise ValueError("--alpha and --order need --series")
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
    return json_dumps(doc)


def _cmd_fig1(args) -> str:
    from quasih.domain import figure1_geometry

    geo = figure1_geometry(args.d2)
    points = [{"a": p.a, "b": p.b, "residuals": p.residuals} for p in geo["intersections"]]
    return json_dumps({"d2": args.d2, **geo, "intersections": points})


def _cmd_fig2(args) -> str:
    import numpy as np

    from quasih.domain import _margins
    from quasih.perturb import SpikeAnsatz, _spike_coords

    for flag, count in (("t-steps", args.t_steps), ("res-a", args.res_a)):
        if count < 1:
            raise ValueError(f"{flag} must be >= 1")
    if args.t_steps * args.res_a > MAX_SCAN_CELLS:
        grid = f"{args.t_steps}x{args.res_a}"
        raise ValueError(f"t-steps x res-a = {grid} exceeds {MAX_SCAN_CELLS} cells")
    _require_finite(**{"--coef-c": args.coef_c, "--t-max": args.t_max})
    if args.t_max < 0.0:
        raise ValueError("--t-max: spike parameter t must be non-negative")
    # One ansatz for the whole scan: it warns once if t_max is past the policy bound.
    SpikeAnsatz(t=args.t_max, coef_a=args.coef_c, coef_c=args.coef_c)
    corner = (args.corner_a, args.corner_c)
    try:
        with np.errstate(over="raise", invalid="raise"):
            t = np.linspace(args.t_max / args.t_steps, args.t_max, args.t_steps)[:, None]
            coef_a = np.linspace(args.coef_c - 1.0, args.coef_c + 1.5, args.res_a)
            a, c = np.broadcast_arrays(*_spike_coords(t, coef_a, args.coef_c, corner))
            cells = np.stack((a, c, _margins(a, 0.0, c, np.minimum)[3]), axis=-1)
    except FloatingPointError:
        raise ValueError("--coef-c and --t-max put the spike points beyond the float range")
    return csv_text(["a", "c", "inside"], "\n%.17g,%.17g,%d", tuple(cells.ravel().tolist()))


def _cmd_dim(args) -> str:
    return f"{dim_domain(args.n)}\n"


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

    p = command("spectrum", _cmd_spectrum, "energies of a selected model matrix")
    _model_flags(p)

    p = command("scan", _cmd_scan, "membership grid over the a-b plane")
    p.add_argument("--d2", type=float, required=True, help="fixed c^2 = d^2 value")
    p.add_argument(
        "--range", type=_parse_range, default=(-4.0, 4.0, -4.0, 4.0), metavar="A0:A1:B0:B1"
    )
    p.add_argument("--res", type=_parse_res, default=(81, 81), metavar="NxM")

    p = command("boundary", _cmd_boundary, "trace the domain boundary along a ray")
    p.add_argument("--center", type=float, nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--direction", type=float, nargs=2, required=True, metavar=("DX", "DY"))
    p.add_argument("--d", type=float, required=True)

    p = command("pmn", _cmd_pmn, "points of maximal non-Hermiticity at fixed d^2")
    p.add_argument("--d2", type=float, required=True)

    p = command("metric", _cmd_metric, "metric family, positivity, or alpha profile")
    _model_flags(p).add_argument(
        "--profile",
        type=_parse_profile,
        metavar="A0:A1:N",
        help="alpha sweep CSV of best min eigenvalues (instead of a model)",
    )
    p.add_argument("--basis", action="store_true", help="emit all basis matrices")
    p.add_argument("--positivity", action="store_true", help="emit a positivity certificate")

    p = command("perturb", _cmd_perturb, "band series, critical strength, spike ansatz")
    p.add_argument("--series", choices=["e1", "e3"])
    p.add_argument("--order", type=int, choices=[2, 4, 6])
    p.add_argument("--alpha", type=float)
    p.add_argument("--critical", action="store_true")
    p.add_argument("--spike", type=float, nargs=3, metavar=("COEF_A", "COEF_C", "T"))

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


def _format_warning(message, *_) -> str:
    return f"warning: {message}\n"


def _linalg_error() -> type[Exception]:
    """numpy's LinAlgError, a numerical failure, if numpy is loaded; before
    that none can have been raised, and RuntimeError stands in for it."""
    linalg = sys.modules.get("numpy.linalg")
    return RuntimeError if linalg is None else linalg.LinAlgError


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # A warning that reaches stderr is one line, like an error; a caller that
    # records warnings still gets the warning itself.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = parser.parse_args(_with_config(argv, parser))
        _emit(args, args.func(args))
        return 0
    except (RuntimeError, _linalg_error()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
