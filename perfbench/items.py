"""The requests each workload sends to quasih.

This module imports only the standard library, so that a set-up launch
(setup_probe.py) times quasih's import and not the benchmark's.  quasih's
functions are looked up in sys.modules at call time, so the tracer's
wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import sys
from pathlib import Path

#: quasih entry points each workload imports.
ENTRY_MODULES = {
    "scan": ("quasih.cli",),
    "geometry": ("quasih.domain", "quasih.perturb"),
    "certify": ("quasih.cli",),
}


def import_entry(workload: str) -> None:
    for name in ENTRY_MODULES[workload]:
        importlib.import_module(name)


def scan_argv(item: dict, out_path: str) -> list[str]:
    a_min, a_max, b_min, b_max = item["window"]
    na, nb = item["res"]
    return [
        "scan",
        "--d2",
        repr(item["d2"]),
        f"--range={a_min!r}:{a_max!r}:{b_min!r}:{b_max!r}",
        "--res",
        f"{na}x{nb}",
        "--out",
        out_path,
    ]


def certify_argv(item: dict) -> list[str]:
    return ["metric", *item["model"], "--basis", "--positivity"]


def run_item(workload: str, item: dict, out_path: str):
    """Send one request and return its raw result.

    scan: the exit status (the CSV is in ``out_path``); certify: the exit
    status and the JSON text; geometry: the PMN points as (a, b) pairs, the
    ray exits and the spike edges.
    """
    if workload == "scan":
        return sys.modules["quasih.cli"].main(scan_argv(item, out_path))
    if workload == "certify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = sys.modules["quasih.cli"].main(certify_argv(item))
        return status, buf.getvalue()
    domain = sys.modules["quasih.domain"]
    perturb = sys.modules["quasih.perturb"]
    d2 = item["d2"]
    d = math.sqrt(d2)
    pmn = [(p.a, p.b) for p in domain.pmn_points(d2)]
    exits = [domain.boundary_trace_ray((0.0, 0.0), tuple(u), d) for u in item["dirs"]]
    edges = perturb.spike_band_edges(*item["spike"])
    return pmn, exits, edges


def output_text(workload: str, result, out_path: str) -> str:
    """The result as text: the CSV and its sidecar, the JSON, or a repr."""
    if workload == "scan":
        path = Path(out_path)
        meta = Path(out_path + ".meta.json")
        return f"{result}\n{path.read_text()}{meta.read_text()}"
    if workload == "certify":
        return f"{result[0]}\n{result[1]}"
    return repr(result)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
