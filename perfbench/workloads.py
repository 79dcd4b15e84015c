"""Seeded inputs of the three workloads and the check of each output.

A run sends whole rounds of items, so that the share of failed items is
the same in every run whatever the seed and the run length.

- scan: a round is one `quasih scan` request at RES, with seeded d^2 and
  window.
- geometry: a round is SEEDED_PER_ROUND seeded items and one fixed
  thin-sliver item from THIN_ITEMS.  The thin items fail on every run
  because of a known fault: boundary_trace_ray marches in steps of 0.25
  and steps over an outside stretch shorter than that, reporting a later
  exit.  Seeded fans draw no ray whose first outside stretch is shorter
  than MIN_OUTSIDE_STRETCH, since how many such rays a seed draws varies;
  the fault class is carried by the fixed items alone.
- certify: a round is four `quasih metric --basis --positivity` requests:
  two band-model points on either side of the critical coupling and two
  --full points, one inside D and one outside, all away from the boundary.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

RES = (61, 61)

N_RAYS = 16
SEEDED_PER_ROUND = 7
#: Rays whose first outside stretch is shorter than this are not drawn.
MIN_OUTSIDE_STRETCH = 0.3
#: Seeded d^2 range, less a window around the tangency d^2 = 0.13617 where
#: two PMN points merge: within about 1e-7 of it pmn_points's sign-change
#: scan misses the pair, which only a rare seed would hit.
GEOMETRY_D2 = (0.01, 0.95)
PMN_TANGENCY_WINDOW = (0.13, 0.145)

#: Fixed thin-sliver items: (d, fan rotation in turns, coef_c, t).
THIN_ITEMS = (
    (0.005, 0.01, 0.25, 0.05),
    (0.02, 0.03, -0.5, 0.1),
    (0.035, 0.05, 0.0, 0.15),
    (0.05, 0.07, 0.75, 0.02),
)

#: Certify inputs keep |alpha - alpha_c| and |margin| at least this large.
CERTIFY_GAP = 0.02
CERTIFY_MARGIN = 0.05


def rounds(workload: str, seed: int):
    """Endless generator of rounds (lists of items) for a workload."""
    rng = np.random.default_rng(seed)
    make = {"scan": _scan_round, "geometry": _geometry_round, "certify": _certify_round}[workload]
    index = 0
    while True:
        yield make(rng, index)
        index += 1


def _scan_round(rng, index):
    d2 = float(rng.uniform(0.05, 3.0))
    a0, b0 = (float(x) for x in rng.uniform(-1.5, 1.5, 2))
    ha, hb = (float(x) for x in rng.uniform(2.0, 4.0, 2))
    return [{"d2": d2, "window": [a0 - ha, a0 + ha, b0 - hb, b0 + hb], "res": list(RES)}]


def _geometry_round(rng, index):
    items = []
    for _ in range(SEEDED_PER_ROUND):
        while True:
            d2 = float(rng.uniform(*GEOMETRY_D2))
            if not PMN_TANGENCY_WINDOW[0] <= d2 <= PMN_TANGENCY_WINDOW[1]:
                break
        dirs = []
        while len(dirs) < N_RAYS:
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            u = (math.cos(theta), math.sin(theta))
            exit_t, reentry = ref.ray_stretches(*u, d2)
            if reentry - exit_t >= MIN_OUTSIDE_STRETCH:
                dirs.append(u)
        spike = [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.01, 0.2))]
        items.append({"d2": d2, "dirs": dirs, "spike": spike})
    items.append(thin_item(index % len(THIN_ITEMS)))
    return items


def thin_item(k: int) -> dict:
    d, turn, coef_c, t = THIN_ITEMS[k]
    angles = [2.0 * math.pi * (turn + j / N_RAYS) for j in range(N_RAYS)]
    dirs = [(math.cos(a), math.sin(a)) for a in angles]
    return {"d2": d * d, "dirs": dirs, "spike": [coef_c, t], "thin": True}


def _certify_round(rng, index):
    items = []
    for side in (-1.0, 1.0):
        while True:
            alpha = float(rng.uniform(0.05, 0.75))
            if side * (alpha - ref.ALPHA_CRITICAL) >= CERTIFY_GAP:
                break
        items.append({"model": ["--alpha", repr(alpha)]})
    for side in (1.0, -1.0):
        while True:
            a, b = (float(x) for x in rng.uniform(-3.0, 3.0, 2))
            d = float(rng.uniform(0.05, 1.5))
            if side * ref.margin(a, b, d * d) >= CERTIFY_MARGIN:
                break
        items.append({"model": ["--full", repr(a), repr(b), repr(d), repr(d)]})
    return items


def certify_matrix(item: dict) -> np.ndarray:
    flag, *values = item["model"]
    values = [float(v) for v in values]
    return ref.alpha_matrix(*values) if flag == "--alpha" else ref.full_matrix(*values)


def check(workload: str, item: dict, result, out_path: str) -> list[tuple[str, str]]:
    """Problems with one item's output, each as (kind, message).

    kind is "overshoot" for the known boundary_trace_ray fault and
    "wrong" for anything else.
    """
    if workload == "scan":
        if result != 0:
            return [("wrong", f"scan exited {result}")]
        csv = Path(out_path).read_text()
        return [("wrong", p) for p in ref.check_scan(csv, item["d2"], item["window"], item["res"])]
    if workload == "certify":
        status, body = result
        if status != 0:
            return [("wrong", f"metric exited {status}")]
        doc = json.loads(body)
        return [("wrong", p) for p in ref.check_certificate(doc, certify_matrix(item))]
    pmn, exits, edges = result
    problems = [("wrong", p) for p in ref.check_pmn(pmn, item["d2"])]
    for point, u in zip(exits, item["dirs"]):
        found = ref.check_ray(point, u, item["d2"])
        if found:
            problems.append(found)
    problems += [("wrong", p) for p in ref.check_spike(edges, *item["spike"])]
    return problems
