"""In-memory span tracer that wraps quasih's public functions from outside.

A layer is named module.function after the module that defines the
function.  Installing the tracer replaces the function in every loaded
quasih module that holds it, so calls through a name imported elsewhere
(``from quasih.domain import in_domain`` in perturb and cli) are seen
too; scipy's brentq and minimize are wrapped where quasih holds them.
Nothing in the program changes, and uninstalling puts every original back.

Each span records its name, start, end, parent and item.  Spans are kept
in memory, up to MAX_SPANS, and written as JSON lines when the run ends;
the per-layer sums are taken over every span, kept or not.  A layer's
self time is its duration less that of its direct child spans.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

#: Layer name -> (defining module, attribute).
LAYERS = {
    "cli.main": ("quasih.cli", "main"),
    "serialize.csv_rows": ("quasih.serialize", "csv_rows"),
    "serialize.json_dumps": ("quasih.serialize", "json_dumps"),
    "domain.in_domain": ("quasih.domain", "in_domain"),
    "secular.reduced_AB": ("quasih.secular", "reduced_AB"),
    "secular.hyperbola_factors": ("quasih.secular", "hyperbola_factors"),
    "domain.pmn_points": ("quasih.domain", "pmn_points"),
    "domain.brentq": ("quasih.domain", "brentq"),
    "domain.boundary_trace_ray": ("quasih.domain", "boundary_trace_ray"),
    "perturb.spike_band_edges": ("quasih.perturb", "spike_band_edges"),
    "metric.metric_nullspace": ("quasih.metric", "metric_nullspace"),
    "metric.find_positive": ("quasih.metric", "find_positive"),
    "metric.minimize": ("quasih.metric", "minimize"),
    "spectrum.numeric_energies": ("quasih.spectrum", "numeric_energies"),
}

#: Calls of an inner layer counted inside the spans of an outer one.
NESTED = (
    ("domain.pmn_points", "secular.hyperbola_factors"),
    ("domain.pmn_points", "domain.brentq"),
    ("domain.boundary_trace_ray", "domain.in_domain"),
    ("perturb.spike_band_edges", "domain.in_domain"),
)

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        #: One dict per traced item: "<layer>.ms", ".self_ms", ".calls",
        #: "<outer>><inner>" nested call counts and "metric.minimize.nfev".
        self.item_sums: list[dict] = []
        self._calls: dict[str, int] = defaultdict(int)
        self._ms: dict[str, float] = defaultdict(float)
        self._self_ms: dict[str, float] = defaultdict(float)
        self._nested: dict[str, int] = defaultdict(int)
        self._nfev = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._item = None
        self._installed: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, parent, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, name, parent, child_s, start = frame
        dur = end - start
        self._ms[name] += dur
        self._self_ms[name] += dur - child_s
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent, self._item))
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn):
        counted = [inner for outer, inner in NESTED if outer == name]
        calls = self._calls
        nested = self._nested
        is_minimize = name == "metric.minimize"

        def traced(*args, **kwargs):
            before = [calls[inner] for inner in counted]
            calls[name] += 1
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
                for inner, b in zip(counted, before):
                    nested[f"{name}>{inner}"] += calls[inner] - b
            if is_minimize:
                self._nfev += int(result.nfev)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_item(self, item_id: int, name: str) -> None:
        self._item = item_id
        self._item_frame = self._open(name)

    def end_item(self) -> None:
        """Close the item span and keep the item's raw per-layer sums."""
        self._close(self._item_frame)
        self._item = None
        sums = {f"{name}.ms": s * 1e3 for name, s in self._ms.items()}
        sums.update({f"{name}.self_ms": s * 1e3 for name, s in self._self_ms.items()})
        sums.update({f"{name}.calls": n for name, n in self._calls.items()})
        sums.update(self._nested)
        sums["metric.minimize.nfev"] = self._nfev
        self.item_sums.append(sums)
        self._ms.clear()
        self._self_ms.clear()
        self._calls.clear()
        self._nested.clear()
        self._nfev = 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "quasih" or n.startswith("quasih.")
        ]
        for name, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in self._installed:
            setattr(module, key, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------------

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w") as f:
            for sid, name, start, end, parent, item in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "item": item,
                        }
                    )
                    + "\n"
                )

    def per_layer(self, factors: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit); 0 where a layer is unused.

        ``factors`` holds each traced item's calibration factor, which
        scales its times; counts are not scaled.
        """
        s = defaultdict(float)
        for sums, factor in zip(self.item_sums, factors):
            for key, value in sums.items():
                s[key] += value * factor if key.endswith("ms") else value
        n = max(len(self.item_sums), 1)

        def per(key, base_key):
            return s[key] / s[base_key] if s[base_key] else 0.0

        pmn_calls = "domain.pmn_points.calls"
        return {
            "cli.main.self_ms": (s["cli.main.self_ms"] / n, "ms/item"),
            "serialize.csv_rows.ms": (s["serialize.csv_rows.ms"] / n, "ms/item"),
            "serialize.json_dumps.ms": (s["serialize.json_dumps.ms"] / n, "ms/item"),
            "domain.in_domain.calls": (s["domain.in_domain.calls"] / n, "count/item"),
            "domain.in_domain.self_ms": (s["domain.in_domain.self_ms"] / n, "ms/item"),
            "secular.reduced_AB.calls": (s["secular.reduced_AB.calls"] / n, "count/item"),
            "domain.pmn_points.ms": (per("domain.pmn_points.ms", pmn_calls), "ms/call"),
            "secular.hyperbola_factors.calls": (
                per("domain.pmn_points>secular.hyperbola_factors", pmn_calls),
                "count/pmn_call",
            ),
            "domain.brentq.calls": (
                per("domain.pmn_points>domain.brentq", pmn_calls),
                "count/pmn_call",
            ),
            "domain.boundary_trace_ray.ms": (
                per("domain.boundary_trace_ray.ms", "domain.boundary_trace_ray.calls"),
                "ms/ray",
            ),
            "domain.boundary_trace_ray.margin_evals": (
                per(
                    "domain.boundary_trace_ray>domain.in_domain",
                    "domain.boundary_trace_ray.calls",
                ),
                "count/ray",
            ),
            "perturb.spike_band_edges.ms": (
                per("perturb.spike_band_edges.ms", "perturb.spike_band_edges.calls"),
                "ms/call",
            ),
            "perturb.spike_band_edges.margin_evals": (
                per("perturb.spike_band_edges>domain.in_domain", "perturb.spike_band_edges.calls"),
                "count/call",
            ),
            "metric.metric_nullspace.ms": (s["metric.metric_nullspace.ms"] / n, "ms/item"),
            "metric.find_positive.ms": (s["metric.find_positive.ms"] / n, "ms/item"),
            "metric.minimize.nfev": (s["metric.minimize.nfev"] / n, "count/item"),
            "metric.minimize.ms": (s["metric.minimize.ms"] / n, "ms/item"),
            "spectrum.numeric_energies.ms": (s["spectrum.numeric_energies.ms"] / n, "ms/item"),
        }
