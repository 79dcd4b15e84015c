"""Spectra, quasi-Hermiticity domain and metric operators of a PT-symmetric
four-level matrix model with couplings (a, b, c, d).

The library is organized around small pure functions; the domain, series
and spike questions are scalar algebra in plain floats, and numpy is
imported only where matrices and grids are built:

- :mod:`quasih.model` builds the Hamiltonian matrices (full 4x4, reordered
  band form, one-parameter band special case, two-state toy model).
- :mod:`quasih.secular` evaluates the quartic secular polynomial and its
  invariants, including the hyperbola factorization of the constant term.
- :mod:`quasih.spectrum` produces the four energies, by closed formulas or
  numerically, and classifies their reality.
- :mod:`quasih.exact` holds the exact arithmetic on floats: dyadic
  integers, polynomial products, real-root isolation and Brent's method.
- :mod:`quasih.domain` decides membership in the quasi-Hermiticity domain,
  locates the points of maximal non-Hermiticity and traces the boundary.
- :mod:`quasih.metric` constructs the family of candidate metrics and
  certifies positive definiteness.
- :mod:`quasih.perturb` holds the small-coupling series and the spike
  expansion of the domain boundary near its vertex.
- :mod:`quasih.cli` is the command-line front end.

Each library module above, and each name below, is loaded on first access
(PEP 562): ``import quasih`` alone imports none of them.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "model": "ParamPoint build_two_state build_full build_reordered build_band build_alpha",
    "secular": "SecularInvariants secular_coeffs constant_term reduced_AB hyperbola_factors",
    "spectrum": (
        "Reality Spectrum closed_form_energies band_closed_energies numeric_energies "
        "quartic_energies classify_reality"
    ),
    "domain": (
        "DomainVerdict PMNPoint GridScan in_domain pmn_points "
        "boundary_trace_ray scan_grid figure1_geometry"
    ),
    "metric": (
        "MetricFamily PositivityCertificate metric_nullspace closed_form_band_metric "
        "find_positive boundary_degeneracy_profile"
    ),
    "perturb": (
        "SpikeAnsatz band_series_E1 band_series_E3 series_scaling_check "
        "critical_strength spike_point spike_membership spike_band_edges"
    ),
}

#: Each public name and the module that defines it.
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"quasih.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"quasih.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
