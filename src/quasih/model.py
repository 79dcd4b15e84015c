"""Hamiltonian matrix constructors for the four-level PT-symmetric model.

All constructors are pure and return fresh float64 numpy arrays; nothing is
cached or mutated, so the results are safe to share between threads.  The
module loads without numpy, which the constructors import when called: the
scalar layers use only the validator and :class:`ParamPoint`.

The energy convention is the symmetrized ("shifted") unperturbed spectrum
(-3, -1, 1, 3) of the harmonic levels (1, 3, 5, 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class ParamPoint:
    """The four real couplings (a, b, c, d) of the 4x4 model."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _require_finite(a=self.a, b=self.b, c=self.c, d=self.d)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def _array(rows) -> np.ndarray:
    import numpy as np

    return np.array(rows)


def build_two_state(b: float) -> np.ndarray:
    """Two-level model [[-1, b], [-b, 1]].

    Its eigenvalues are +-sqrt(1 - b^2): real for |b| <= 1, complex
    conjugate otherwise, with a Jordan block at |b| = 1.
    """
    _require_finite(b=b)
    return _array([[-1.0, b], [-b, 1.0]])


def build_full(p: ParamPoint) -> np.ndarray:
    """Full 4x4 model in the parity-partitioned basis.

    Diagonal (-3, 1, -1, 3); the upper-right 2x2 block is [[c, b], [a, d]]
    and the lower-left block is its negative transpose.
    """
    a, b, c, d = p.as_tuple()
    return _array(
        [
            [-3.0, 0.0, c, b],
            [0.0, 1.0, a, d],
            [-c, -a, -1.0, 0.0],
            [-b, -d, 0.0, 3.0],
        ]
    )


def build_reordered(p: ParamPoint) -> np.ndarray:
    """Isospectral reordering of :func:`build_full`.

    Swapping the second and third basis vectors turns the partitioned
    matrix into a tridiagonal-plus-corner form with diagonal
    (-3, -1, 1, 3); the spectrum is unchanged.
    """
    order = [0, 2, 1, 3]
    return build_full(p)[order][:, order]


def build_band(a: float, c: float) -> np.ndarray:
    """Two-parameter tridiagonal band model (b = 0, d = c).

    Equal to ``build_reordered(ParamPoint(a, 0, c, c))`` entry by entry.
    """
    _require_finite(a=a, c=c)
    return _array(
        [
            [-3.0, c, 0.0, 0.0],
            [-c, -1.0, -a, 0.0],
            [0.0, a, 1.0, c],
            [0.0, 0.0, -c, 3.0],
        ]
    )


def build_alpha(alpha: float) -> np.ndarray:
    """One-parameter band model with super/sub-diagonal +-2*alpha.

    Isospectral to ``build_band(2*alpha, 2*alpha)`` and entrywise equal to
    ``build_band(-2*alpha, 2*alpha)`` (the middle coupling enters the
    spectrum only through its square).
    """
    _require_finite(alpha=alpha)
    t = 2.0 * alpha
    return _array(
        [
            [-3.0, t, 0.0, 0.0],
            [-t, -1.0, t, 0.0],
            [0.0, -t, 1.0, t],
            [0.0, 0.0, -t, 3.0],
        ]
    )
