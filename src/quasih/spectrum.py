"""Energy spectra of the model Hamiltonians and their reality class.

The general solver goes through ``numpy.linalg.eigvals`` (companion-style
QR on the matrix itself); the closed biquadratic formula

    E = +-sqrt(A +- sqrt(A^2 - B))

for the c^2 = d^2 model is kept as an independent cross-check, with
principal square roots continued to complex arguments.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from quasih.model import _require_finite
from quasih.secular import reduced_AB

#: Largest matrix dimension accepted by the numeric solver.
MAX_DIM = 64

#: Absolute bound on |Im E| and on the pairwise gaps for reality decisions:
#: far above the rounding of the eigenvalues of an O(1) matrix (about 1e-15).
REALITY_TOL = 1e-9


def _finite_square(h, max_dim: int) -> np.ndarray:
    """h as a float array, checked to be a square matrix of finite entries
    and dimension from 1 to max_dim."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or not h.size:
        raise ValueError("matrix must be square, of dimension at least 1")
    if h.shape[0] > max_dim:
        raise ValueError(f"dimension {h.shape[0]} exceeds limit {max_dim}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    return h


class Reality(enum.Enum):
    """Reality classification of a spectrum."""

    ALL_REAL = "AllReal"
    REAL_DEGENERATE = "RealDegenerate"
    COMPLEX_PAIRS = "ComplexPairs"


@dataclass(frozen=True)
class Spectrum:
    """Energies sorted by (real part, imaginary part), with classification."""

    energies: tuple[complex, ...]
    classification: Reality
    max_imag: float


def classify_reality(energies) -> Reality:
    """Classify a multiset of energies.

    All-real requires every |Im E| < REALITY_TOL and every pairwise gap
    > REALITY_TOL; real spectra with a gap at or below it are degenerate;
    anything with a larger imaginary part is a complex-pair spectrum.
    """
    zs = [complex(z) for z in energies]
    max_imag = max(abs(z.imag) for z in zs)
    if max_imag >= REALITY_TOL:
        return Reality.COMPLEX_PAIRS
    min_gap = min((abs(u - v) for u, v in combinations(zs, 2)), default=math.inf)
    if min_gap <= REALITY_TOL:
        return Reality.REAL_DEGENERATE
    return Reality.ALL_REAL


def spectrum_from_roots(roots) -> Spectrum:
    """Package raw roots into a sorted, classified :class:`Spectrum`."""
    energies = tuple(sorted(map(complex, roots), key=lambda z: (z.real, z.imag)))
    return Spectrum(energies, classify_reality(energies), max(abs(z.imag) for z in energies))


def _biquadratic(base: float, scale: float, root: complex) -> Spectrum:
    """The spectrum +-sqrt(base +- scale root) with principal square roots,
    the sum formed as base + scale * sign * root: another order of the
    products can change the sign of a zero."""
    roots = [cmath.sqrt(base + scale * sign * root) for sign in (1.0, -1.0)]
    return spectrum_from_roots([e for r in roots for e in (r, -r)])


def closed_form_energies(a: float, b: float, d: float) -> Spectrum:
    """Closed-form energies of the c^2 = d^2 model.

    E = +-sqrt(A +- sqrt(A^2 - B)) with principal complex square roots;
    complex results are valid outputs, classified accordingly.
    """
    A, B = reduced_AB(a, b, d)
    return _biquadratic(A, 1.0, cmath.sqrt(complex(A * A - B)))


def band_closed_energies(alpha: float) -> Spectrum:
    """Closed-form energies of the one-parameter band model.

    E_{+-1} = +-sqrt(5 - 6 alpha^2 - 2 sqrt(5 alpha^4 - 12 alpha^2 + 4))
    and E_{+-3} with the + branch, continued to complex values past the
    critical strength alpha^2 = 2/5.
    """
    _require_finite(alpha=alpha)
    disc = cmath.sqrt(complex(5.0 * alpha**4 - 12.0 * alpha**2 + 4.0))
    return _biquadratic(-6.0 * alpha**2 + 5.0, 2.0, disc)


def quartic_energies(e2: float, e1: float, e0: float) -> Spectrum:
    """Roots of the secular quartic E^4 + e2 E^2 + e1 E + e0.

    Solved through the companion-matrix eigenvalues (robust, no radical
    formulas).  Working from the secular coefficients rather than the
    Hamiltonian matrix avoids the fourth-root amplification of entry
    rounding near quadruple degeneracies.
    """
    _require_finite(e2=e2, e1=e1, e0=e0)
    return spectrum_from_roots(np.roots([1.0, 0.0, e2, e1, e0]))


def numeric_energies(h: np.ndarray) -> Spectrum:
    """Eigenvalues of a real square matrix as a classified spectrum;
    RuntimeError if one overflows, as at entries near 1e308."""
    roots = np.linalg.eigvals(_finite_square(h, MAX_DIM))
    if not np.all(np.isfinite(roots)):
        raise RuntimeError("eigenvalues overflow the float range")
    return spectrum_from_roots(roots)
