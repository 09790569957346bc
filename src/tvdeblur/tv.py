"""Lagged-diffusivity diffusion operator of the smoothed-TV penalty.

The smoothed total-variation penalty contributes the elliptic term
``-div(a grad u)`` with coefficient ``a = 1 / sqrt(|grad u|^2 + beta^2)``
frozen at the previous iterate.  This module discretizes that operator on a
unit-spacing grid with midpoint coefficients:

* 1D: ``(L w)[i] = a[i+1/2] (w[i] - w[i+1]) + a[i-1/2] (w[i] - w[i-1])``,
* 2D: the 5-point analog with per-edge coefficients; the gradient magnitude
  at an edge midpoint combines the difference across the edge with a
  four-point average of the one-sided differences in the transverse
  direction.

Ghost values for both the coefficients and the operator stencil come from
the operator's boundary rule: reflection (zero Neumann, giving a symmetric
positive-semidefinite matrix) or anti-reflection (nonsymmetric).  Both
variants annihilate constants.

The coefficients are kept once per axis; the apply, the bands and the
diagonal each run one rule per axis, so 1D and 2D share every rule.
The bands are keyed by offset tuples in both dimensions, the form the
transform-algebra projections take.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .krylov import ConfigurationError, check_settings


class DiffusionBc(Enum):
    ZERO_NEUMANN = "zero_neumann"
    ANTI_REFLECTIVE = "anti_reflective"


_PAD = {
    DiffusionBc.ZERO_NEUMANN: {"mode": "symmetric"},
    DiffusionBc.ANTI_REFLECTIVE: {"mode": "reflect", "reflect_type": "odd"},
}


#: smallest beta whose square is a normal float: below it ``beta * beta``
#: loses its bits and reaches 0 near 1e-162, and the coefficients of flat
#: edges, ``1 / sqrt(0 + beta^2)``, overflow or divide by zero
MIN_BETA = math.sqrt(float(np.finfo(float).tiny))


def check_beta(beta: float) -> None:
    """Reject a ``beta`` that cannot smooth the TV penalty, naming it."""
    check_settings(("beta", beta, "real > 0"))
    if beta < MIN_BETA:
        raise ConfigurationError(
            f"beta must be at least sqrt(finfo(float).tiny) = {MIN_BETA!r}, "
            f"so that beta**2 does not underflow, got {beta!r}")


def _ghost_diff(w: np.ndarray, bc: DiffusionBc, d: np.ndarray) -> np.ndarray:
    """``np.diff(np.pad(w, 1, **_PAD[bc]), axis=0)`` on w's own lines,
    unpadded, written to ``d``, which has one line more than ``w`` along
    axis 0.  The 1D coefficients and the apply take their differences here.

    The two ghost differences repeat ``np.pad``'s arithmetic, so the bytes
    are the same: a symmetric ghost equals the border sample, giving 0.0;
    an odd reflection's ghost is ``2*w[0] - w[1]``; a length-1 axis is
    extended by its edge value, giving 0.0 under both rules.
    """
    np.subtract(w[1:], w[:-1], out=d[1:-1])
    if bc is DiffusionBc.ZERO_NEUMANN or len(w) == 1:
        d[0] = 0.0
        d[-1] = 0.0
    else:
        first, last = w[0], w[-1]
        d[0] = first - (2 * first - w[1])
        d[-1] = (2 * last - w[-2]) - last
    return d


def diffusion_coefficients(u, beta: float, bc: DiffusionBc = DiffusionBc.ZERO_NEUMANN):
    """Midpoint coefficients ``1 / sqrt(|grad u|^2 + beta^2)`` on cell edges.

    Returns one array per axis: ``a[k]`` holds the edges across axis k, with
    n+1 entries along axis k (boundary edges included) and n along the
    other.  Boundary edges use ghost values extended by ``bc``, so all
    coefficients lie in ``(0, 1/beta]``.
    """
    check_beta(beta)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        d = _ghost_diff(u, bc, np.empty(len(u) + 1))
        return (1.0 / np.sqrt(d * d + beta * beta),)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigurationError(f"expected a square grid, got shape {u.shape}")
    # the corner ghosts of the transverse averages need the padded grid
    ext = np.pad(u, 1, **_PAD[bc])
    dh = np.diff(ext, axis=1)  # (n+2) x (n+1)
    dv = np.diff(ext, axis=0)  # (n+1) x (n+2)
    # transverse gradient at an edge midpoint: four-point average of the
    # one-sided differences at the edge endpoints
    trans_h = 0.25 * (dv[:-1, :-1] + dv[1:, :-1] + dv[:-1, 1:] + dv[1:, 1:])
    horizontal = 1.0 / np.sqrt(dh[1:-1, :] ** 2 + trans_h ** 2 + beta * beta)
    trans_v = 0.25 * (dh[:-1, :-1] + dh[:-1, 1:] + dh[1:, :-1] + dh[1:, 1:])
    vertical = 1.0 / np.sqrt(dv[:, 1:-1] ** 2 + trans_v ** 2 + beta * beta)
    return vertical, horizontal


def _along(axis: int, index) -> tuple:
    """Index that applies ``index`` to ``axis`` and keeps the other axes."""
    return (slice(None),) * axis + (index,)


class DiffusionOperator:
    """Banded lagged-diffusivity operator built from an iterate.

    Immutable after construction; rebuild per fixed-point step.  ``a[k]``
    holds the edge coefficients across axis k.  ``bands`` is built on first
    use and cached read-only, as a fixed-point step reads it several times
    (scaling, projection, diagonal wrap).  Sums over the axes run from the
    last axis to the first: in 2D the inner (axis 1) terms come first.
    """

    def __init__(self, u, beta: float, bc: DiffusionBc = DiffusionBc.ZERO_NEUMANN) -> None:
        u = np.asarray(u, dtype=float)
        self.bc = bc
        self.ndim = u.ndim
        self.n = u.shape[0]
        self.a = diffusion_coefficients(u, beta, bc)
        self._axes = range(self.ndim - 1, -1, -1)
        self._bands: dict | None = None

    def apply(self, w) -> np.ndarray:
        """``L w``: fluxes ``a * (difference across each edge)``, then their
        negated divergence.

        Boundary edges take their difference from the ghost value that
        ``np.pad`` would give under ``bc``; it is computed in place rather
        than by padding ``w``, with the same bytes.
        """
        w = np.asarray(w, dtype=float)
        expected = (self.n,) * self.ndim
        if w.shape != expected:
            raise ConfigurationError(f"expected shape {expected}, got {w.shape}")
        if self.ndim == 1:  # the loop's one pass, on the plain indices
            flux = _ghost_diff(w, self.bc, np.empty(self.n + 1))
            flux *= self.a[0]
            out = np.subtract(flux[1:], flux[:-1])
            return np.negative(out, out=out)
        out = None
        for axis in self._axes:
            flux = np.empty(self.a[axis].shape)
            _ghost_diff(w.swapaxes(0, axis), self.bc, flux.swapaxes(0, axis))
            flux *= self.a[axis]
            # np.diff(flux, axis=axis), without its per-call setup
            div = np.subtract(flux[_along(axis, slice(1, None))],
                              flux[_along(axis, slice(None, -1))])
            if out is None:
                out = div
            else:
                out += div
        return np.negative(out, out=out)

    def diagonal(self) -> np.ndarray:
        """Main diagonal, accounting for ghost-value substitution at borders."""
        return self.bands()[(0,) * self.ndim]

    def bands(self) -> dict[tuple[int, ...], np.ndarray]:
        """Stencil as bands: offset tuple -> coefficients on the grid.

        An offset has one entry per axis: ``(d,)`` in 1D, ``(block offset,
        inner offset)`` in 2D, where the block index is the grid row (axis 0).
        Along each axis a value is indexed by the smaller of the two cells'
        indices, as ``np.diagonal`` gives them in 1D: ``bands[(0, 1)][k, i]``
        couples cell (k, i) to (k, i + 1), ``bands[(0, -1)][k, i]`` couples
        (k, i + 1) to (k, i), and likewise ``(1, 0)`` and ``(-1, 0)``.
        """
        if self._bands is not None:
            return dict(self._bands)
        zero = (0,) * self.ndim
        bands = {zero: None}  # the diagonal first: projections sum in key order
        # a length-1 axis has zero ghost differences under both rules, as in
        # _ghost_diff, so it takes the zero-Neumann border
        odd = self.bc is DiffusionBc.ANTI_REFLECTIVE and self.n > 1
        for axis in self._axes:
            a = self.a[axis]
            lo = a[_along(axis, slice(None, -1))]
            hi = a[_along(axis, slice(1, None))]
            diag = bands[zero]
            bands[zero] = lo + hi if diag is None else diag + lo + hi
            upper = -a[_along(axis, slice(1, -1))]
            lower = -a[_along(axis, slice(1, -1))]
            if odd:  # the ghost 2 w[0] - w[1] couples the border to w[1]
                upper[_along(axis, 0)] += a[_along(axis, 0)]
                lower[_along(axis, -1)] += a[_along(axis, -1)]
            bands[zero[:axis] + (1,) + zero[axis + 1:]] = upper
            bands[zero[:axis] + (-1,) + zero[axis + 1:]] = lower
        # the border corrections follow every sum: a ghost equal to the
        # border sample cancels its coefficient, an odd reflection twice
        diag, ghost = bands[zero], 2.0 if odd else 1.0
        for axis in self._axes:
            for border in (_along(axis, 0), _along(axis, -1)):
                diag[border] -= ghost * self.a[axis][border]
        return self._cache(bands)

    # the name bench/spans.py reads from the class dict to time band builds
    block_banded = bands

    def _cache(self, bands: dict) -> dict:
        """Freeze ``bands``' arrays and keep them for later calls."""
        for values in bands.values():
            values.setflags(write=False)
        self._bands = bands
        return dict(bands)
