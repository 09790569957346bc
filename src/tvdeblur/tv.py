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

The coefficients are kept once per axis, and the apply, the bands and the
diagonal are each one loop over the axes, so 1D and 2D share every rule.
The bands are keyed by offset tuples in both dimensions, the form the
transform-algebra projections take.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


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


def beta_problem(beta: float) -> str | None:
    """Why ``beta`` cannot smooth the TV penalty, or None."""
    if not (math.isfinite(beta) and beta > 0):
        return f"beta must be finite and positive, got {beta!r}"
    if beta < MIN_BETA:
        return (f"beta must be at least sqrt(finfo(float).tiny) = "
                f"{MIN_BETA!r}, so that beta**2 does not underflow, "
                f"got {beta!r}")
    return None


def _extend(u: np.ndarray, bc: DiffusionBc) -> np.ndarray:
    return np.pad(u, 1, **_PAD[bc])


def _ghost_diff(w: np.ndarray, bc: DiffusionBc, axis: int) -> np.ndarray:
    """``np.diff(_extend(w, bc), axis=axis)`` on w's own lines, unpadded.

    The two ghost differences repeat ``np.pad``'s arithmetic, so the bytes
    are the same: a symmetric ghost equals the border sample, giving 0.0;
    an odd reflection's ghost is ``2*w[0] - w[1]``; a length-1 axis is
    extended by its edge value, giving 0.0 under both rules.
    """
    lead = (slice(None),) * axis
    n = w.shape[axis]
    d = np.empty(w.shape[:axis] + (n + 1,) + w.shape[axis + 1:])
    np.subtract(w[lead + (slice(1, None),)], w[lead + (slice(None, -1),)],
                out=d[lead + (slice(1, -1),)])
    if bc is DiffusionBc.ZERO_NEUMANN or n == 1:
        d[lead + (0,)] = 0.0
        d[lead + (-1,)] = 0.0
    else:
        first, last = w[lead + (0,)], w[lead + (-1,)]
        d[lead + (0,)] = first - (2 * first - w[lead + (1,)])
        d[lead + (-1,)] = (2 * last - w[lead + (-2,)]) - last
    return d


def diffusion_coefficients(u, beta: float, bc: DiffusionBc = DiffusionBc.ZERO_NEUMANN):
    """Midpoint coefficients ``1 / sqrt(|grad u|^2 + beta^2)`` on cell edges.

    Returns one array per axis: ``a[k]`` holds the edges across axis k, with
    n+1 entries along axis k (boundary edges included) and n along the
    other.  Boundary edges use ghost values extended by ``bc``, so all
    coefficients lie in ``(0, 1/beta]``.
    """
    problem = beta_problem(beta)
    if problem:
        raise ValueError(problem)
    u = np.asarray(u, dtype=float)
    ext = _extend(u, bc)
    if u.ndim == 1:
        d = np.diff(ext)
        return (1.0 / np.sqrt(d * d + beta * beta),)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square grid, got shape {u.shape}")
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
            raise ValueError(f"expected shape {expected}, got {w.shape}")
        out = None
        for axis in self._axes:
            flux = _ghost_diff(w, self.bc, axis)
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
