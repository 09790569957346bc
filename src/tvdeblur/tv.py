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
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class DiffusionBc(Enum):
    ZERO_NEUMANN = "zero_neumann"
    ANTI_REFLECTIVE = "anti_reflective"


_PAD = {
    DiffusionBc.ZERO_NEUMANN: {"mode": "symmetric"},
    DiffusionBc.ANTI_REFLECTIVE: {"mode": "reflect", "reflect_type": "odd"},
}


def _extend(u: np.ndarray, bc: DiffusionBc) -> np.ndarray:
    return np.pad(u, 1, **_PAD[bc])


def _ghost_diff(w: np.ndarray, bc: DiffusionBc, axis: int = 0) -> np.ndarray:
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

    1D returns one array of length n+1 (boundary edges included); 2D returns
    ``(horizontal, vertical)`` arrays of shapes n x (n+1) and (n+1) x n.
    Boundary edges use ghost values extended by ``bc``, so all coefficients
    lie in ``(0, 1/beta]``.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    u = np.asarray(u, dtype=float)
    ext = _extend(u, bc)
    if u.ndim == 1:
        d = np.diff(ext)
        return 1.0 / np.sqrt(d * d + beta * beta)
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
    return horizontal, vertical


class DiffusionOperator:
    """Banded lagged-diffusivity operator built from an iterate.

    Immutable after construction; rebuild per fixed-point step.  ``bands``
    (1D) and ``block_banded`` (2D) expose the matrix structure consumed by
    the transform-algebra projections: plain dicts mapping offsets to
    coefficient arrays.  The arrays are built on first use and cached
    read-only, as a fixed-point step reads them several times (scaling,
    projection, diagonal wrap).
    """

    def __init__(self, u, beta: float, bc: DiffusionBc = DiffusionBc.ZERO_NEUMANN) -> None:
        u = np.asarray(u, dtype=float)
        self.bc = bc
        self.ndim = u.ndim
        self.n = u.shape[0]
        if u.ndim == 1:
            self.a = diffusion_coefficients(u, beta, bc)
        else:
            self.a_h, self.a_v = diffusion_coefficients(u, beta, bc)
        self._bands: dict | None = None

    def apply(self, w) -> np.ndarray:
        """``L w``: fluxes ``a * (difference across each edge)``, then their
        negated divergence.

        Boundary edges take their difference from the ghost value that
        ``np.pad`` would give under ``bc``; it is computed in place rather
        than by padding ``w``, with the same bytes.
        """
        w = np.asarray(w, dtype=float)
        expected = (self.n,) if self.ndim == 1 else (self.n, self.n)
        if w.shape != expected:
            raise ValueError(f"expected shape {expected}, got {w.shape}")
        if self.ndim == 1:
            flux = _ghost_diff(w, self.bc)
            flux *= self.a
            return -np.diff(flux)
        flux_h = _ghost_diff(w, self.bc, axis=1)
        flux_h *= self.a_h
        flux_v = _ghost_diff(w, self.bc, axis=0)
        flux_v *= self.a_v
        out = np.diff(flux_h, axis=1)
        out += np.diff(flux_v, axis=0)
        return np.negative(out, out=out)

    def diagonal(self) -> np.ndarray:
        """Main diagonal, accounting for ghost-value substitution at borders."""
        if self.ndim == 1:
            return self.bands()[0]
        return self.block_banded()[(0, 0)]

    def bands(self) -> dict[int, np.ndarray]:
        """Tridiagonal representation: offset -> band values.

        ``bands[d][i]`` is entry (i, i + d) for ``d >= 0`` and (i - d, i)
        for ``d < 0``: values are indexed by the smaller of row and column,
        as ``np.diagonal`` gives them.
        """
        if self.ndim != 1:
            raise ValueError("bands() is the 1D representation")
        if self._bands is not None:
            return dict(self._bands)
        a = self.a
        diag = a[:-1] + a[1:]
        upper = -a[1:-1].copy()
        lower = -a[1:-1].copy()
        # a length-1 axis has zero ghost differences under both rules, as
        # in _ghost_diff, so it takes the zero-Neumann border
        if self.bc is DiffusionBc.ZERO_NEUMANN or self.n == 1:
            diag[0] -= a[0]
            diag[-1] -= a[-1]
        else:
            diag[0] -= 2.0 * a[0]
            diag[-1] -= 2.0 * a[-1]
            upper[0] += a[0]
            lower[-1] += a[-1]
        return self._cache({0: diag, 1: upper, -1: lower})

    def block_banded(self) -> dict[tuple[int, int], np.ndarray]:
        """5-point stencil as block bands: (block offset, inner offset) -> grid.

        Block index is the grid row (axis 0), inner index the grid column.
        Along each axis a value is indexed by the smaller of the two cells'
        indices: ``blocks[(0, 1)][k, i]`` couples cell (k, i) to (k, i + 1),
        ``blocks[(0, -1)][k, i]`` couples (k, i + 1) to (k, i), and likewise
        ``(1, 0)`` and ``(-1, 0)`` along the block index.
        """
        if self.ndim != 2:
            raise ValueError("block_banded() is the 2D representation")
        if self._bands is not None:
            return dict(self._bands)
        n = self.n
        ah, av = self.a_h, self.a_v
        diag = ah[:, :-1] + ah[:, 1:] + av[:-1, :] + av[1:, :]
        inner_up = -ah[:, 1:-1].copy()
        inner_lo = -ah[:, 1:-1].copy()
        block_up = -av[1:-1, :].copy()
        block_lo = -av[1:-1, :].copy()
        # a length-1 axis takes the zero-Neumann border, as in bands()
        if self.bc is DiffusionBc.ZERO_NEUMANN or n == 1:
            diag[:, 0] -= ah[:, 0]
            diag[:, -1] -= ah[:, -1]
            diag[0, :] -= av[0, :]
            diag[-1, :] -= av[-1, :]
        else:
            diag[:, 0] -= 2.0 * ah[:, 0]
            diag[:, -1] -= 2.0 * ah[:, -1]
            diag[0, :] -= 2.0 * av[0, :]
            diag[-1, :] -= 2.0 * av[-1, :]
            inner_up[:, 0] += ah[:, 0]
            inner_lo[:, -1] += ah[:, -1]
            block_up[0, :] += av[0, :]
            block_lo[-1, :] += av[-1, :]
        return self._cache({
            (0, 0): diag,
            (0, 1): inner_up,
            (0, -1): inner_lo,
            (1, 0): block_up,
            (-1, 0): block_lo,
        })

    def _cache(self, bands: dict) -> dict:
        """Freeze ``bands``' arrays and keep them for later calls."""
        for values in bands.values():
            values.setflags(write=False)
        self._bands = bands
        return dict(bands)
