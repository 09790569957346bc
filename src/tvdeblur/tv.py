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

The coefficients are kept once per axis; the bands and the diagonal each
run one rule per axis, so 1D and 2D share them.  The bands are keyed by
offset tuples in both dimensions, the form the transform-algebra
projections take.

The apply takes one form per dimension.  In 2D the operator is a fixed
five-point stencil, the textbook case for diagonal (DIA) storage (Saad,
*Iterative Methods for Sparse Linear Systems*, 2nd ed., section 3.4):
:func:`band_kernel` packs the five bands once into five rows of length
n^2, and scipy's C loop ``dia_matvec`` adds ``A w`` into an output array
in one call.  A fixed-point step's system packs ``alpha L`` so, and adds
its diffusion term straight into its data term's output.  In 1D the
apply keeps the flux form: fluxes ``a * (difference across each edge)``,
then their negated divergence.  The 1D benchmark's cells without an
algebra preconditioner move their Krylov counts past the benchmark gate's
one iteration per step under any change of rounding, so the 1D apply
keeps its bytes until that gate measures regressions rather than
rounding.

``dia_matvec`` lives in ``scipy.sparse._sparsetools``, loaded from its
file (``transforms.load_scipy_binding``).  Importing the ``scipy.sparse``
package after numpy takes 0.18 s and 22 MB of peak RSS; the binding alone
takes 0.2 ms and no measurable RSS (scipy 1.17, Python 3.11, one Xeon
vCPU).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .krylov import ConfigurationError, NumericalFailure, check_settings
from .transforms import load_scipy_binding

#: scipy's sparse-matrix loops, the C routines behind ``scipy.sparse``
_BINDING_NAME = "scipy.sparse._sparsetools"

_sparsetools = load_scipy_binding(_BINDING_NAME)


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
    # The corner ghosts of the transverse averages need the padded grid.
    # Flattened, with its rows of width w = n + 2, a shift along either
    # axis is a contiguous slice: the differences across axis 1 and 0 at
    # cell (r, c) sit at flat index r w + c of dh and dv, and so does every
    # edge value, computed over whole rows of w.  The transverse averages
    # read the differences first; then the differences across the edges
    # are squared in place.
    n = u.shape[0]
    w = n + 2
    flat = np.pad(u, 1, **_PAD[bc]).ravel()
    dh = flat[1:] - flat[:-1]
    dv = flat[w:] - flat[:-w]
    del flat
    horizontal = _squared_transverse((dv, dv[w:], dv[1:], dv[w + 1:]),
                                     n, n + 1, w)
    vertical = _squared_transverse((dh, dh[1:], dh[w:], dh[w + 1:]),
                                   n + 1, n, w)
    np.multiply(dh, dh, out=dh)
    np.multiply(dv, dv, out=dv)
    return (_edge_coefficients(vertical, dv[1:], n, beta),
            _edge_coefficients(horizontal, dh[w:], n + 1, beta))


def _squared_transverse(ends: tuple, rows: int, cols: int,
                        w: int) -> np.ndarray:
    """A rows x w buffer whose flat entry r w + c holds, for edge (r, c)
    of one axis's rows x cols edges, the squared transverse gradient
    ``(0.25 * (e0 + e1 + e2 + e3)) ** 2``: the four-point average of the
    flat one-sided differences ``ends`` at the edge's endpoints.  The
    entries past each row's last edge are not edges, and the last w - cols
    are not written."""
    out = np.empty((rows, w))
    trans = out.reshape(-1)[:out.size - (w - cols)]
    np.add(ends[0][:trans.size], ends[1][:trans.size], out=trans)
    for end in ends[2:]:
        trans += end[:trans.size]
    trans *= 0.25
    trans *= trans
    return out


def _edge_coefficients(out: np.ndarray, squares: np.ndarray, cols: int,
                       beta: float) -> np.ndarray:
    """``1 / sqrt(across^2 + trans^2 + beta^2)``, in place in the buffer of
    :func:`_squared_transverse`, from the flat squared differences across
    the edges; returns the edges, a view.  The bytes are those of the
    written-out formula: ``across^2 + trans^2`` sums as ``trans^2 +
    across^2``."""
    w = out.shape[1]
    edges = out.reshape(-1)[:out.size - (w - cols)]
    edges += squares[:edges.size]
    edges += beta * beta
    np.sqrt(edges, out=edges)
    np.divide(1.0, edges, out=edges)
    return out[:, :cols]


def _along(axis: int, index) -> tuple:
    """Index that applies ``index`` to ``axis`` and keeps the other axes."""
    return (slice(None),) * axis + (index,)


class InvalidScalingError(NumericalFailure):
    """Diagonal scaling is not positive, the scaled system is undefined."""


def scaling_diagonal(l_op, alpha: float) -> np.ndarray:
    """``D = I + alpha diag L``, rejected unless every entry is positive."""
    d = l_op.diagonal() * alpha
    d += 1.0
    if np.min(d) <= 0:
        raise InvalidScalingError("D = I + alpha diag L has nonpositive "
                                  f"entries (min {float(np.min(d))!r})")
    return d


def band_kernel(bands: dict, weight: float = 1.0):
    """``add(w, out)``, which adds ``weight * A w`` into ``out`` and returns
    ``out``, for the 2D five-band matrix ``A`` of ``bands`` on an n x n grid
    (keyed as :meth:`DiffusionOperator.bands` gives them).

    The weighted bands are packed once, each into one row of length n^2
    indexed by the flat column index, as ``dia_matvec`` reads them: it adds
    ``data[k, j] x[j]`` into ``y[j - offsets[k]]``, one diagonal after the
    other.  An inner band leaves a zero where it would couple the end of
    one grid row to the start of the next.  At n = 1 the offsets 1 and n
    coincide, and both bands are empty.

    ``w`` and ``out`` are grids of the operator's shape, ``out`` float64.
    The C loop reads and writes n^2 values whatever the arrays hold, so
    their shapes are checked first.  It writes through to ``out`` itself,
    so ``out`` must be the array the caller goes on to use: a reshaped or
    raveled copy would drop the sum.
    """
    n = bands[(0, 0)].shape[0]
    data = np.zeros((len(bands), n, n))
    offsets = np.empty(len(bands), dtype=np.intc)
    for row, (offset, band) in enumerate(bands.items()):
        cells = tuple(slice(max(d, 0), n + min(d, 0)) for d in offset)
        np.multiply(band, weight, out=data[row][cells])
        offsets[row] = offset[0] * n + offset[1]
    size, shape = n * n, (n, n)
    data = data.reshape(len(bands), size)

    def add(w: np.ndarray, out: np.ndarray) -> np.ndarray:
        if w.shape != shape or out.shape != shape:
            raise ConfigurationError(f"expected two arrays of shape {shape}, "
                                     f"got {w.shape} and {out.shape}")
        _sparsetools.dia_matvec(size, size, len(offsets), size, offsets,
                                data, w, out)
        return out
    return add


class DiffusionOperator:
    """Banded lagged-diffusivity operator built from an iterate.

    Immutable after construction; rebuild per fixed-point step.  ``a[k]``
    holds the edge coefficients across axis k.  ``bands`` is built on first
    use and cached read-only, as a fixed-point step reads it several times
    (scaling, projection, diagonal wrap, the 2D apply); so is the diagonal
    scaling of :meth:`scaling`.  Sums over the axes run from the last axis
    to the first: in 2D the inner (axis 1) terms come first.
    """

    def __init__(self, u, beta: float, bc: DiffusionBc = DiffusionBc.ZERO_NEUMANN) -> None:
        u = np.asarray(u, dtype=float)
        self.bc = bc
        self.ndim = u.ndim
        self.n = u.shape[0]
        self.a = diffusion_coefficients(u, beta, bc)
        self._axes = range(self.ndim - 1, -1, -1)
        self._bands: dict | None = None
        self._scaling: tuple | None = None
        self._kernel = None

    def apply(self, w) -> np.ndarray:
        """``L w``: in 2D the five-point stencil on the cached bands
        (:func:`band_kernel`); in 1D fluxes ``a * (difference across each
        edge)``, then their negated divergence.

        The 1D boundary edges take their difference from the ghost value
        that ``np.pad`` would give under ``bc``; it is computed in place
        rather than by padding ``w``, with the same bytes.
        """
        w = np.asarray(w, dtype=float)
        expected = (self.n,) * self.ndim
        if w.shape != expected:
            raise ConfigurationError(f"expected shape {expected}, got {w.shape}")
        if self.ndim == 2:
            if self._kernel is None:
                self._kernel = band_kernel(self.bands())
            return self._kernel(w, np.zeros(expected))
        flux = _ghost_diff(w, self.bc, np.empty(self.n + 1))
        flux *= self.a[0]
        out = np.subtract(flux[1:], flux[:-1])
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
            if bands[zero] is None:
                bands[zero] = lo + hi
            else:  # diag + lo + hi, in place
                bands[zero] += lo
                bands[zero] += hi
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

    def scaling(self, alpha: float) -> np.ndarray:
        """``s = D^{-1/2}`` with ``D = I + alpha diag L``
        (:func:`scaling_diagonal`), read-only.

        A scaled step's apply and its ``_D`` preconditioner both read it,
        so it is built once for the last ``alpha`` asked.
        """
        if self._scaling is None or self._scaling[0] != alpha:
            s = scaling_diagonal(self, alpha)
            np.power(s, -0.5, out=s)
            s.setflags(write=False)
            self._scaling = (alpha, s)
        return self._scaling[1]

    def _cache(self, bands: dict) -> dict:
        """Freeze ``bands``' arrays and keep them for later calls."""
        for values in bands.values():
            values.setflags(write=False)
        self._bands = bands
        return dict(bands)
