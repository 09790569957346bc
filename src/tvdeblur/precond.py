"""Transform-algebra projections and factored preconditioners.

Every preconditioner here lives inside a commutative matrix algebra
diagonalized by one fast transform:

* cosine algebra  ``{C diag(v) C^T}``          (reflective operators),
* sine algebra    ``{S diag(v) S}``            (type-I sine, self-inverse),
* bordered sine   ``{Shat diag(v) Shat}``      with ``Shat = diag(1, S, 1)``,
* anti-reflective ``{T diag(v) T^{-1}}``       (non-orthogonal transform).

For the three orthogonal algebras the Frobenius-closest member of the
algebra to ``A`` has eigenvalues ``diag(X^T A X)``; the band at offset d of
a banded ``A`` adds ``sum_i band[i] X[i, t] X[i + d, t]`` for all t at once.
Up to the length ``transforms._GEMM_MAX_N`` (144, the 2D tensor-product
cutoff) that sum is ``band @ P_d`` with the cached read-only matrix
``P_d = X[:n-d] * X[d:]``, O(b n^2) for bandwidth b; longer lengths use one
FFT of length about 2n, O(b n log n), and materialize nothing dense.
Projections take band dicts only, keyed by offset tuples as
``tv.DiffusionOperator.bands`` gives them: ``{(d,): values}`` in 1D and
``{(block offset, inner offset): coefficients}`` in 2D.  Preconditioners
apply and solve with ``blur.diagonalized``, as the blur operators do; the
solve is bound once per preconditioner and, in 1D, runs in place on one
copy of its right-hand side.

The anti-reflective map is not a Frobenius projection (the transform is not
unitary): it projects the interior (order L = n - 2) onto the sine algebra
and borders it with the two ramp columns of the anti-reflective algebra.  The
border eigenvalue is the bordered (1,1) entry ``sum_m (m+1) col[m]`` of the
interior's first column ``col = S diag(lam) S[:, 0]``; as ``sum_j j sin(j x)
= (-1)^(t+1) (L+1) sin(x) / (4 sin^2(x/2))`` at ``x = t pi / (L+1)``, it is
``sum_t (-1)^(t+1) (1 + cos(x)) lam_t``.  The weights alternate in sign, so a
positive interior need not give a positive border.

In 2D the projection is the same map taken once per level (Di Benedetto
and Serra-Capizzano's two-level construction): it runs blockwise, the
indices are regrouped with the vec permutation (outer and inner indices
swapped), and it runs blockwise again.  For the orthogonal algebras this
reproduces the Frobenius-optimal member of the tensor algebra; the whole
construction runs on block-band coefficient arrays with batched band sums:
O(n^3) matrix products for n <= 144, batched FFTs in O(n^2 log n) above.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import transforms
from .blur import (BoundaryCondition, diagonalized, diagonalized_apply,
                   scratch)
# apply_1d and tensor_apply_2d stay importable here for bench/spans.py
from .transforms import TransformKind, apply_1d, tensor_apply_2d  # noqa: F401

logger = logging.getLogger(__name__)

#: offset tuple -> band values: ``(d,)`` in 1D, ``(block, inner)`` in 2D
Bands = dict[tuple[int, ...], np.ndarray]

#: preconditioner family -> (transform algebra, blur boundary condition)
_FAMILIES = {
    "R": (TransformKind.DCT, BoundaryCondition.REFLECTIVE),
    "M": (TransformKind.SINE_HAT, BoundaryCondition.ANTI_REFLECTIVE),
    "P": (TransformKind.ANTI_REFLECTIVE, BoundaryCondition.ANTI_REFLECTIVE),
}


#: smallest order of each bordered projection
MIN_PROJECTION_N = {TransformKind.SINE_HAT: transforms.MIN_BORDERED_N,
                    TransformKind.ANTI_REFLECTIVE: 5}


def smallest_order(family: str) -> int:
    """Smallest n at which a preconditioner of ``family`` can be assembled."""
    return MIN_PROJECTION_N.get(_FAMILIES[family][0], 1)


class IndefinitePreconditionerError(RuntimeError):
    """A factored preconditioner came out with a nonpositive eigenvalue."""

    def __init__(self, kind: str, alpha: float, min_eigenvalue: float) -> None:
        super().__init__(
            f"preconditioner {kind!r} is indefinite at alpha={float(alpha)!r} "
            f"(smallest eigenvalue {float(min_eigenvalue)!r})"
        )
        self.kind = kind
        self.alpha = alpha
        self.min_eigenvalue = min_eigenvalue


class InvalidScalingError(ValueError):
    """Diagonal scaling is not positive, the scaled system is undefined."""


def scaling_diagonal(l_op, alpha: float) -> np.ndarray:
    """``D = I + alpha diag L``, rejected unless every entry is positive."""
    d = 1.0 + alpha * l_op.diagonal()
    if np.min(d) <= 0:
        raise InvalidScalingError("D = I + alpha diag L has nonpositive "
                                  f"entries (min {float(np.min(d))!r})")
    return d


# ---------------------------------------------------------------------------
# banded quadratic forms: sum_i band[i] * X[i, t] * X[i + d, t] for all t
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _band_products(kind: TransformKind, d: int, n: int) -> np.ndarray:
    """Read-only ``P_d[i, t] = X[i, t] * X[i + d, t]`` for the n x n matrix X.

    ``band @ P_d`` is one band's contribution to diag(X^T A X).  X is the
    cached matrix of the 1D forward apply, C for the DCT and S for the DST-I.
    """
    m = transforms._matrix_1d(kind, False, False, n)
    p = m[: n - d] * m[d:]
    p.setflags(write=False)
    return p


def _rfft(arr: np.ndarray) -> np.ndarray:
    """Real FFT along the last axis: pocketfft's r2c with the arguments
    ``scipy.fft.rfft(arr, axis=-1)`` passes (forward, no normalization,
    one worker)."""
    return transforms._pocketfft.r2c(arr, (-1,), True, 0, None, 1)


def _band_form(kind: TransformKind, band: np.ndarray, offset: int,
               n: int) -> np.ndarray:
    """Contribution of one band to diag(X^T A X), batched over leading axes.

    X is C (DCT) or S (DST-I); an empty band gives zeros.  Up to
    ``_GEMM_MAX_N`` it is ``band @ P_d``.  Above, the product-to-sum identity
    makes the frequency-sum part one FFT of the band on odd/even slots
    (length 2n or 2(n+1)) and collapses the difference part to the band total.
    """
    d = abs(offset)
    band = np.asarray(band, dtype=float)
    length = n - d
    if length <= 0 or band.shape[-1] == 0:
        return np.zeros(band.shape[:-1] + (n,))
    if band.shape[-1] != length:
        raise ValueError(f"band for offset {offset} must have length {length}")
    if n <= transforms._GEMM_MAX_N:
        return band @ _band_products(kind, d, n)
    total = band.sum(axis=-1, keepdims=True)
    if kind is TransformKind.DCT:
        arr = np.zeros(band.shape[:-1] + (2 * n,))
        arr[..., d + 1: d + 1 + 2 * length: 2] = band
        freq_sum = _rfft(arr)[..., :n].real
        t = np.arange(n)
        gamma = t * np.pi / (2 * n)
        rho2 = np.where(t == 0, 1.0, 2.0) / n
        return 0.5 * rho2 * (total * np.cos(2 * d * gamma) + freq_sum)
    arr = np.zeros(band.shape[:-1] + (2 * (n + 1),))
    arr[..., d + 2: d + 2 + 2 * length: 2] = band
    freq_sum = _rfft(arr)[..., 1: n + 1].real
    t = np.arange(1, n + 1)
    theta = np.pi / (n + 1)
    return (total * np.cos(d * t * theta) - freq_sum) / (n + 1)


@lru_cache(maxsize=16)
def _border_weights(length: int) -> np.ndarray:
    """Read-only ``w[t] = (-1)^(t+1) (1 + cos(t pi / (L+1)))``, t = 1..L:
    ``lam_int @ w`` is the anti-reflective border eigenvalue."""
    t = np.arange(1, length + 1)
    w = np.where(t % 2 == 1, 1.0, -1.0) * (1.0 + np.cos(t * np.pi / (length + 1)))
    w.setflags(write=False)
    return w


def project(kind: TransformKind, bands: Bands, n: int) -> np.ndarray:
    """Algebra eigenvalues of the banded matrix ``bands``, of order n per axis.

    ``bands`` maps an offset tuple to its values, indexed along each axis by
    the smaller of row/column; in 1D the values may carry leading batch
    axes.  The DCT and DST-I results are the Frobenius-closest members
    ``X diag(result) X^T``.  The bordered-sine result is ``(a[0,0], sine
    eigenvalues of the interior, a[n-1,n-1])``; the anti-reflective one
    borders the same interior eigenvalues by the (1,1) entry of the bordered
    matrix, ``lam_int @ w``.

    In 2D, with ``(block offset, inner offset)`` keys, the result is the
    n-by-n eigenvalue grid ``lam[s, t]`` aligned with the tensor transform:
    ``s`` indexes the block-level (axis 0) frequency, ``t`` the inner one.
    The block-banded operator is never densified.
    """
    if any(len(offset) > 1 for offset in bands):
        by_block_offset: dict[int, Bands] = {}
        for (do, di), band in bands.items():
            by_block_offset.setdefault(do, {})[(di,)] = band
        # level 1 gives the eigenvalues of every block A_{k, k+do}, batched
        # over k; the regrouped matrices G_t have lam_blocks[:, t] on block
        # offset do, and level 2 projects them, giving grid[t, s]
        regrouped = {(do,): project(kind, inner_bands, n).T
                     for do, inner_bands in by_block_offset.items()}
        return project(kind, regrouped, n).T
    if kind in (TransformKind.DCT, TransformKind.DST1):
        parts = [_band_form(kind, b, d, n) for (d,), b in bands.items()]
        return sum(parts) if parts else np.zeros(n)
    if kind not in (TransformKind.SINE_HAT, TransformKind.ANTI_REFLECTIVE):
        raise ValueError(f"unknown projection kind: {kind!r}")
    smallest = MIN_PROJECTION_N[kind]
    if n < smallest:
        raise ValueError(f"{kind.value} projection requires n >= {smallest}")
    shape = next(iter(bands.values())).shape[:-1] if bands else ()
    lam_int = np.zeros(shape + (n - 2,))
    for (d,), band in bands.items():
        interior = np.asarray(band, dtype=float)[..., 1: n - 1 - abs(d)]
        lam_int += _band_form(TransformKind.DST1, interior, d, n - 2)
    out = np.zeros(shape + (n,))
    out[..., 1:-1] = lam_int
    if kind is TransformKind.SINE_HAT:
        diag_band = bands.get((0,))
        if diag_band is not None:
            out[..., 0] = diag_band[..., 0]
            out[..., -1] = diag_band[..., -1]
    else:
        out[..., 0] = out[..., -1] = lam_int @ _border_weights(n - 2)
    return out


# ---------------------------------------------------------------------------
# factored preconditioners
# ---------------------------------------------------------------------------


@dataclass
class FactoredPreconditioner:
    """Preconditioner stored as transform + eigenvalues (+ diagonal wrap).

    ``apply_inverse`` solves ``M y = b`` with one analysis transform, an
    eigenvalue division, and one synthesis transform; diagonal-wrapped kinds
    scale by ``D^{-1/2}`` on both sides.  Eigenvalues are checked positive at
    construction; denominators below ``1e-14 * max`` are clamped (with a log
    warning) so nearly singular blur symbols cannot poison the solve.
    """

    kind: str
    transform: TransformKind
    eigenvalues: np.ndarray
    alpha: float
    d_sqrt: np.ndarray | None = None
    _inverse_eigenvalues: np.ndarray = field(init=False, repr=False)
    _solve: Callable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        smallest = float(lam.min())
        if smallest <= 0.0:
            raise IndefinitePreconditionerError(self.kind, self.alpha, smallest)
        floor = 1e-14 * float(lam.max())
        clamped = int(np.count_nonzero(lam < floor))
        if clamped:
            logger.warning(
                "preconditioner %s: clamped %d eigenvalue(s) below %.3e",
                self.kind, clamped, floor,
            )
        self.eigenvalues = lam
        self._inverse_eigenvalues = 1.0 / np.maximum(lam, floor)
        self._solve = diagonalized(self.transform, self._inverse_eigenvalues)

    def apply(self, b) -> np.ndarray:
        """Multiply by the preconditioner matrix."""
        b = np.asarray(b, dtype=float)
        if self.d_sqrt is None:
            return diagonalized_apply(self.transform, self.eigenvalues, b)
        return self.d_sqrt * diagonalized_apply(
            self.transform, self.eigenvalues, self.d_sqrt * b)

    def apply_inverse(self, b) -> np.ndarray:
        """Solve M y = b; ``b`` is left alone.  In 1D the solve runs in
        place on one copy of ``b`` (of ``b / d_sqrt`` with the wrap)."""
        b = np.asarray(b, dtype=float)
        if self.d_sqrt is None:
            return self._solve(scratch(b))
        y = self._solve(b / self.d_sqrt)
        y /= self.d_sqrt
        return y


def _scaled_bands(bands: Bands, s: np.ndarray) -> Bands:
    """``S A S`` with ``S = diag(s)``: each band scaled by ``s`` at its row,
    then at its column."""
    out = {}
    for offset, band in bands.items():
        rows = tuple(slice(max(0, -d), max(0, -d) + m)
                     for d, m in zip(offset, band.shape))
        cols = tuple(slice(max(0, d), max(0, d) + m)
                     for d, m in zip(offset, band.shape))
        out[offset] = band * s[rows] * s[cols]
    return out


def assemble_preconditioner(kind: str, h_op, l_op, alpha: float) -> FactoredPreconditioner:
    """Build one of the nine factored preconditioners.

    Families: ``R``/``D_R``/``R_D`` live in the cosine algebra and expect a
    reflective blur operator; ``M``/``D_M``/``M_D`` in the bordered sine
    algebra and ``P``/``D_P``/``P_D`` in the anti-reflective algebra, both
    expecting an anti-reflective blur operator.  The base kind is
    ``|lam_H|^2 + alpha * proj(L)``; ``D_X`` wraps it with the diagonal
    ``sqrt(I + alpha diag L)`` on both sides; ``X_D`` targets the
    diagonally scaled system and uses
    ``|lam_H|^2 |lam_D|^2 + alpha * proj(scaled L)``.
    """
    base = kind.removeprefix("D_").removesuffix("_D")
    # a family letter with at most one of the two wraps
    if base not in _FAMILIES or len(kind) > len(base) + 2:
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    transform, expected_bc = _FAMILIES[base]
    if h_op.bc is not expected_bc:
        raise ValueError(
            f"preconditioner {kind!r} requires a blur operator with "
            f"{expected_bc.value!r} boundary conditions, got {h_op.bc.value!r}"
        )
    lam_h2 = h_op.eigenvalues() ** 2
    n = h_op.n
    l_bands = l_op.bands()
    if kind.endswith("_D"):
        s = scaling_diagonal(l_op, alpha) ** -0.5
        lam_d = project(transform, {(0,) * s.ndim: s}, n)
        lam_lt = project(transform, _scaled_bands(l_bands, s), n)
        eigs = lam_h2 * lam_d * lam_d + alpha * lam_lt
        return FactoredPreconditioner(kind, transform, eigs, alpha)
    eigs = lam_h2 + alpha * project(transform, l_bands, n)
    # kind is the base or its D_ wrap here
    d_sqrt = np.sqrt(scaling_diagonal(l_op, alpha)) if kind != base else None
    return FactoredPreconditioner(kind, transform, eigs, alpha, d_sqrt=d_sqrt)


# ---------------------------------------------------------------------------
# small-n spectral diagnostics
# ---------------------------------------------------------------------------


#: histogram bins, and the distance from 1 of a clustered eigenvalue
_BINS, CLUSTER_RADIUS = 20, 0.1


@dataclass
class SpectralDiagnostic:
    """Eigenvalues of a dense preconditioned matrix plus a cluster summary."""

    eigenvalues: np.ndarray
    histogram: np.ndarray
    bin_edges: np.ndarray
    cluster_fraction: float

    def histogram_lines(self) -> list[str]:
        width = 50
        top = max(1, int(self.histogram.max()))
        lines = []
        for count, lo, hi in zip(self.histogram, self.bin_edges, self.bin_edges[1:]):
            bar = "#" * int(round(width * count / top))
            lines.append(f"[{lo:+.4e}, {hi:+.4e})  {count:6d}  {bar}")
        return lines


def spectral_diagnostic(preconditioned: np.ndarray) -> SpectralDiagnostic:
    """Eigenvalues of the dense ``M^{-1} A``, histogram and cluster-at-one report."""
    from scipy.linalg import eigvals

    eigs = eigvals(preconditioned)
    real = np.real(eigs)
    hist, edges = np.histogram(real, bins=_BINS)
    fraction = float(np.mean(np.abs(eigs - 1.0) <= CLUSTER_RADIUS))
    order = np.argsort(real)
    return SpectralDiagnostic(
        eigenvalues=eigs[order],
        histogram=hist,
        bin_edges=edges,
        cluster_fraction=fraction,
    )
