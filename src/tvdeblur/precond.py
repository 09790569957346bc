"""Transform-algebra projections and factored preconditioners.

Every preconditioner here lives inside a commutative matrix algebra
diagonalized by one fast transform:

* cosine algebra  ``{C diag(v) C^T}``          (reflective operators),
* sine algebra    ``{S diag(v) S}``            (type-I sine, self-inverse),
* bordered sine   ``{Shat diag(v) Shat}``      with ``Shat = diag(1, S, 1)``,
* anti-reflective ``{T diag(v) T^{-1}}``       (non-orthogonal transform).

For the three orthogonal algebras the Frobenius-closest member of the
algebra to ``A`` has eigenvalues ``diag(X^T A X)``, a sum of one
``transforms.band_form`` per band of a banded ``A``; ``transforms`` picks
a dense product or an FFT for each.  A band form depends on the band's
distance |d| from the diagonal only, so the bands at +d and -d are summed
and take one band form.  Projections take band dicts only,
keyed by offset tuples as ``tv.DiffusionOperator.bands`` gives them:
``{(d,): values}`` in 1D and ``{(block offset, inner offset):
coefficients}`` in 2D.  Preconditioners apply and solve with
``transforms.diagonalized``, as the blur operators do, and leave their
argument alone; the solve is bound once per preconditioner.

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
construction runs on block-band coefficient arrays with batched band forms.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .blur import BoundaryCondition
from .krylov import ConfigurationError, NumericalFailure, check_settings
# apply_1d and tensor_apply_2d stay importable here for bench/spans.py
from .transforms import (MIN_BORDERED_N, TransformKind, apply_1d,  # noqa: F401
                         band_form, diagonalized, tensor_apply_2d)
from .tv import scaling_diagonal

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
MIN_PROJECTION_N = {TransformKind.SINE_HAT: MIN_BORDERED_N,
                    TransformKind.ANTI_REFLECTIVE: 5}


def smallest_order(family: str) -> int:
    """Smallest n at which a preconditioner of ``family`` can be assembled."""
    return MIN_PROJECTION_N.get(_FAMILIES[family][0], 1)


class IndefinitePreconditionerError(NumericalFailure):
    """A factored preconditioner came out with a nonpositive eigenvalue."""

    def __init__(self, kind: str, alpha: float, min_eigenvalue: float) -> None:
        super().__init__(
            f"preconditioner {kind!r} is indefinite at alpha={float(alpha)!r} "
            f"(smallest eigenvalue {float(min_eigenvalue)!r})"
        )
        self.kind = kind
        self.alpha = alpha
        self.min_eigenvalue = min_eigenvalue


@lru_cache(maxsize=16)
def _border_weights(length: int) -> np.ndarray:
    """Read-only ``w[t] = (-1)^(t+1) (1 + cos(t pi / (L+1)))``, t = 1..L:
    ``lam_int @ w`` is the anti-reflective border eigenvalue."""
    t = np.arange(1, length + 1)
    w = np.where(t % 2 == 1, 1.0, -1.0) * (1.0 + np.cos(t * np.pi / (length + 1)))
    w.setflags(write=False)
    return w


def _fold(bands: Bands) -> Bands:
    """``bands`` keyed by the distances ``|d|``, the bands that share one
    summed in key order."""
    folded: Bands = {}
    for offset, band in bands.items():
        key = tuple(abs(d) for d in offset)
        folded[key] = band if key not in folded else np.add(folded[key], band)
    return folded


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

    A band's part of the result depends on the distance |d| along each
    axis, not on the sign, so the bands at +d and -d are summed first and
    take one band form together: in 2D on both levels, where the five
    bands of a diffusion stencil take three.
    """
    bands = _fold(bands)
    if any(len(offset) > 1 for offset in bands):
        return _project_2d(kind, bands, n)
    if kind in (TransformKind.DCT, TransformKind.DST1):
        return _sum_of_forms(kind, bands, n)
    _check_bordered(kind, n)
    interiors = {(d,): np.asarray(band, dtype=float)[..., 1: n - 1 - d]
                 for (d,), band in bands.items()}
    return _bordered(kind, interiors, bands.get((0,)), n)


def _project_2d(kind: TransformKind, bands: Bands, n: int) -> np.ndarray:
    """:func:`project` of folded 2D bands: blockwise, regrouped, blockwise.

    Level 1 gives the eigenvalues of every block A_{k, k+do}, batched over
    k; the regrouped matrices G_t have ``lam_blocks[:, t]`` on block offset
    do, and level 2 projects them, giving ``grid[t, s]``.

    The anti-reflective map borders the sine eigenvalues of the interior
    on each level, and each border is linear in them (``lam_int @ w``).
    So its two levels are the 2D sine projection of the bands' interior,
    of order n - 2, bordered along the inner axis by ``lam_int @ w`` and
    then along the block axis by ``w @`` the bordered rows: only the
    interior takes band forms."""
    if kind is TransformKind.ANTI_REFLECTIVE:
        _check_bordered(kind, n)
        interior = {(do, di): np.asarray(band, dtype=float)[1: n - 1 - do,
                                                            1: n - 1 - di]
                    for (do, di), band in bands.items()}
        lam_int = project(TransformKind.DST1, interior, n - 2)
        w = _border_weights(n - 2)
        out = np.empty((n, n))
        out[1:-1, 1:-1] = lam_int
        out[1:-1, 0] = out[1:-1, -1] = lam_int @ w
        out[0] = out[-1] = w @ out[1:-1]
        return out
    by_block_offset: dict[int, Bands] = {}
    for (do, di), band in bands.items():
        by_block_offset.setdefault(do, {})[(di,)] = band
    regrouped = {(do,): project(kind, inner_bands, n).T
                 for do, inner_bands in by_block_offset.items()}
    return project(kind, regrouped, n).T


def _check_bordered(kind: TransformKind, n: int) -> None:
    """Reject a kind that is not a projection's, or an order n below the
    bordered kind's smallest."""
    if kind not in MIN_PROJECTION_N:
        raise ConfigurationError(f"unknown projection kind: {kind!r}")
    smallest = MIN_PROJECTION_N[kind]
    if n < smallest:
        raise ConfigurationError(f"{kind.value} projection requires n >= {smallest}")


def _sum_of_forms(kind: TransformKind, bands: Bands, n: int) -> np.ndarray:
    """The band forms at order n of ``bands`` (keyed ``(d,)``, d >= 0)
    summed in key order into the first form; zeros for no bands."""
    forms = (band_form(kind, band, d, n) for (d,), band in bands.items())
    total = next(forms, None)
    if total is None:
        return np.zeros(n)
    for form in forms:
        total += form
    return total


def _bordered(kind: TransformKind, interiors: Bands, diagonal, n: int) -> np.ndarray:
    """Eigenvalues of a bordered kind of order n from its interior bands,
    ``band[..., 1 : n-1-d]`` keyed ``(d,)``: the sine eigenvalues of the
    interior, summed in the first band's form and copied once into the
    output's interior, bordered by the diagonal band's end samples
    (bordered sine; 0 without a ``diagonal``) or by ``lam_int @ w``
    (anti-reflective)."""
    first = next(iter(interiors.values()), np.zeros(0))
    out = np.empty(first.shape[:-1] + (n,))
    lam_int = out[..., 1:-1]
    lam_int[...] = _sum_of_forms(TransformKind.DST1, interiors, n - 2)
    if kind is TransformKind.ANTI_REFLECTIVE:
        out[..., 0] = out[..., -1] = lam_int @ _border_weights(n - 2)
    elif diagonal is None:
        out[..., 0] = out[..., -1] = 0.0
    else:
        out[..., 0] = diagonal[..., 0]
        out[..., -1] = diagonal[..., -1]
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
    _solve: Callable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        smallest = float(lam.min())
        if smallest <= 0.0:
            raise IndefinitePreconditionerError(self.kind, self.alpha, smallest)
        floor = 1e-14 * float(lam.max())
        if smallest < floor:
            logger.warning(
                "preconditioner %s: clamped %d eigenvalue(s) below %.3e",
                self.kind, int(np.count_nonzero(lam < floor)), floor,
            )
            inverse = 1.0 / np.maximum(lam, floor)
        else:  # no eigenvalue below the floor: the clamp would copy lam
            inverse = 1.0 / lam
        self.eigenvalues = lam
        self._solve = diagonalized(self.transform, inverse)

    def apply(self, b) -> np.ndarray:
        """Multiply by the preconditioner matrix."""
        b = np.asarray(b, dtype=float)
        apply = diagonalized(self.transform, self.eigenvalues)
        if self.d_sqrt is None:
            return apply(b)
        return self.d_sqrt * apply(self.d_sqrt * b)

    def apply_inverse(self, b) -> np.ndarray:
        """Solve M y = b; ``b`` is left alone."""
        b = np.asarray(b, dtype=float)
        if self.d_sqrt is None:
            return self._solve(b)
        y = self._solve(b / self.d_sqrt)
        y /= self.d_sqrt
        return y


def _scaled_bands(bands: Bands, s: np.ndarray) -> Bands:
    """``S A S`` with ``S = diag(s)``: each band times ``s`` at its row and
    at its column.  The bands at offsets d and -d meet the same two
    factors, so they are summed first, under the larger of the two
    offsets, and scaled once in place; a projection takes the sum as it
    takes any band (:func:`_fold`)."""
    pairs: dict[tuple[int, ...], list[np.ndarray]] = {}
    for offset, band in bands.items():
        key = max(offset, tuple(-d for d in offset))
        pairs.setdefault(key, []).append(band)
    out = {}
    for offset, (band, *mirror) in pairs.items():
        rows = tuple(slice(max(0, -d), max(0, -d) + m)
                     for d, m in zip(offset, band.shape))
        cols = tuple(slice(max(0, d), max(0, d) + m)
                     for d, m in zip(offset, band.shape))
        if mirror:
            scaled = np.add(band, *mirror)
            scaled *= s[rows]
        else:
            scaled = band * s[rows]
        scaled *= s[cols]
        out[offset] = scaled
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
        raise ConfigurationError(f"unknown preconditioner kind {kind!r}")
    check_settings(("alpha", alpha, "real > 0"))
    transform, expected_bc = _FAMILIES[base]
    if h_op.bc is not expected_bc:
        raise ConfigurationError(
            f"preconditioner {kind!r} requires a blur operator with "
            f"{expected_bc.value!r} boundary conditions, got {h_op.bc.value!r}"
        )
    lam_h2 = h_op.eigenvalues() ** 2
    n = h_op.n
    if kind.endswith("_D"):
        s = l_op.scaling(alpha)
        lam_d = project(transform, {(0,) * s.ndim: s}, n)
        lam_lt = project(transform, _scaled_bands(l_op.bands(), s), n)
        # |lam_H|^2 |lam_D|^2 + alpha lam_LT, in place
        eigs = lam_h2
        eigs *= lam_d
        eigs *= lam_d
        lam_lt *= alpha
        eigs += lam_lt
        return FactoredPreconditioner(kind, transform, eigs, alpha)
    lam_l = project(transform, l_op.bands(), n)
    lam_l *= alpha
    eigs = lam_h2
    eigs += lam_l
    # kind is the base or its D_ wrap here
    d_sqrt = np.sqrt(scaling_diagonal(l_op, alpha)) if kind != base else None
    return FactoredPreconditioner(kind, transform, eigs, alpha, d_sqrt=d_sqrt)
