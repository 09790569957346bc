"""Fast trigonometric transforms used to diagonalize structured blur operators.

Three one-dimensional transforms and their tensor-product (2D) extensions:

* ``DCT`` -- the orthogonal cosine matrix with entries
  ``C[i, j] = sqrt((2 - delta_{j0}) / n) * cos((2i + 1) j pi / (2n))``
  (0-based indices).  ``C`` is orthogonal but not symmetric, so forward and
  inverse applies differ (``C v`` vs ``C^T v``).
* ``DST1`` -- the type-I sine matrix
  ``S[i, j] = sqrt(2 / (n + 1)) * sin((i + 1)(j + 1) pi / (n + 1))``,
  which is symmetric and self-inverse.
* ``SINE_HAT`` -- ``diag(1, S_{n-2}, 1)``: identity on both border samples,
  type-I sine transform on the interior.  Symmetric, self-inverse.
* ``ANTI_REFLECTIVE`` -- the non-orthogonal matrix ``T`` whose first/last
  columns sample the linear ramps ``1 - x`` and ``x`` and whose interior
  columns are sine waves.  With ``Shat = diag(1, S_{n-2}, 1)`` it factors as
  ``T = Shat (I + U)`` and ``T^{-1} = (I - U) Shat`` where ``U`` holds two
  correction columns, so a 1D apply never forms ``T`` densely: it costs one
  fast sine transform plus O(n) boundary work.

1D applies run in O(n log n) via ``scipy.fft``.  2D tensor applies on
grids with n <= 144 are two products with the cached dense n x n matrix of
the 1D apply, O(n^3); larger grids take the 1D transform along each axis,
O(n^2 log n).  Transform data cached per size is read-only, so transform
applications are safe to share across threads.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import fft as _fft


class TransformKind(Enum):
    DCT = "dct"
    DST1 = "dst1"
    ANTI_REFLECTIVE = "anti_reflective"
    SINE_HAT = "sine_hat"


def _check_nonempty(v: np.ndarray) -> None:
    if v.shape[-1] == 0:
        raise ValueError("transform input must be non-empty")


def _check_interior(v: np.ndarray, what: str) -> None:
    if v.shape[-1] < 3:
        raise ValueError(f"{what} requires length >= 3, got {v.shape[-1]}")


def dst1_apply(v) -> np.ndarray:
    """Apply the symmetric, self-inverse type-I sine transform S_n."""
    v = np.asarray(v, dtype=float)
    _check_nonempty(v)
    return _fft.dst(v, type=1, norm="ortho")


def dct_apply(v, inverse: bool = False) -> np.ndarray:
    """Apply the orthogonal cosine matrix C_n (forward) or its transpose.

    Forward is synthesis (``C v``), inverse is analysis (``C^T v``); they
    compose to the identity.
    """
    v = np.asarray(v, dtype=float)
    _check_nonempty(v)
    if inverse:
        return _fft.dct(v, type=2, norm="ortho")
    return _fft.idct(v, type=2, norm="ortho")


def sinehat_apply(v) -> np.ndarray:
    """Apply Shat_n = diag(1, S_{n-2}, 1): borders pass through unchanged."""
    v = np.asarray(v, dtype=float)
    _check_interior(v, "Shat_n")
    out = v.copy()
    out[..., 1:-1] = _fft.dst(v[..., 1:-1], type=1, norm="ortho")
    return out


@lru_cache(maxsize=None)
def _ar_corrections(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Correction columns S_{n-2} p and S_{n-2} J p of the rank-2 factor U."""
    j = np.arange(1, n - 1, dtype=float)
    p = 1.0 - j / (n - 1)
    q_left = _fft.dst(p, type=1, norm="ortho")
    q_right = _fft.dst(p[::-1], type=1, norm="ortho")
    q_left.setflags(write=False)
    q_right.setflags(write=False)
    return q_left, q_right


def ar_apply(v, inverse: bool = False, transpose: bool = False) -> np.ndarray:
    """Apply T_n, T_n^{-1}, T_n^T or T_n^{-T} via the rank-2 factorization.

    ``T = Shat (I + U)`` where the only nonzero columns of ``U`` are the
    cached corrections at positions 1 and n.  Transposed applies are needed
    for adjoints of anti-reflective blur operators.
    """
    v = np.asarray(v, dtype=float)
    _check_interior(v, "T_n")
    ql, qr = _ar_corrections(v.shape[-1])
    first, interior, last = v[..., :1], v[..., 1:-1], v[..., -1:]

    out = v.copy()
    if not transpose:
        if not inverse:
            # T v = Shat (v + U v)
            out[..., 1:-1] += first * ql + last * qr
            out[..., 1:-1] = _fft.dst(out[..., 1:-1], type=1, norm="ortho")
        else:
            # T^{-1} v = (I - U) Shat v
            out[..., 1:-1] = _fft.dst(interior, type=1, norm="ortho")
            out[..., 1:-1] -= first * ql + last * qr
    else:
        if not inverse:
            # T^T v = (I + U^T) Shat v
            out[..., 1:-1] = _fft.dst(interior, type=1, norm="ortho")
            out[..., :1] += np.sum(out[..., 1:-1] * ql, axis=-1, keepdims=True)
            out[..., -1:] += np.sum(out[..., 1:-1] * qr, axis=-1, keepdims=True)
        else:
            # T^{-T} v = Shat (I - U^T) v
            out[..., :1] -= np.sum(interior * ql, axis=-1, keepdims=True)
            out[..., -1:] -= np.sum(interior * qr, axis=-1, keepdims=True)
            out[..., 1:-1] = _fft.dst(interior, type=1, norm="ortho")
    return out


def apply_1d(kind: TransformKind, v, inverse: bool = False,
             transpose: bool = False) -> np.ndarray:
    """Dispatch a 1D transform apply along the last axis."""
    if kind is TransformKind.DST1:
        return dst1_apply(v)
    if kind is TransformKind.SINE_HAT:
        return sinehat_apply(v)
    if kind is TransformKind.DCT:
        if transpose:
            inverse = not inverse
        return dct_apply(v, inverse=inverse)
    if kind is TransformKind.ANTI_REFLECTIVE:
        return ar_apply(v, inverse=inverse, transpose=transpose)
    raise ValueError(f"unknown transform kind: {kind!r}")


# Largest grid side applied as two dense products.  Up to here the products
# match or beat the per-axis FFTs for the three sine-based kinds at every n
# measured, and their cost does not depend on how n (or n - 1) factors: at
# n = 128 the anti-reflective DST-I needs a length-254 = 2 * 127 FFT.  The
# DCT loses up to 27% as a product at smooth n from 120 to 144 and 30-52%
# above, which bounds the cutoff.  Measured by scripts/transform_crossover.py.
_GEMM_MAX_N = 144


@lru_cache(maxsize=16)
def _matrix_1d(kind: TransformKind, inverse: bool, transpose: bool,
               n: int) -> np.ndarray:
    """Read-only dense n x n matrix of the 1D apply with these flags."""
    # row i of the batched apply is the image of e_i, i.e. column i of m
    m = np.ascontiguousarray(
        apply_1d(kind, np.eye(n), inverse=inverse, transpose=transpose).T)
    m.setflags(write=False)
    return m


def tensor_apply_2d(kind: TransformKind, g, inverse: bool = False,
                    transpose: bool = False) -> np.ndarray:
    """Apply the tensor product X (x) X to a square grid.

    For a grid G this computes ``X G X^T`` and its inverse/transpose
    variants.  With n <= ``_GEMM_MAX_N`` it is the two products
    ``m @ G @ m.T`` with the cached matrix ``m`` of the 1D apply; larger
    grids take the 1D transform over all columns (the rows of ``G^T``) and
    then over all rows.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"tensor transform needs a square grid, got shape {g.shape}")
    n = g.shape[0]
    if n <= _GEMM_MAX_N:
        m = _matrix_1d(kind, inverse, transpose, n)
        return m @ g @ m.T
    cols = apply_1d(kind, g.T, inverse=inverse, transpose=transpose).T
    return apply_1d(kind, cols, inverse=inverse, transpose=transpose)


def probe_dense(apply, shape) -> np.ndarray:
    """Dense matrix of the linear map ``apply`` on arrays of ``shape``.

    Column k is the image of the k-th unit vector (row-major order).  Desk
    scale only: at most 4096 unknowns.
    """
    size = int(np.prod(shape))
    if size > 4096:
        raise ValueError(f"dense probing is limited to 4096 unknowns, got {size}")
    out = np.empty((size, size))
    for k in range(size):
        e = np.zeros(size)
        e[k] = 1.0
        out[:, k] = apply(e.reshape(shape)).reshape(-1)
    return out
