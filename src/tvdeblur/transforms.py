"""Fast trigonometric transforms used to diagonalize structured blur operators.

Four one-dimensional transforms and their tensor-product (2D) extensions:

* ``DCT`` -- the orthogonal cosine matrix with entries
  ``C[i, j] = sqrt((2 - delta_{j0}) / n) * cos((2i + 1) j pi / (2n))``
  (0-based indices).  ``C`` is orthogonal but not symmetric, so forward and
  inverse applies differ (``C v`` vs ``C^T v``).
* ``DST1`` -- the type-I sine matrix
  ``S[i, j] = sqrt(2 / (n + 1)) * sin((i + 1)(j + 1) pi / (n + 1))``,
  which is symmetric and self-inverse.
* ``ANTI_REFLECTIVE`` -- the non-orthogonal matrix ``T`` whose first/last
  columns sample the linear ramps ``1 - x`` and ``x`` and whose interior
  columns are sine waves.  With ``Shat = diag(1, S_{n-2}, 1)`` it factors as
  ``T = Shat (I + U)`` and ``T^{-1} = (I - U) Shat`` where ``U`` holds two
  correction columns, so a 1D apply never forms ``T`` densely: it costs one
  fast sine transform plus O(n) boundary work.
* ``SINE_HAT`` -- ``Shat``, i.e. ``T`` with ``U = 0``: identity on both
  border samples, type-I sine transform on the interior.  Symmetric,
  self-inverse.

Each kind has one 1D body per (inverse, transpose) pair, built and cached
per length by :func:`body_1d` with its DCT type or its anti-reflective
correction columns bound.  A body transforms an array in place, so the
blur and preconditioner applies bind their bodies once and run them on one
buffer.  :func:`apply_1d`, the one-off 1D apply of every kind, runs the
body on a copy of its input: no apply writes into its argument.

The transforms run in O(n log n) in pocketfft's C routines, called through
the binding that ``scipy.fft`` dispatches to
(``scipy.fft._pocketfft.pypocketfft``) with the arguments its wrapper
passes; pocketfft gives the same bytes in place as out of place.  The
binding is loaded from its file in scipy's directory, so neither ``scipy``
nor ``scipy.fft`` is imported.  The public ``scipy.fft`` calls spend about
10 us per call in dispatch and argument checks, against a 3-15 us
transform at n = 203; ``tests/`` keeps them as the oracle and checks the
bodies byte for byte against them.  Transform data cached per size is
read-only, and a body writes only the array it is given, so transform
applications are safe to share across threads.

Band forms diag(X^T A X), the algebra projections' eigenvalues, add
``sum_i band[i] X[i, t] X[i + d, t]`` for all t per band at offset d of
``A`` (:func:`band_form`).  One rule, ``_takes_products``, picks for them
and for the 2D tensor applies between products with a cached dense n x n
matrix, whose cost does not depend on how n factors, and FFTs, which form
nothing dense.  Both bounds were measured by
scripts/transform_crossover.py.  A batch (a 2D grid is a batch of rows)
takes products up to n = 144: there the products match or beat the
per-axis FFTs for the sine-based kinds at every n measured (at n = 128 the
anti-reflective DST-I is a length-254 FFT), and the DCT loses up to 27% as
a product at smooth n from 120 to 144 and 30-52% above.  One vector takes
them up to n = 384: a vector band form of the DCT or the DST-I at offset 1
took 7-19 us as a product for n = 201 to 384 against 15-50 us as an FFT,
and 47-55 against 23-28 us at n = 512 (one thread).  A cached matrix at
n = 384 holds 1.1 MB.
"""

from __future__ import annotations

import importlib.util
import os
from enum import Enum
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .krylov import ConfigurationError

#: scipy's pocketfft binding, the C routines behind ``scipy.fft``
_BINDING_NAME = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """pocketfft's binding, loaded from its file in scipy's directory.

    Importing it by name would first run the ``scipy`` and ``scipy.fft``
    packages (scipy's array-API layer, ``scipy.special``, ``numpy.testing``,
    ``numpy.f2py``), which take most of a cold start and which the binding
    does not need.  ``find_spec`` of the top-level package locates scipy
    without running it.  The binding keeps its full name, and gives the
    same bytes whether ``scipy.fft`` is imported before or after it.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    for root in roots or ():
        finder = FileFinder(os.path.join(root, "fft", "_pocketfft"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_BINDING_NAME)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"cannot find pocketfft's binding {_BINDING_NAME} "
                      "(tvdeblur needs scipy)", name=_BINDING_NAME)


_pocketfft = _load_pocketfft()


class TransformKind(Enum):
    DCT = "dct"
    DST1 = "dst1"
    ANTI_REFLECTIVE = "anti_reflective"
    SINE_HAT = "sine_hat"


#: smallest length of the bordered transforms SINE_HAT and ANTI_REFLECTIVE
MIN_BORDERED_N = 3

# name of each bordered transform in its length error
_BORDERED = {TransformKind.SINE_HAT: "Shat_n",
             TransformKind.ANTI_REFLECTIVE: "T_n"}


# pocketfft's arguments as scipy.fft passes them for norm="ortho" on the
# last axis: norm code 1, one worker, no orthogonalize override
_LAST_AXIS = (-1,)
_ORTHO = 1


def _dst1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I of ``x`` along the last axis, written to ``out``
    if given (``out`` may be ``x``)."""
    return _pocketfft.dst(x, 1, _LAST_AXIS, _ORTHO, out, 1, None)


@lru_cache(maxsize=16)
def _ar_corrections(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Correction columns S_{n-2} p and S_{n-2} J p of the rank-2 factor U."""
    j = np.arange(1, n - 1, dtype=float)
    p = 1.0 - j / (n - 1)
    q_left = _dst1(p)
    q_right = _dst1(p[::-1])
    q_left.setflags(write=False)
    q_right.setflags(write=False)
    return q_left, q_right


@lru_cache(maxsize=64)
def body_1d(kind: TransformKind, inverse: bool, transpose: bool, n: int):
    """The one body of the 1D apply of ``kind`` with these flags at length n.

    It is a function ``body(v, out)`` of float64 arrays whose last axis has
    length n.  ``out`` holds a copy of ``v``, or is ``v`` itself; the body
    transforms it in place along the last axis and returns it.  The DCT
    type and the anti-reflective corrections are bound here once per
    (kind, flags, n), and the kind and the length are checked here, once.

    ``DST1`` and ``SINE_HAT`` are self-inverse and symmetric, so they ignore
    both flags.  For ``DCT`` forward is synthesis (``C v``) and inverse is
    analysis (``C^T v``); ``transpose`` swaps the two.

    ``ANTI_REFLECTIVE`` applies T, T^{-1}, T^T or T^{-T} by one rule;
    transposed applies give the adjoints of anti-reflective blurs.  The
    only nonzero columns of ``U`` are the cached corrections ``ql`` and
    ``qr`` at positions 1 and n, so ``U`` adds the two border samples,
    times ``ql`` and ``qr``, into the interior, and ``U^T`` adds the
    interior's sums against ``ql`` and ``qr``, one reduction, into them.
    T and T^T add the update, the inverses subtract it; it runs before the
    interior's DST-I in ``T = Shat (I + U)`` and ``T^{-T} = Shat (I -
    U^T)``, and after it in ``T^{-1} = (I - U) Shat`` and ``T^T = (I +
    U^T) Shat``.  T^{-T} sums ``v``'s interior, whose memory layout then
    sets the summation order, as it does in ``scipy.fft``'s reference
    form; for a 1D ``v`` there is one order.
    """
    if not isinstance(kind, TransformKind):
        raise ConfigurationError(f"unknown transform kind: {kind!r}")
    if kind in _BORDERED:
        if n < MIN_BORDERED_N:
            raise ConfigurationError(f"{_BORDERED[kind]} requires length >= "
                                     f"{MIN_BORDERED_N}, got {n}")
    elif n == 0:
        raise ConfigurationError("transform input must be non-empty")
    if kind is TransformKind.DST1:
        return lambda v, out: _dst1(out, out)
    if kind is TransformKind.DCT:
        # pocketfft's type 2 is the analysis C^T v, type 3 the synthesis C v
        dct_type = 2 if inverse != transpose else 3
        return lambda v, out: _pocketfft.dct(out, dct_type, _LAST_AXIS,
                                             _ORTHO, out, 1, None)
    if kind is TransformKind.SINE_HAT:
        def sine_hat(v, out):
            interior = out[..., 1:-1]
            _dst1(interior, interior)
            return out
        return sine_hat

    # the update of the border leaves the interior alone, and that of the
    # interior leaves the border samples alone that it reads
    ql, qr = _ar_corrections(n)
    q2 = np.stack([ql, qr])
    q2.setflags(write=False)
    update = np.subtract if inverse else np.add
    update_first = inverse == transpose
    # a vector's border samples as 0-d arrays, which multiply faster than slices
    vector_ends, batch_ends = ((..., 0), (..., -1)), ((..., 0, None), (..., -1, None))

    def anti_reflective(v, out):
        interior = out[..., 1:-1]
        if not update_first:
            _dst1(interior, interior)
        if transpose:
            sums = v[..., 1:-1] if update_first else interior
            ends = out[..., ::n - 1]
            update(ends, np.add.reduce(sums[..., None, :] * q2, axis=-1), ends)
        else:
            first, last = vector_ends if out.ndim == 1 else batch_ends
            u = out[first] * ql
            u += out[last] * qr
            update(interior, u, interior)
        if update_first:
            _dst1(interior, interior)
        return out
    return anti_reflective


def apply_1d(kind: TransformKind, v, inverse: bool = False,
             transpose: bool = False) -> np.ndarray:
    """Apply the 1D transform ``kind`` along the last axis of ``v``: the
    body :func:`body_1d` on one copy of ``v``, which is left alone; the C
    routines read only that copy, aligned native float64."""
    v = np.asarray(v, dtype=float)
    return body_1d(kind, inverse, transpose, v.shape[-1])(v, v.copy())


#: longest length taken as products with a cached dense matrix, for one
#: vector and for a batch (a 2D tensor apply is a batch of rows)
_VECTOR_MAX_N, _BATCH_MAX_N = 384, 144


def _takes_products(n: int, batched: bool) -> bool:
    """Whether a band form of length n, or a 2D tensor apply of side n, is
    a product with a cached n x n matrix, not FFTs."""
    return n <= (_BATCH_MAX_N if batched else _VECTOR_MAX_N)


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
    variants: the two products ``m @ G @ m.T`` with the cached matrix ``m``
    of the 1D apply where the rule takes products, else the 1D transform
    over all columns (the rows of ``G^T``) and then over all rows.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ConfigurationError(f"tensor transform needs a square grid, got shape {g.shape}")
    n = g.shape[0]
    if _takes_products(n, batched=True):
        m = _matrix_1d(kind, inverse, transpose, n)
        return m @ g @ m.T
    cols = apply_1d(kind, g.T, inverse=inverse, transpose=transpose).T
    return apply_1d(kind, cols, inverse=inverse, transpose=transpose)


@lru_cache(maxsize=16)
def _band_products(kind: TransformKind, d: int, n: int) -> np.ndarray:
    """Read-only ``P_d[i, t] = X[i, t] * X[i + d, t]`` for the cached
    matrix X of the 1D forward apply (C or S): ``band @ P_d`` is a band form."""
    m = _matrix_1d(kind, False, False, n)
    p = m[: n - d] * m[d:]
    p.setflags(write=False)
    return p


def _rfft(arr: np.ndarray) -> np.ndarray:
    """``scipy.fft.rfft(arr, axis=-1)``: pocketfft's r2c with its arguments."""
    return _pocketfft.r2c(arr, _LAST_AXIS, True, 0, None, 1)


def _fft_band_form(kind: TransformKind, band: np.ndarray, d: int,
                   n: int) -> np.ndarray:
    """:func:`band_form` of a float band at offset +-d: the product-to-sum
    identity makes the frequency-sum part one FFT of the band on odd/even
    slots (length 2n or 2(n+1)), the difference part the band total."""
    length = n - d
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


def band_form(kind: TransformKind, band, offset: int, n: int) -> np.ndarray:
    """Contribution of one band to diag(X^T A X), batched over leading axes.

    X is C (DCT) or S (DST-I) of order n, and ``band[i]`` couples i and
    i + |offset|; an empty band gives zeros.  It is ``band @ P_d`` with the
    cached ``P_d = X[:n-d] * X[d:]`` where the rule takes products, else
    one FFT."""
    d = abs(offset)
    band = np.asarray(band, dtype=float)
    length = n - d
    if length <= 0 or band.shape[-1] == 0:
        return np.zeros(band.shape[:-1] + (n,))
    if band.shape[-1] != length:
        raise ConfigurationError(f"band for offset {offset} must have length {length}")
    if _takes_products(n, batched=band.ndim > 1):
        return band @ _band_products(kind, d, n)
    return _fft_band_form(kind, band, d, n)
