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
bodies byte for byte against them.  2D tensor applies on grids with
n <= 144 are two products with the cached dense n x n matrix of the 1D
apply, O(n^3); larger grids take the 1D transform along each axis,
O(n^2 log n).  Transform data cached per size is read-only, and a body
writes only the array it is given, so transform applications are safe to
share across threads.
"""

from __future__ import annotations

import importlib.util
import os
from enum import Enum
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

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


def _float_input(v) -> np.ndarray:
    """``v`` as float64 in native byte order and aligned memory, as the C
    routines need it (copied only if it is not already)."""
    v = np.asarray(v, dtype=float)
    return v if v.flags.aligned else v.copy()


# pocketfft's arguments as scipy.fft passes them for norm="ortho" on the
# last axis: norm code 1, one worker, no orthogonalize override
_LAST_AXIS = (-1,)
_ORTHO = 1


def _dst1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I of ``x`` along the last axis, written to ``out``
    if given (``out`` may be ``x``)."""
    return _pocketfft.dst(x, 1, _LAST_AXIS, _ORTHO, out, 1, None)


def _dst1_in_place(out: np.ndarray) -> np.ndarray:
    return _dst1(out, out=out)


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
    transforms it in place along the last axis and returns it.  Only the
    sums of ``T^{-T}`` read ``v``, whose memory layout then sets their
    order, as it does in ``scipy.fft``'s reference form; for a 1D ``v``
    there is one order.  The DCT type and the anti-reflective corrections
    are bound here once per (kind, flags, n), and the kind and the length
    are checked here, once.

    ``DST1`` and ``SINE_HAT`` are self-inverse and symmetric, so they ignore
    both flags.  For ``DCT`` forward is synthesis (``C v``) and inverse is
    analysis (``C^T v``); ``transpose`` swaps the two.  ``ANTI_REFLECTIVE``
    applies T, T^{-1}, T^T or T^{-T} through ``T = Shat (I + U)``, where the
    only nonzero columns of ``U`` are the cached corrections at positions 1
    and n; transposed applies give the adjoints of anti-reflective blurs.
    """
    if not isinstance(kind, TransformKind):
        raise ValueError(f"unknown transform kind: {kind!r}")
    if kind in _BORDERED:
        if n < MIN_BORDERED_N:
            raise ValueError(f"{_BORDERED[kind]} requires length >= "
                             f"{MIN_BORDERED_N}, got {n}")
    elif n == 0:
        raise ValueError("transform input must be non-empty")
    if kind is TransformKind.DST1:
        return lambda v, out: _dst1_in_place(out)
    if kind is TransformKind.DCT:
        # pocketfft's type 2 is the analysis C^T v, type 3 the synthesis C v
        dct_type = 2 if inverse != transpose else 3
        return lambda v, out: _pocketfft.dct(out, dct_type, _LAST_AXIS,
                                             _ORTHO, out, 1, None)

    # the bordered kinds run the DST-I in place on out's interior; border
    # updates leave the interior alone, and interior updates leave the
    # border samples alone that the corrections read
    if kind is TransformKind.SINE_HAT:
        def sine_hat(v, out):
            _dst1_in_place(out[..., 1:-1])
            return out
        return sine_hat
    ql, qr = _ar_corrections(n)

    def corrections(out):
        """``U v``'s interior: first * ql + last * qr."""
        u = out[..., :1] * ql
        u += out[..., -1:] * qr
        return u

    def border_sums(interior):
        """``U^T`` on the interior: its sums against ql and qr."""
        return (np.add.reduce(interior * ql, axis=-1, keepdims=True),
                np.add.reduce(interior * qr, axis=-1, keepdims=True))

    if not transpose and not inverse:
        def forward(v, out):
            # T v = Shat (v + U v)
            interior = out[..., 1:-1]
            interior += corrections(out)
            _dst1_in_place(interior)
            return out
        return forward
    if not transpose:
        def inverse_(v, out):
            # T^{-1} v = (I - U) Shat v
            interior = _dst1_in_place(out[..., 1:-1])
            interior -= corrections(out)
            return out
        return inverse_
    if not inverse:
        def transpose_(v, out):
            # T^T v = (I + U^T) Shat v
            left, right = border_sums(_dst1_in_place(out[..., 1:-1]))
            out[..., :1] += left
            out[..., -1:] += right
            return out
        return transpose_

    def inverse_transpose(v, out):
        # T^{-T} v = Shat (I - U^T) v
        left, right = border_sums(v[..., 1:-1])
        out[..., :1] -= left
        out[..., -1:] -= right
        _dst1_in_place(out[..., 1:-1])
        return out
    return inverse_transpose


def apply_1d(kind: TransformKind, v, inverse: bool = False,
             transpose: bool = False) -> np.ndarray:
    """Apply the 1D transform ``kind`` along the last axis of ``v``: the
    body :func:`body_1d` on one copy of ``v``, which is left alone."""
    v = _float_input(v)
    return body_1d(kind, inverse, transpose, v.shape[-1])(v, v.copy())


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
