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
and for the 2D tensor applies between products with cached matrices,
whose cost does not depend on how n factors, and FFTs, which form nothing
dense.  Both bounds were measured by scripts/transform_crossover.py.  A
batch (a 2D grid is a batch of rows) takes products up to n = 144: there
the dense products matched or beat the per-axis FFTs for the sine-based
kinds at every n measured (at n = 128 the anti-reflective DST-I is a
length-254 FFT), and the DCT lost up to 27% as a product at smooth n from
120 to 144 and 30-52% above.  One vector takes them up to n = 384: a
vector band form of the DCT or the DST-I at offset 1 took 7-19 us as a
product for n = 201 to 384 against 15-50 us as an FFT, and 47-55 against
23-28 us at n = 512 (one thread).  A cached matrix at n = 384 holds 1.1 MB.

The 2D products run in the parity layout (Cantoni and Butler's
block-diagonalization of a centrosymmetric matrix, Linear Algebra Appl. 13,
1976).  The flip i -> n-1-i maps each basis vector of every kind to plus
or minus itself, except the two border vectors of the bordered kinds, which
it swaps.  So with the samples paired by the butterfly (the sums and the
differences of samples i and n-1-i) and the spectral index in parity order
(:func:`parity_order`; a bordered kind's border pair as its sum and its
difference over sqrt 2), each 1D apply is two half-size blocks, cached by
:func:`_parity_blocks`.  :func:`parity_apply_2d` runs a 2D analysis or
synthesis on them at half the flops of the n x n products, and leaves the
spectrum in the parity layout; :func:`tensor_diagonalized` scales it
there, with the eigenvalues permuted once, and :func:`tensor_apply_2d`
gathers it into natural order.  As the two border eigenvalues of a grid
may differ, :func:`tensor_diagonalized` takes a bordered kind's border
pairs back to their natural values for the scaling
(:func:`_mix_border_pairs`, O(n)).
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


def load_scipy_binding(name: str):
    """The scipy C extension module ``name`` (its full dotted name),
    loaded from its file in scipy's directory.

    Importing it by name would first run the packages above it: for
    pocketfft's binding, ``scipy`` and ``scipy.fft`` (scipy's array-API
    layer, ``scipy.special``, ``numpy.testing``, ``numpy.f2py``), which take
    most of a cold start and which the binding does not need.
    ``find_spec`` of the top-level package locates scipy without running
    it.  The binding keeps its full name, and gives the same bytes whether
    its package is imported before or after it.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    folder = name.split(".")[1:-1]
    for root in roots or ():
        finder = FileFinder(os.path.join(root, *folder),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"cannot find scipy's binding {name} "
                      "(tvdeblur needs scipy)", name=name)


_pocketfft = load_scipy_binding(_BINDING_NAME)


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


def _check_length(kind: TransformKind, n: int) -> None:
    """Reject an unknown kind, and a length the kind cannot take."""
    if not isinstance(kind, TransformKind):
        raise ConfigurationError(f"unknown transform kind: {kind!r}")
    if kind in _BORDERED:
        if n < MIN_BORDERED_N:
            raise ConfigurationError(f"{_BORDERED[kind]} requires length >= "
                                     f"{MIN_BORDERED_N}, got {n}")
    elif n == 0:
        raise ConfigurationError("transform input must be non-empty")


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
    _check_length(kind, n)
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


def _dense_1d(kind: TransformKind, inverse: bool, transpose: bool,
              n: int) -> np.ndarray:
    """Dense n x n matrix of the 1D apply with these flags, built anew."""
    # row i of the batched apply is the image of e_i, i.e. column i of m
    return np.ascontiguousarray(
        apply_1d(kind, np.eye(n), inverse=inverse, transpose=transpose).T)


@lru_cache(maxsize=16)
def _matrix_1d(kind: TransformKind, inverse: bool, transpose: bool,
               n: int) -> np.ndarray:
    """Read-only cached :func:`_dense_1d`."""
    m = _dense_1d(kind, inverse, transpose, n)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=16)
def parity_order(kind: TransformKind, n: int) -> np.ndarray:
    """Read-only natural spectral index of each slot of the parity layout.

    The symmetric half comes first: the even indices of the DCT and the
    DST-I, and for the bordered kinds the border pair, then the odd
    interior indices.  The antisymmetric half follows from slot
    ``ceil(n/2)``: the odd indices, or the border pair and the even
    interior indices.  A bordered kind's slots 0 and ``ceil(n/2)`` hold
    the border pair (natural indices 0 and n-1) as its sum and its
    difference over sqrt 2 (:func:`_mix_border_pairs`).
    """
    _check_length(kind, n)
    if kind in _BORDERED:
        plus, minus = [0, *range(1, n - 1, 2)], [n - 1, *range(2, n - 1, 2)]
    else:
        plus, minus = range(0, n, 2), range(1, n, 2)
    order = np.array([*plus, *minus])
    order.setflags(write=False)
    return order


#: the orthogonal, symmetric 2 x 2 sum and difference over sqrt 2
_MIX = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
_MIX.setflags(write=False)


def _mix_rows(pair: np.ndarray) -> None:
    """Replace the two rows of ``pair`` by their sum and difference over
    sqrt 2, in place."""
    pair[...] = _MIX @ pair


def _mix_border_pairs(y: np.ndarray) -> None:
    """Take the border pair of a bordered kind's n x n grid, on both axes,
    between its natural values and its sum and difference over sqrt 2, in
    place: slots 0 and ``ceil(n/2)`` of each axis (:func:`parity_order`).
    The map is its own inverse, and O(n)."""
    p = (y.shape[0] + 1) // 2
    _mix_rows(y[::p])
    _mix_rows(y[:, ::p].T)


def _synthesizes(inverse: bool, transpose: bool) -> bool:
    """Whether the apply with these flags is a synthesis, ``X`` or
    ``X^{-T}``, which takes a spectrum to samples; ``X^{-1}`` and ``X^T``
    analyze.  (The DST-I and Shat ignore the flags and are exact either
    way.)"""
    return inverse == transpose


@lru_cache(maxsize=16)
def _parity_blocks(kind: TransformKind, inverse: bool, transpose: bool,
                   n: int) -> np.ndarray:
    """Read-only 2 x p x p stack of the two blocks of the 1D apply with
    these flags in the parity layout, p = ceil(n/2): the symmetric block,
    then the antisymmetric one, of order floor(n/2), padded with a zero row
    and column for odd n.  An analysis stores each block transposed, as
    its step multiplies by it from the right.

    With the spectral index in parity order (the border pair mixed) the
    dense matrix of a synthesis pairs row n-1-i with block row i, plus in
    the symmetric columns and minus in the antisymmetric ones; the columns
    of an analysis pair the same way.  So a synthesis is the two block
    products followed by the sums and differences of their rows, and an
    analysis takes the sums and differences of the samples first.
    """
    m = _dense_1d(kind, inverse, transpose, n)
    order = parity_order(kind, n)
    h, p = n // 2, (n + 1) // 2
    if _synthesizes(inverse, transpose):
        m = m[:, order]
        if kind in _BORDERED:
            _mix_rows(m[:, ::p].T)
        plus, minus = m[:p, :p], m[:h, p:]
    else:
        m = m[order]
        if kind in _BORDERED:
            _mix_rows(m[::p])
        plus, minus = m[:p, :p].T, m[p:, :h].T
    blocks = np.zeros((2, p, p))
    blocks[0] = plus
    blocks[1, :h, :h] = minus
    blocks.setflags(write=False)
    return blocks


def _analysis_step(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The analysis along axis 0 of ``x``, transposed: the sums and the
    differences of rows i and n-1-i, then one batched product with the
    transposed blocks."""
    n, k = x.shape
    h, p = n // 2, blocks.shape[1]
    u = np.empty((2, p, k))
    top, bottom = x[:h], x[n - 1:n - 1 - h:-1]
    np.add(top, bottom, out=u[0, :h])
    np.subtract(top, bottom, out=u[1, :h])
    if p > h:  # the middle sample, and the zero pad of the differences
        u[0, h] = x[h]
        u[1, h] = 0.0
    out = np.empty((k, 2 * p))
    np.matmul(u.transpose(0, 2, 1), blocks,
              out=out.reshape(k, 2, p).transpose(1, 0, 2))
    return out[:, :n]


def _synthesis_step(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The synthesis along axis 1 of ``x``, transposed: the two block
    products, then rows i and n-1-i as the sum and the difference of
    their results."""
    k, n = x.shape
    h, p = n // 2, blocks.shape[1]
    plus = blocks[0] @ x[:, :p].T
    minus = blocks[1, :h, :h] @ x[:, p:].T
    out = np.empty((n, k))
    np.add(plus[:h], minus, out=out[:h])
    np.subtract(plus[:h], minus, out=out[n - 1:n - 1 - h:-1])
    out[h:p] = plus[h:p]
    return out


def _square_grid(g) -> np.ndarray:
    """``g`` as a float array, rejected unless it is a square grid."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ConfigurationError(f"tensor transform needs a square grid, got shape {g.shape}")
    return g


def parity_apply_2d(kind: TransformKind, g, inverse: bool = False,
                    transpose: bool = False) -> np.ndarray:
    """Apply the tensor product X (x) X to a square grid in the parity
    layout, with the blocks of :func:`_parity_blocks`.

    An analysis (``X^{-1}``, ``X^T``) takes samples to a spectrum in the
    parity layout on both axes, a synthesis (``X``, ``X^{-T}``) takes
    such a spectrum to samples.  Each axis costs two products with
    half-size blocks and one O(n^2) sum and difference, half the flops of
    a product with the n x n matrix; no index is gathered.
    """
    g = _square_grid(g)
    blocks = _parity_blocks(kind, inverse, transpose, g.shape[0])
    step = _synthesis_step if _synthesizes(inverse, transpose) \
        else _analysis_step
    return step(step(g, blocks), blocks)


def tensor_apply_2d(kind: TransformKind, g, inverse: bool = False,
                    transpose: bool = False) -> np.ndarray:
    """Apply the tensor product X (x) X to a square grid, spectra in
    natural order.

    For a grid G this computes ``X G X^T`` and its inverse/transpose
    variants.  Where the rule takes products it is :func:`parity_apply_2d`
    and one gather of the spectral index (with the border pairs mixed
    back, :func:`_mix_border_pairs`, for a bordered kind); else the 1D
    transform over all columns (the rows of ``G^T``) and then over all
    rows.
    """
    g = _square_grid(g)
    n = g.shape[0]
    if not _takes_products(n, batched=True):
        cols = apply_1d(kind, g.T, inverse=inverse, transpose=transpose).T
        return apply_1d(kind, cols, inverse=inverse, transpose=transpose)
    order = parity_order(kind, n)
    if _synthesizes(inverse, transpose):
        spectrum = g.take(order, 0).take(order, 1)
        if kind in _BORDERED:
            _mix_border_pairs(spectrum)
        return parity_apply_2d(kind, spectrum, inverse, transpose)
    spectrum = parity_apply_2d(kind, g, inverse, transpose)
    if kind in _BORDERED:
        _mix_border_pairs(spectrum)
    natural = np.argsort(order)
    return spectrum.take(natural, 0).take(natural, 1)


def tensor_diagonalized(kind: TransformKind, lam: np.ndarray,
                        transpose: bool = False):
    """``X diag(lam) X^{-1}`` (``X^{-T} diag(lam) X^T`` with ``transpose``)
    on n x n grids, for the n x n eigenvalue grid ``lam`` in natural
    order: a function of a grid that it leaves alone.

    Where the rule takes products it runs in the parity layout: the
    analysis and the synthesis are :func:`parity_apply_2d`, and ``lam`` is
    permuted into the layout here, once.  A bordered kind takes its border
    pairs from their sum and difference back to their natural values
    before the scaling and mixes them again after it
    (:func:`_mix_border_pairs`), so a grid whose two border eigenvalues
    differ, as the bordered sine algebra's do, scales exactly.  Else the
    analysis and the synthesis are :func:`tensor_apply_2d`'s per-axis
    FFTs.
    """
    # (inverse, transpose) of the analysis, X^{-1} or X^T, and of the
    # synthesis, X or X^{-T}
    into, back = (not transpose, transpose), (transpose, transpose)
    n = lam.shape[0]
    if not _takes_products(n, batched=True):
        return lambda g: tensor_apply_2d(
            kind, lam * tensor_apply_2d(kind, g, *into), *back)
    bordered = kind in _BORDERED
    order = parity_order(kind, n)
    lam = lam.take(order, 0).take(order, 1)

    def on_parity(g):
        spectrum = parity_apply_2d(kind, g, *into)
        if bordered:
            _mix_border_pairs(spectrum)
        spectrum *= lam
        if bordered:
            _mix_border_pairs(spectrum)
        return parity_apply_2d(kind, spectrum, *back)
    return on_parity


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
