"""Matrix-free blur operators from symmetric convolution kernels.

A blurred signal is the convolution of the unknown signal with a normalized,
symmetric point-spread function (PSF).  Values of the signal outside the
field of view are supplied by one of four boundary extensions:

* ``ZERO_DIRICHLET``  -- outside data is zero (Toeplitz operator),
* ``PERIODIC``        -- wrap-around (circulant),
* ``REFLECTIVE``      -- mirror about the edge sample, ``u[-j] = u[j-1]``
                         (Toeplitz + Hankel; diagonalized by the cosine
                         transform for symmetric PSFs),
* ``ANTI_REFLECTIVE`` -- point reflection through the boundary value,
                         ``u[-j] = 2 u[0] - u[j]`` on each axis, corners via
                         the composed bilinear rule (Toeplitz + Hankel +
                         rank-2 column correction; diagonalized by the
                         anti-reflective transform).

Reference semantics for every extension is pad / convolve / crop, with
the convolution computed by :func:`convolve_valid` in plain numpy; the
fast path, for the extensions in ``FAST_TRANSFORMS``, is one
:func:`diagonalized` apply and must agree with the reference to rounding.
:func:`diagonalized` binds the transform bodies and the eigenvalues once;
its 1D apply runs analysis, eigenvalue scaling and synthesis in place on
the array it is given.  The public applies (``apply``, ``apply_fast``,
:func:`diagonalized_apply`, ...) never write into their argument: a fast
one runs on a copy (:func:`scratch`).

A separable 2D kernel ``h = a b^T`` (:meth:`SymmetricPsf.factors`) blurs
under every extension as the Kronecker product ``H W = H_a W H_b^T`` of
its two 1D blurs, each a dense n x n matrix
(:meth:`StructuredBlurOperator.matrix`).  ``pipeline.StepSystem`` builds
its 2D data term from them; every other kernel takes the fast applies
under the fast extensions and the reference applies under zero and
periodic extension.
"""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# apply_1d stays importable here for bench/spans.py
from .transforms import (  # noqa: F401
    TransformKind,
    apply_1d,
    body_1d,
    tensor_apply_2d,
)


class BoundaryCondition(Enum):
    ZERO_DIRICHLET = "zero"
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"
    ANTI_REFLECTIVE = "anti_reflective"


class UnsupportedBoundaryConditionError(ValueError):
    """Raised when an operation needs a transform-diagonalizable extension."""


_PAD_MODES = {
    BoundaryCondition.ZERO_DIRICHLET: {"mode": "constant"},
    BoundaryCondition.PERIODIC: {"mode": "wrap"},
    BoundaryCondition.REFLECTIVE: {"mode": "symmetric"},
    BoundaryCondition.ANTI_REFLECTIVE: {"mode": "reflect", "reflect_type": "odd"},
}


#: blur BC -> the transform diagonalizing the blur of a symmetric PSF
FAST_TRANSFORMS = {
    BoundaryCondition.REFLECTIVE: TransformKind.DCT,
    BoundaryCondition.ANTI_REFLECTIVE: TransformKind.ANTI_REFLECTIVE,
}


def diagonalized(kind: TransformKind, lam: np.ndarray,
                 transpose: bool = False):
    """``X diag(lam) X^{-1}`` (``X^{-T} diag(lam) X^T`` with ``transpose``)
    for transform ``kind``: the apply of every fast blur and preconditioner,
    as a function of a float64 array that it may overwrite.

    For 1D ``lam`` the analysis, the scaling by ``lam`` and the synthesis
    run in place on that array, with the transform bodies bound here once.
    For a 2D ``lam`` they are the tensor transforms, which allocate and
    only read the array.  :func:`scratch` gives the argument that leaves a
    caller's array alone.
    """
    if lam.ndim == 2:
        if transpose:
            return lambda g: tensor_apply_2d(
                kind, lam * tensor_apply_2d(kind, g, transpose=True),
                inverse=True, transpose=True)
        return lambda g: tensor_apply_2d(
            kind, lam * tensor_apply_2d(kind, g, inverse=True))
    n = lam.shape[0]
    analysis = body_1d(kind, not transpose, transpose, n)
    synthesis = body_1d(kind, transpose, transpose, n)

    def in_place(u):
        analysis(u, u)
        u *= lam
        return synthesis(u, u)
    return in_place


def scratch(u: np.ndarray) -> np.ndarray:
    """The argument for an apply of :func:`diagonalized` that leaves the
    float64 array ``u`` alone: a copy of a vector, which the apply
    transforms in place, and a grid as it is, which it only reads."""
    return u.copy() if u.ndim == 1 else u


def diagonalized_apply(kind: TransformKind, lam: np.ndarray, u: np.ndarray,
                       transpose: bool = False) -> np.ndarray:
    """One apply of :func:`diagonalized` to ``u``, which is left alone."""
    u = np.asarray(u, dtype=float)
    return diagonalized(kind, lam, transpose)(scratch(u))


class SymmetricPsf:
    """Normalized symmetric convolution kernel with half-width m.

    1D kernels hold coefficients ``h[-m..m]`` (length 2m+1) with
    ``h[j] == h[-j]``; 2D kernels are (2m+1)x(2m+1) and quadrantally
    symmetric.  Coefficients are renormalized to unit sum (with a warning)
    when they arrive more than 1e-12 away from it.
    """

    def __init__(self, coefficients) -> None:
        h = np.array(coefficients, dtype=float)  # a copy: frozen below
        if h.ndim not in (1, 2):
            raise ValueError("PSF must be 1D or 2D")
        if h.ndim == 2 and h.shape[0] != h.shape[1]:
            raise ValueError(f"2D PSF must be square, got {h.shape}")
        if h.shape[0] % 2 != 1:
            raise ValueError(f"PSF needs odd length (2m+1), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("PSF coefficients must be finite")
        scale = np.max(np.abs(h)) or 1.0
        if h.ndim == 1:
            symmetric = np.allclose(h, h[::-1], rtol=0.0, atol=1e-13 * scale)
        else:
            symmetric = (
                np.allclose(h, h[::-1, :], rtol=0.0, atol=1e-13 * scale)
                and np.allclose(h, h[:, ::-1], rtol=0.0, atol=1e-13 * scale)
            )
        if not symmetric:
            raise ValueError("PSF must be symmetric (quadrantally symmetric in 2D)")
        total = h.sum()
        if total <= 0:
            raise ValueError("PSF must have positive sum")
        if abs(total - 1.0) > 1e-12:
            warnings.warn(
                f"PSF sum {total!r} differs from 1; renormalizing", stacklevel=2
            )
            h = h / total
        self.coefficients = h
        self.coefficients.setflags(write=False)

    @property
    def ndim(self) -> int:
        return self.coefficients.ndim

    @property
    def half_width(self) -> int:
        return (self.coefficients.shape[0] - 1) // 2

    def factors(self) -> tuple[SymmetricPsf, SymmetricPsf] | None:
        """The 1D kernels ``(a, b)`` of a separable 2D kernel, ``h = a b^T``,
        or None (a 1D or non-separable kernel).

        ``a = h.sum(axis=1)`` blurs along axis 0 and ``b = h.sum(axis=0)``
        along axis 1, each averaged with its mirror image, which leaves an
        exactly symmetric kernel's sums unchanged.  They are accepted when
        ``outer(a, b)`` matches ``h`` within the symmetry check's
        ``1e-13 max|h|``.
        """
        h = self.coefficients
        if h.ndim != 2:
            return None
        a, b = h.sum(axis=1), h.sum(axis=0)
        a, b = (a + a[::-1]) / 2, (b + b[::-1]) / 2
        scale = np.max(np.abs(h)) or 1.0
        if not np.allclose(h, np.outer(a, b), rtol=0.0, atol=1e-13 * scale):
            return None
        return SymmetricPsf(a), SymmetricPsf(b)

    def __repr__(self) -> str:
        return f"SymmetricPsf(ndim={self.ndim}, half_width={self.half_width})"


def save_psf(psf: SymmetricPsf, path) -> None:
    """Write a PSF as plain text: first line m, then coefficients row-major."""
    h = psf.coefficients
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{psf.half_width}\n")
        if h.ndim == 1:
            for value in h:
                fh.write(f"{float(value)!r}\n")
        else:
            for row in h:
                fh.write(" ".join(repr(float(value)) for value in row) + "\n")


def symbol_eval(psf: SymmetricPsf, y):
    """Evaluate the PSF symbol: the trigonometric polynomial whose Fourier
    coefficients are the kernel entries.

    By symmetry the value is real: ``h[0] + 2 sum_j h[j] cos(j y)`` in 1D,
    and the quadrantal analog ``sum_{j,k} h[j,k] cos(j y1) cos(k y2)`` in 2D
    (pass ``y`` as an ``(y1, y2)`` pair).  A normalized kernel gives 1 at
    ``y = 0``.
    """
    h = psf.coefficients
    m = psf.half_width
    if psf.ndim == 1:
        y = np.asarray(y, dtype=float)
        js = np.arange(1, m + 1)
        val = h[m] + 2.0 * np.cos(np.multiply.outer(y, js)) @ h[m + 1:]
        return val if y.ndim else float(val)
    y1, y2 = y
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    js = np.arange(-m, m + 1)
    c1 = np.cos(np.multiply.outer(y1, js))
    c2 = np.cos(np.multiply.outer(y2, js))
    val = np.einsum("...j,jk,...k->...", c1, h, c2)
    return val if val.ndim else float(val)


def pad_extend(u: np.ndarray, m: int, bc: BoundaryCondition) -> np.ndarray:
    """Extend ``u`` by ``m`` samples on every side per the boundary rule."""
    if m == 0:
        return np.asarray(u, dtype=float)
    return np.pad(np.asarray(u, dtype=float), m, **_PAD_MODES[bc])


def convolve_valid(ext: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Valid convolution of ``ext`` with the kernel ``h`` of the same ndim.

    Each output sample is the kernel, flipped, against one window of
    ``ext``; in 2D the windows are a strided view, so nothing is copied.
    """
    if h.ndim == 1:
        return np.convolve(ext, h, mode="valid")
    return np.einsum("ijkl,kl->ij", sliding_window_view(ext, h.shape),
                     h[::-1, ::-1])


def _fold_axis0(w: np.ndarray, m: int, bc: BoundaryCondition) -> np.ndarray:
    """Adjoint of :func:`pad_extend` along the leading axis."""
    if m == 0:
        return w.copy()
    core = w[m:-m].copy()
    left, right = w[:m], w[m + core.shape[0]:]
    if bc is BoundaryCondition.ZERO_DIRICHLET:
        return core
    if bc is BoundaryCondition.PERIODIC:
        core[-m:] += left
        core[:m] += right
        return core
    if bc is BoundaryCondition.REFLECTIVE:
        core[:m] += left[::-1]
        core[-m:] += right[::-1]
        return core
    core[0] += 2.0 * left.sum(axis=0)
    core[1:m + 1] -= left[::-1]
    core[-1] += 2.0 * right.sum(axis=0)
    core[-m - 1:-1] -= right[::-1]
    return core


def _fold_axis(w: np.ndarray, m: int, bc: BoundaryCondition, axis: int) -> np.ndarray:
    return np.moveaxis(_fold_axis0(np.moveaxis(w, axis, 0), m, bc), 0, axis)


class StructuredBlurOperator:
    """Matrix-free blur under a chosen boundary extension.

    ``apply`` is the pad/convolve/crop reference; ``apply_fast`` is one
    :func:`diagonalized` apply in the transform ``FAST_TRANSFORMS`` gives
    the extension, bound once in ``fast_applies``, whose applies the
    restore's data term runs in place.  ``apply_transpose`` is the exact
    algebraic transpose (full-convolve then fold the margins back) and
    ``apply_transpose_fast`` its diagonalized form; the anti-reflective
    operator is not symmetric.
    ``reblur_apply`` is the operator built from the 180-degree-rotated
    kernel; for the symmetric kernels handled here it coincides with
    ``apply``.  ``apply_transpose`` and ``reblur_apply`` are reference
    applies that the fast path is checked against; no restoration calls
    them.

    ``matrix`` is a 1D operator's dense n x n matrix, one axis factor of
    the Kronecker blur of a separable 2D kernel.

    Operators are immutable after construction and safe for concurrent
    applies.
    """

    def __init__(self, psf: SymmetricPsf, bc: BoundaryCondition, n: int) -> None:
        if psf.half_width >= n:
            raise ValueError(
                f"PSF half-width {psf.half_width} must be below size {n}"
            )
        self.psf = psf
        self.bc = bc
        self.n = int(n)
        self.ndim = psf.ndim
        self._eigenvalues: np.ndarray | None = None
        self._fast_applies: tuple | None = None

    # -- reference semantics -------------------------------------------------

    def apply(self, u) -> np.ndarray:
        u = self._check_shape(u)
        m = self.psf.half_width
        if m == 0:
            return u.copy()
        return convolve_valid(pad_extend(u, m, self.bc), self.psf.coefficients)

    def apply_transpose(self, u) -> np.ndarray:
        u = self._check_shape(u)
        m = self.psf.half_width
        if m == 0:
            return self.apply(u)
        # the full convolution is the valid one of u zero-padded by 2m
        full = convolve_valid(np.pad(u, 2 * m), self.psf.coefficients)
        if self.ndim == 1:
            return _fold_axis0(full, m, self.bc)
        folded = _fold_axis(full, m, self.bc, axis=0)
        return _fold_axis(folded, m, self.bc, axis=1)

    # ``H'``: blur operator of the kernel rotated by 180 degrees, which for a
    # symmetric kernel is the kernel itself.
    reblur_apply = apply

    # -- transform-diagonalized fast path ------------------------------------

    @property
    def transform(self) -> TransformKind:
        try:
            return FAST_TRANSFORMS[self.bc]
        except KeyError:
            raise UnsupportedBoundaryConditionError(
                f"no fast transform for boundary condition {self.bc.value!r}"
            ) from None

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the operator in its transform basis: symbol
        samples at ``j pi / n`` (DCT) or at ``j pi / (n-1)``, j < n-1, and 0
        (anti-reflective); in 2D on the n-by-n tensor grid of those angles.
        """
        if self._eigenvalues is None:
            n = self.n
            if self.transform is TransformKind.DCT:
                y = np.arange(n) * np.pi / n
            else:
                y = np.concatenate([np.arange(n - 1) * np.pi / (n - 1), [0.0]])
            if self.ndim == 1:
                lam = symbol_eval(self.psf, y)
            else:
                lam = symbol_eval(self.psf, (y[:, None], y[None, :]))
            lam.setflags(write=False)
            self._eigenvalues = lam
        return self._eigenvalues

    def fast_applies(self) -> tuple:
        """``(H, H^T)`` as :func:`diagonalized` applies, functions of a
        float64 array of the operator's shape that they may overwrite
        (in 1D they run in place on it).  Bound on first use and kept."""
        if self._fast_applies is None:
            kind, lam = self.transform, self.eigenvalues()
            self._fast_applies = (diagonalized(kind, lam),
                                  diagonalized(kind, lam, transpose=True))
        return self._fast_applies

    def apply_fast(self, u) -> np.ndarray:
        """Diagonalized apply: analysis, eigenvalue scaling, synthesis."""
        return self.fast_applies()[0](scratch(self._check_shape(u)))

    def apply_transpose_fast(self, u) -> np.ndarray:
        return self.fast_applies()[1](scratch(self._check_shape(u)))

    def matrix(self) -> np.ndarray:
        """Dense n x n matrix of a 1D operator: the reference apply run on
        all columns of the identity at once, extended along axis 0 and
        convolved with the kernel."""
        if self.ndim != 1:
            raise ValueError("matrix() needs a 1D operator")
        m = self.psf.half_width
        ext = np.pad(np.eye(self.n), ((m, m), (0, 0)), **_PAD_MODES[self.bc])
        windows = sliding_window_view(ext, 2 * m + 1, axis=0)
        return windows @ self.psf.coefficients[::-1]

    # -- helpers --------------------------------------------------------------

    def _check_shape(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        expected = (self.n,) if self.ndim == 1 else (self.n, self.n)
        if u.shape != expected:
            raise ValueError(f"expected shape {expected}, got {u.shape}")
        return u
