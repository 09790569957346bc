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
the convolution computed by :func:`convolve_valid` in plain numpy; a
separable 2D kernel convolves by its two axis factors, found by the one
rule that :meth:`SymmetricPsf.factors` applies too.  Along an axis the
blur is ``C E``, the valid convolution ``C`` after ``E``, the (n+2m) x n
matrix of :func:`pad_extend`; the reference transpose is ``E^T C^T``, with
``C^T`` the full convolution of a symmetric kernel.  The fast path, for
the extensions in ``FAST_TRANSFORMS``, is one ``transforms.diagonalized``
apply, bound once, and must agree with the reference to rounding.
No apply here, reference or fast, 1D or 2D, writes into its argument.

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

from .krylov import ConfigurationError
# apply_1d and tensor_apply_2d stay importable here for bench/spans.py
from .transforms import (  # noqa: F401
    TransformKind,
    apply_1d,
    diagonalized,
    tensor_apply_2d,
)


class BoundaryCondition(Enum):
    ZERO_DIRICHLET = "zero"
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"
    ANTI_REFLECTIVE = "anti_reflective"


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
            raise ConfigurationError("PSF must be 1D or 2D")
        if h.ndim == 2 and h.shape[0] != h.shape[1]:
            raise ConfigurationError(f"2D PSF must be square, got {h.shape}")
        if h.shape[0] % 2 != 1:
            raise ConfigurationError(f"PSF needs odd length (2m+1), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ConfigurationError("PSF coefficients must be finite")
        scale = np.max(np.abs(h)) or 1.0
        if h.ndim == 1:
            symmetric = np.allclose(h, h[::-1], rtol=0.0, atol=1e-13 * scale)
        else:
            symmetric = (
                np.allclose(h, h[::-1, :], rtol=0.0, atol=1e-13 * scale)
                and np.allclose(h, h[:, ::-1], rtol=0.0, atol=1e-13 * scale)
            )
        if not symmetric:
            raise ConfigurationError("PSF must be symmetric (quadrantally symmetric in 2D)")
        total = h.sum()
        if total <= 0:
            raise ConfigurationError("PSF must have positive sum")
        if abs(total - 1.0) > 1e-12:
            warnings.warn(
                f"PSF sum {float(total)!r} differs from 1; renormalizing", stacklevel=2
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
        or None (a 1D or non-separable kernel): the axis factors of
        :func:`_axis_factors`, the one separability rule, which
        :func:`convolve_valid` applies too.
        """
        factors = _axis_factors(self.coefficients) if self.ndim == 2 else None
        if factors is None:
            return None
        return SymmetricPsf(factors[0]), SymmetricPsf(factors[1])

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
    at each angle of ``y``, and the quadrantal analog
    ``sum_{j,k} h[j,k] cos(j y1) cos(k y2)`` in 2D, for ``y`` an
    ``(y1, y2)`` pair, on the grid ``y1 x y2``: vectors of n1 and n2 angles
    give an n1-by-n2 array, two scalars a float.  The 2D grid is two
    products, ``c1 @ h @ c2.T``.  A normalized kernel gives 1 at ``y = 0``.
    """
    h = psf.coefficients
    m = psf.half_width
    if psf.ndim == 1:
        y = np.asarray(y, dtype=float)
        js = np.arange(1, m + 1)
        val = h[m] + 2.0 * np.cos(np.multiply.outer(y, js)) @ h[m + 1:]
        return val if y.ndim else float(val)
    js = np.arange(-m, m + 1)
    c1, c2 = (np.cos(np.multiply.outer(np.asarray(angles, dtype=float), js))
              for angles in y)
    val = c1 @ h @ c2.T
    return val if val.ndim else float(val)


def pad_extend(u: np.ndarray, m: int, bc: BoundaryCondition) -> np.ndarray:
    """Extend ``u`` by ``m`` samples on every side per the boundary rule."""
    return np.pad(np.asarray(u, dtype=float), m, **_PAD_MODES[bc])


def _extension_matrix(n: int, m: int, bc: BoundaryCondition) -> np.ndarray:
    """``E``, the (n+2m) x n matrix of :func:`pad_extend` along one axis."""
    return np.pad(np.eye(n), ((m, m), (0, 0)), **_PAD_MODES[bc])


def _axis_factors(h: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The axis kernels ``(a, b)`` of a 2D kernel ``h = a b^T``, or None.

    ``a = h.sum(axis=1)`` acts along axis 0 and ``b = h.sum(axis=0)`` along
    axis 1, each averaged with its mirror image, which leaves an exactly
    symmetric kernel's sums unchanged.  They are accepted when
    ``outer(a, b)`` matches ``h`` within the symmetry check's
    ``1e-13 max|h|``, which a separable kernel of unit sum passes.
    """
    a, b = h.sum(axis=1), h.sum(axis=0)
    a, b = (a + a[::-1]) / 2, (b + b[::-1]) / 2
    scale = np.max(np.abs(h)) or 1.0
    if not np.allclose(h, np.outer(a, b), rtol=0.0, atol=1e-13 * scale):
        return None
    return a, b


def convolve_valid(ext: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Valid convolution of ``ext`` with the kernel ``h`` of the same ndim.

    Each output sample is the kernel, flipped, against one window of
    ``ext``; in 2D the windows are a strided view, so nothing is copied.
    A 2D kernel that :func:`_axis_factors` splits as ``h = a b^T`` convolves
    by its axis factors, one 1D valid convolution along axis 0 by ``a`` and
    one along axis 1 by ``b``: (2m+1) multiply-adds per sample and axis in
    place of (2m+1)^2.  Any other 2D kernel is one ``einsum`` over all
    its taps.
    """
    if h.ndim == 1:
        return np.convolve(ext, h, mode="valid")
    factors = _axis_factors(h)
    if factors is not None:
        a, b = factors
        along_0 = sliding_window_view(ext, a.shape[0], axis=0) @ a[::-1]
        return sliding_window_view(along_0, b.shape[0], axis=1) @ b[::-1]
    return np.einsum("ijkl,kl->ij", sliding_window_view(ext, h.shape),
                     h[::-1, ::-1])


class StructuredBlurOperator:
    """Matrix-free blur under a chosen boundary extension.

    ``apply`` is the pad/convolve/crop reference; ``apply_fast`` is one
    ``transforms.diagonalized`` apply in the transform ``FAST_TRANSFORMS``
    gives the extension, bound once in ``fast_applies``, whose applies the
    restore's data term calls.  ``apply_transpose`` is the exact
    algebraic transpose ``E^T C^T``, with the dense ``E`` that ``matrix``
    builds too: O(n (n+2m)) memory and, in 2D, ``E^T (C^T u) E`` in
    O(n (n+2m)^2) multiply-adds.  ``apply_transpose_fast`` is its
    diagonalized form; the anti-reflective operator is not symmetric.
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
            raise ConfigurationError(
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
        return convolve_valid(pad_extend(u, self.psf.half_width, self.bc),
                              self.psf.coefficients)

    def apply_transpose(self, u) -> np.ndarray:
        u = self._check_shape(u)
        m = self.psf.half_width
        # the full convolution is the valid one of u zero-padded by 2m
        full = convolve_valid(np.pad(u, 2 * m), self.psf.coefficients)
        e = _extension_matrix(self.n, m, self.bc)
        return e.T @ full if self.ndim == 1 else e.T @ full @ e

    # ``H'``: blur operator of the kernel rotated by 180 degrees, which for a
    # symmetric kernel is the kernel itself.
    reblur_apply = apply

    # -- transform-diagonalized fast path ------------------------------------

    @property
    def transform(self) -> TransformKind:
        try:
            return FAST_TRANSFORMS[self.bc]
        except KeyError:
            raise ConfigurationError(
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
            lam = symbol_eval(self.psf, y if self.ndim == 1 else (y, y))
            lam.setflags(write=False)
            self._eigenvalues = lam
        return self._eigenvalues

    def fast_applies(self) -> tuple:
        """``(H, H^T)`` as ``transforms.diagonalized`` applies, functions
        of a float64 array of the operator's shape that they leave alone.
        Bound on first use and kept."""
        if self._fast_applies is None:
            kind, lam = self.transform, self.eigenvalues()
            self._fast_applies = (diagonalized(kind, lam),
                                  diagonalized(kind, lam, transpose=True))
        return self._fast_applies

    def apply_fast(self, u) -> np.ndarray:
        """Diagonalized apply: analysis, eigenvalue scaling, synthesis."""
        return self.fast_applies()[0](self._check_shape(u))

    def apply_transpose_fast(self, u) -> np.ndarray:
        return self.fast_applies()[1](self._check_shape(u))

    def matrix(self) -> np.ndarray:
        """Dense n x n matrix ``C E`` of a 1D operator: the valid
        convolution ``C`` of the extension matrix ``E``, the reference apply
        run on all columns of the identity at once."""
        if self.ndim != 1:
            raise ConfigurationError("matrix() needs a 1D operator")
        m = self.psf.half_width
        windows = sliding_window_view(_extension_matrix(self.n, m, self.bc),
                                      2 * m + 1, axis=0)
        return windows @ self.psf.coefficients[::-1]

    # -- helpers --------------------------------------------------------------

    def _check_shape(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        expected = (self.n,) if self.ndim == 1 else (self.n, self.n)
        if u.shape != expected:
            raise ConfigurationError(f"expected shape {expected}, got {u.shape}")
        return u
