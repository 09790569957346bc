"""Dense reference constructions built directly from defining formulas.

These are intentionally independent of the package's fast paths: transforms
come from their entry formulas, blur matrices from the scalar boundary rules
and the convolution sum, diffusion matrices from the stencil definition.
:func:`probe_dense` is a linear map's dense matrix, one unit vector per
column; :func:`dense_of` probes an operator's reference apply with it,
:func:`dense_preconditioner` a factored preconditioner's apply, and
:func:`el_residual` is the optimality residual on the reference applies.
:func:`pcg_loop` and :func:`pbicgstab_loop` are the Krylov solvers with an
allocating update each, the reference for their in-place loops.
:func:`scipy_apply_1d` is each fast 1D transform through the public
``scipy.fft`` calls, the reference for the package's direct pocketfft calls,
and :func:`scipy_band_form` the same for the projections' FFT band forms.
:func:`symbol_2d` is the 2D blur symbol as one sum over the kernel, the
reference for its two-product grid.  :func:`dense_transform` is the dense
matrix of one 1D transform apply, :func:`dense_diagonalized` the
transform-diagonalized apply ``X diag(lam) X^{-1}`` built on it, and
:func:`parity_layout` the map of a spectrum into the parity layout of the
2D product applies.  :func:`generated_sides` is the Hypothesis draw of
sizes that the fast paths are checked against these oracles at, and
``GENERATED_KERNELS`` the kernels drawn with it.
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st
from scipy import fft

from tvdeblur.blur import SymmetricPsf
from tvdeblur.harness import PSF_KINDS, default_half_width, gen_psf
from tvdeblur.krylov import (
    ConfigurationError,
    IndefiniteOperatorError,
    KrylovConfig,
    SolveOutcome,
    SolverBreakdownError,
    SolverDivergenceError,
)
from tvdeblur.transforms import _BATCH_MAX_N, TransformKind
from tvdeblur.tv import DiffusionBc, DiffusionOperator


def primes_and_neighbours(top: int) -> list[int]:
    """Every prime up to ``top`` and its two neighbours, sorted."""
    primes = [p for p in range(2, top + 1)
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    return sorted({m for p in primes for m in (p - 1, p, p + 1)})


def generated_sides(smallest: int):
    """Sizes from ``smallest`` up: the lengths up to 6, the primes up to
    257 and their neighbours (prime-adjacent FFT lengths), and the 2D
    product bound ``_BATCH_MAX_N`` and its neighbours."""
    return st.one_of(
        st.integers(smallest, 6),
        st.sampled_from([m for m in primes_and_neighbours(257)
                         if m >= smallest]),
        st.sampled_from([_BATCH_MAX_N + k for k in (-1, 0, 1)]))


def probe_dense(apply, shape) -> np.ndarray:
    """Dense matrix of the linear map ``apply`` on arrays of ``shape``.

    Column k is the image of the k-th unit vector (row-major order).  Desk
    scale only: at most 4096 unknowns.
    """
    size = int(np.prod(shape))
    if size > 4096:
        raise ConfigurationError(f"dense probing is limited to 4096 unknowns, got {size}")
    out = np.empty((size, size))
    for k in range(size):
        e = np.zeros(size)
        e[k] = 1.0
        out[:, k] = apply(e.reshape(shape)).reshape(-1)
    return out


def dense_of(op) -> np.ndarray:
    """A blur or diffusion operator as a dense matrix (small sizes only):
    a blur operator's ``apply``, and a diffusion operator's flux form on
    its coefficients (:func:`diffusion_apply_padded`), which its 2D apply,
    a five-band kernel, is checked against."""
    apply = op.apply
    if isinstance(op, DiffusionOperator):
        def apply(w):
            return diffusion_apply_padded(w, op.a, op.bc.value)
    return probe_dense(apply, (op.n,) * op.ndim)


def dense_preconditioner(precond) -> np.ndarray:
    """A factored preconditioner's ``apply`` as a dense matrix (small sizes
    only)."""
    return probe_dense(precond.apply, precond.eigenvalues.shape)


def el_residual(u, v, h_op, alpha: float, beta: float,
                bc_l: DiffusionBc = DiffusionBc.ZERO_NEUMANN,
                reblur: bool = False) -> np.ndarray:
    """First-order optimality residual of the smoothed-TV objective on the
    reference blur applies.

    ``g(u) = H*(H u - v) + alpha L(u) u`` with the adjoint replaced by the
    rotated-kernel operator when ``reblur`` is set.
    """
    residual = h_op.apply(u) - v
    back = h_op.reblur_apply(residual) if reblur else h_op.apply_transpose(residual)
    return back + alpha * DiffusionOperator(u, beta, bc_l).apply(u)


def scipy_apply_1d(kind: TransformKind, v, inverse: bool = False,
                   transpose: bool = False) -> np.ndarray:
    """``transforms.apply_1d`` with every transform a public ``scipy.fft``
    call, in the same numpy operations around it: what the package's
    direct calls into pocketfft must reproduce byte for byte."""
    v = np.asarray(v, dtype=float)
    if kind is TransformKind.DST1:
        return fft.dst(v, type=1, norm="ortho")
    if kind is TransformKind.DCT:
        if inverse != transpose:
            return fft.dct(v, type=2, norm="ortho")
        return fft.idct(v, type=2, norm="ortho")
    out = v.copy()
    if kind is TransformKind.SINE_HAT:
        out[..., 1:-1] = fft.dst(v[..., 1:-1], type=1, norm="ortho")
        return out
    p = 1.0 - np.arange(1, v.shape[-1] - 1, dtype=float) / (v.shape[-1] - 1)
    ql = fft.dst(p, type=1, norm="ortho")
    qr = fft.dst(p[::-1], type=1, norm="ortho")
    first, interior, last = v[..., :1], v[..., 1:-1], v[..., -1:]
    if not transpose:
        if not inverse:
            out[..., 1:-1] += first * ql + last * qr
            out[..., 1:-1] = fft.dst(out[..., 1:-1], type=1, norm="ortho")
        else:
            out[..., 1:-1] = fft.dst(interior, type=1, norm="ortho")
            out[..., 1:-1] -= first * ql + last * qr
    elif not inverse:
        out[..., 1:-1] = fft.dst(interior, type=1, norm="ortho")
        out[..., :1] += np.sum(out[..., 1:-1] * ql, axis=-1, keepdims=True)
        out[..., -1:] += np.sum(out[..., 1:-1] * qr, axis=-1, keepdims=True)
    else:
        out[..., :1] -= np.sum(interior * ql, axis=-1, keepdims=True)
        out[..., -1:] -= np.sum(interior * qr, axis=-1, keepdims=True)
        out[..., 1:-1] = fft.dst(interior, type=1, norm="ortho")
    return out


def scipy_band_form(kind: TransformKind, band, offset: int,
                    n: int) -> np.ndarray:
    """``transforms.band_form`` on its FFT path, with the FFT a
    public ``scipy.fft.rfft`` call in the same numpy operations around it."""
    d = abs(offset)
    band = np.asarray(band, dtype=float)
    length = n - d
    total = band.sum(axis=-1, keepdims=True)
    if kind is TransformKind.DCT:
        arr = np.zeros(band.shape[:-1] + (2 * n,))
        arr[..., d + 1: d + 1 + 2 * length: 2] = band
        freq_sum = fft.rfft(arr, axis=-1)[..., :n].real
        t = np.arange(n)
        gamma = t * np.pi / (2 * n)
        rho2 = np.where(t == 0, 1.0, 2.0) / n
        return 0.5 * rho2 * (total * np.cos(2 * d * gamma) + freq_sum)
    arr = np.zeros(band.shape[:-1] + (2 * (n + 1),))
    arr[..., d + 2: d + 2 + 2 * length: 2] = band
    freq_sum = fft.rfft(arr, axis=-1)[..., 1: n + 1].real
    t = np.arange(1, n + 1)
    theta = np.pi / (n + 1)
    return (total * np.cos(d * t * theta) - freq_sum) / (n + 1)


def dense_dst1(n: int) -> np.ndarray:
    # i j reduced modulo the period 2 (n + 1) first, so that the angle
    # stays below 2 pi and its rounding does not grow with n^2
    ij = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
    return np.sqrt(2.0 / (n + 1)) * np.sin(ij * np.pi / (n + 1))


def dense_dct(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    return np.sqrt((2.0 - (j == 1)) / n) * np.cos((2 * i - 1) * (j - 1) * np.pi / (2 * n))


def dense_sinehat(n: int) -> np.ndarray:
    out = np.zeros((n, n))
    out[0, 0] = out[-1, -1] = 1.0
    out[1:-1, 1:-1] = dense_dst1(n - 2)
    return out


def dense_ar(n: int) -> np.ndarray:
    p = 1.0 - np.arange(1, n - 1) / (n - 1)
    out = np.zeros((n, n))
    out[0, 0] = out[-1, -1] = 1.0
    out[1:-1, 0] = p
    out[1:-1, -1] = p[::-1]
    out[1:-1, 1:-1] = dense_dst1(n - 2)
    return out


def dense_transform(kind: TransformKind, n: int, inverse: bool,
                    transpose: bool) -> np.ndarray:
    """Dense matrix of one 1D apply, built from the oracle formulas."""
    if kind is TransformKind.DST1:
        return dense_dst1(n)
    if kind is TransformKind.SINE_HAT:
        return dense_sinehat(n)
    if kind is TransformKind.DCT:
        c = dense_dct(n)
        return c.T if inverse != transpose else c
    t = dense_ar(n)
    t = np.linalg.inv(t) if inverse else t
    return t.T if transpose else t


def dense_diagonalized(kind: TransformKind, lam: np.ndarray, u: np.ndarray,
                       transpose: bool = False) -> np.ndarray:
    """``X diag(lam) X^{-1} u`` (``X^{-T} diag(lam) X^T u`` with
    ``transpose``) with the dense forward ``X`` of :func:`dense_transform`,
    on both axes of a grid ``u``."""
    x = dense_transform(kind, lam.shape[0], False, False)
    left, right = (np.linalg.inv(x).T, x.T) if transpose else \
        (x, np.linalg.inv(x))
    if lam.ndim == 1:
        return left @ (lam * (right @ u))
    return left @ (lam * (right @ u @ right.T)) @ left.T


def parity_layout(kind: TransformKind, n: int) -> np.ndarray:
    """The orthogonal n x n map from a natural spectrum to the parity
    layout, from its definition: the even spectral indices (DCT, DST-I),
    or the border pair and the odd interior indices (bordered kinds),
    then the odd indices, or the border pair and the even interior ones;
    a bordered kind's border pair enters as its sum and difference over
    sqrt 2."""
    p = (n + 1) // 2
    if kind in (TransformKind.SINE_HAT, TransformKind.ANTI_REFLECTIVE):
        order = [0, *range(1, n - 1, 2), n - 1, *range(2, n - 1, 2)]
    else:
        order = [*range(0, n, 2), *range(1, n, 2)]
    r = np.eye(n)[order]
    if kind in (TransformKind.SINE_HAT, TransformKind.ANTI_REFLECTIVE):
        r[0, n - 1] = r[p, 0] = 1.0
        r[p, n - 1] = -1.0
        r[[0, p]] /= math.sqrt(2.0)
    return r


def _band_cells(offset: tuple, shape) -> tuple:
    """Row and column grid indices of every value of the band at ``offset``,
    indexed along each axis by the smaller of the two cells' indices."""
    index = np.indices(shape)
    rows = tuple(i + max(0, -d) for i, d in zip(index, offset))
    cols = tuple(i + max(0, d) for i, d in zip(index, offset))
    return rows + cols


def bands_of(a: np.ndarray, ndim: int = 1) -> dict:
    """Every band of a matrix on the row-major n^ndim grid: ``{offset tuple:
    values}``, keyed and indexed as ``DiffusionOperator.bands`` (in 1D,
    ``np.diagonal``'s order; in 2D, ``(block offset, inner offset)``)."""
    n = round(a.shape[0] ** (1 / ndim))
    grid = a.reshape((n,) * (2 * ndim))
    return {offset: grid[_band_cells(offset, [n - abs(d) for d in offset])]
            for offset in itertools.product(range(1 - n, n), repeat=ndim)}


def dense_of_bands(bands: dict, n: int) -> np.ndarray:
    """The matrix of a band dict on the row-major n^ndim grid, the inverse
    of :func:`bands_of`."""
    ndim = len(next(iter(bands)))
    dense = np.zeros((n,) * (2 * ndim))
    for offset, values in bands.items():
        dense[_band_cells(offset, values.shape)] = values
    return dense.reshape(n ** ndim, n ** ndim)


def sine_representer(lam: np.ndarray) -> np.ndarray:
    """z with first column of ``S diag(lam) S`` equal to z[k] - z[k+2]."""
    s = dense_dst1(len(lam))
    z = s @ (lam * s[:, 0])
    for k in range(len(lam) - 3, -1, -1):
        z[k] += z[k + 2]
    return z


def ar_bordered(lam: np.ndarray) -> np.ndarray:
    """Sine-algebra interior ``S diag(lam) S`` bordered by the first/last
    columns ``2 (suffix sums of z) - z`` that place it in the
    anti-reflective algebra."""
    m = len(lam)
    s = dense_dst1(m)
    z = sine_representer(lam)
    xi = 2.0 * np.cumsum(z[::-1])[::-1] - z
    out = np.zeros((m + 2, m + 2))
    out[1:-1, 1:-1] = s @ np.diag(lam) @ s
    out[:m, 0] = xi
    out[:1:-1, -1] = xi
    return out


def ar_membership_residual(a: np.ndarray) -> float:
    """Off-diagonal mass of T^{-1} A T, normalized by max(1, ||A||_F)."""
    t = dense_ar(a.shape[0])
    sim = np.linalg.solve(t, a @ t)
    off = sim - np.diag(np.diag(sim))
    return float(np.linalg.norm(off) / max(1.0, np.linalg.norm(a)))


def kron_apply_2d(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(X kron X) vec(G) for row-major vec, one Kronecker row block at a time.

    Output row i is the row block ``kron(X[i], X)`` of the n^2 x n^2 product
    applied to vec(G), so memory stays at n^3 entries.
    """
    n = g.shape[0]
    flat = g.reshape(-1)
    return np.stack([np.kron(x[i:i + 1], x) @ flat for i in range(n)])


def symbol_2d(psf, y1, y2) -> np.ndarray:
    """The 2D symbol ``sum_{j,k} h[j,k] cos(j y1) cos(k y2)`` as one
    ``einsum`` over every kernel entry, at each pair of the angles ``y1``
    and ``y2`` broadcast against each other."""
    js = np.arange(-psf.half_width, psf.half_width + 1)
    c1, c2 = (np.cos(np.multiply.outer(np.asarray(y, dtype=float), js))
              for y in (y1, y2))
    return np.einsum("...j,jk,...k->...", c1, psf.coefficients, c2)


def disk_kernel(m: int) -> np.ndarray:
    """Normalized indicator of the disk ``i^2 + j^2 <= m^2``: quadrantally
    symmetric and, for m >= 1, not separable."""
    idx = np.arange(-m, m + 1)
    h = (idx[:, None] ** 2 + idx[None, :] ** 2 <= m * m).astype(float)
    return h / h.sum()


#: the kernels of the generated-side cases: the harness's 1D kernel, its
#: separable 2D Gaussian and a non-separable disk, each for side n
GENERATED_KERNELS = {
    "harness 1D": lambda n: gen_psf(PSF_KINDS[1], default_half_width(n, 1)),
    "harness 2D": lambda n: gen_psf(PSF_KINDS[2], default_half_width(n, 2),
                                    default_half_width(n, 2) / 2.0),
    "disk": lambda n: SymmetricPsf(disk_kernel(2)),
}


def two_gaussians_kernel(m: int) -> np.ndarray:
    """Normalized sum of two Gaussians of widths m/4 and m/2 on
    ``[-m, m]^2``: quadrantally symmetric and not separable."""
    r2 = np.add.outer(np.arange(-m, m + 1) ** 2, np.arange(-m, m + 1) ** 2)
    h = sum(np.exp(-r2 / (2.0 * s * s)) for s in (m / 4.0, m / 2.0))
    return h / h.sum()


def extend_1d(u: np.ndarray, m: int, bc: str) -> np.ndarray:
    """Boundary extension written out from the scalar rules."""
    n = len(u)
    ext = np.zeros(n + 2 * m)
    ext[m:m + n] = u
    for j in range(1, m + 1):
        if bc == "zero":
            left = right = 0.0
        elif bc == "periodic":
            left, right = u[n - j], u[j - 1]
        elif bc == "reflective":
            left, right = u[j - 1], u[n - j]
        elif bc == "anti_reflective":
            left = 2 * u[0] - u[j]
            right = 2 * u[n - 1] - u[n - 1 - j]
        else:
            raise ValueError(bc)
        ext[m - j] = left
        ext[m + n - 1 + j] = right
    return ext


def blur_1d(u: np.ndarray, h: np.ndarray, bc: str) -> np.ndarray:
    """v_i = sum_j h_j u_{i-j} with the extension rules above."""
    m = (len(h) - 1) // 2
    n = len(u)
    ext = extend_1d(u, m, bc)
    out = np.zeros(n)
    for i in range(n):
        for j in range(-m, m + 1):
            out[i] += h[j + m] * ext[m + i - j]
    return out


def dense_blur_1d(h: np.ndarray, bc: str, n: int) -> np.ndarray:
    cols = [blur_1d(e, h, bc) for e in np.eye(n)]
    return np.column_stack(cols)


def extend_2d(u: np.ndarray, m: int, bc: str) -> np.ndarray:
    """Axis-wise extension; corners from composing the two axis rules."""
    ext = np.column_stack([extend_1d(row, m, bc) for row in u]).T
    ext = np.column_stack([extend_1d(col, m, bc) for col in ext.T])
    return ext


def blur_2d(u: np.ndarray, h: np.ndarray, bc: str) -> np.ndarray:
    m = (h.shape[0] - 1) // 2
    n = u.shape[0]
    ext = extend_2d(u, m, bc)
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            block = ext[i:i + 2 * m + 1, k:k + 2 * m + 1]
            out[i, k] = np.sum(h[::-1, ::-1] * block)
    return out


def diffusion_dense_1d(a: np.ndarray, bc: str) -> np.ndarray:
    """Row-by-row tridiagonal assembly from the stencil with ghost rules."""
    n = len(a) - 1
    rows = np.zeros((n, n))
    for i in range(n):
        for target, coeff in (((i, i + 1), a[i + 1]), ((i, i - 1), a[i])):
            _, j = target
            rows[i, i] += coeff
            if 0 <= j < n:
                rows[i, j] -= coeff
            elif bc == "zero_neumann":
                rows[i, i] -= coeff  # ghost equals the border sample
            else:  # anti-reflective ghost: 2 u_border - u_mirror
                rows[i, i] -= 2 * coeff
                mirror = 1 if j < 0 else n - 2
                rows[i, mirror] += coeff
    return rows


_DIFFUSION_PAD = {
    "zero_neumann": {"mode": "symmetric"},
    "anti_reflective": {"mode": "reflect", "reflect_type": "odd"},
}


def diffusion_apply_padded(w: np.ndarray, coefficients, bc: str) -> np.ndarray:
    """Diffusion apply on ``w`` padded by one ghost value per side.

    ``coefficients[k]`` holds the edge coefficients across axis k; ghosts
    come from ``np.pad`` (symmetric for zero Neumann, odd reflection for
    anti-reflective).  The divergence sums the last axis first.
    """
    ext = np.pad(w, 1, **_DIFFUSION_PAD[bc])
    divergence = []
    for axis in reversed(range(w.ndim)):
        # the ghosts along this axis, the grid cells along the other
        lines = ext[tuple(slice(None) if k == axis else slice(1, -1)
                          for k in range(w.ndim))]
        flux = coefficients[axis] * np.diff(lines, axis=axis)
        divergence.append(np.diff(flux, axis=axis))
    return -sum(divergence[1:], divergence[0])


def _loop_dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x.ravel(), y.ravel()))


def _loop_norm(x: np.ndarray) -> float:
    return math.sqrt(_loop_dot(x, x))


def pcg_loop(apply_a, apply_minv, b, x0,
             config: KrylovConfig = KrylovConfig()) -> SolveOutcome:
    """``krylov.pcg`` as it was written before its in-place updates: each
    update allocates its result.  The solver must match it byte for byte."""
    apply_minv = apply_minv or (lambda x: x)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float, copy=True)
    r = b - apply_a(x)
    r0_norm = _loop_norm(r)
    history: list[float] = []
    if r0_norm == 0.0:
        return SolveOutcome(x, 0, np.array(history), True)
    z = apply_minv(r)
    p = z.copy()
    rz = _loop_dot(r, z)
    for k in range(1, config.max_iterations + 1):
        if not np.isfinite(rz):
            raise SolverDivergenceError("pcg", k)
        if rz == 0.0:
            raise SolverBreakdownError("pcg", k, "r . z vanished")
        q = apply_a(p)
        curvature = _loop_dot(p, q)
        if not np.isfinite(curvature):
            raise SolverDivergenceError("pcg", k)
        if curvature <= 0.0:
            raise IndefiniteOperatorError(k, curvature)
        step = rz / curvature
        x += step * p
        r -= step * q
        rel = _loop_norm(r) / r0_norm
        if not np.isfinite(rel):
            raise SolverDivergenceError("pcg", k)
        history.append(rel)
        if rel < config.tol:
            return SolveOutcome(x, k, np.array(history), True)
        z = apply_minv(r)
        rz_next = _loop_dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return SolveOutcome(x, config.max_iterations, np.array(history), False)


def pbicgstab_loop(apply_a, apply_minv, b, x0,
                   config: KrylovConfig = KrylovConfig()) -> SolveOutcome:
    """``krylov.pbicgstab`` as it was written before its in-place updates:
    each update allocates its result.  The solver must match it byte for
    byte."""
    apply_minv = apply_minv or (lambda x: x)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float, copy=True)
    r = b - apply_a(x)
    r0_norm = _loop_norm(r)
    history: list[float] = []
    if r0_norm == 0.0:
        return SolveOutcome(x, 0, np.array(history), True)
    r_shadow = r.copy()
    rho = 1.0
    alpha = 1.0
    omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    for k in range(1, config.max_iterations + 1):
        rho_next = _loop_dot(r_shadow, r)
        if abs(rho_next) < 1e-30 * r0_norm * r0_norm:
            raise SolverBreakdownError("pbicgstab", k, "rho vanished")
        beta = (rho_next / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = apply_minv(p)
        v = apply_a(p_hat)
        denom = _loop_dot(r_shadow, v)
        if abs(denom) < 1e-30 * r0_norm * r0_norm:
            raise SolverBreakdownError("pbicgstab", k, "shadow angle vanished")
        alpha = rho_next / denom
        s = r - alpha * v
        rel = _loop_norm(s) / r0_norm
        if not np.isfinite(rel):
            raise SolverDivergenceError("pbicgstab", k)
        if rel < config.tol:
            x += alpha * p_hat
            history.append(rel)
            return SolveOutcome(x, k, np.array(history), True)
        s_hat = apply_minv(s)
        t = apply_a(s_hat)
        tt = _loop_dot(t, t)
        if tt == 0.0:
            raise SolverBreakdownError("pbicgstab", k,
                                       "stabilizer direction vanished")
        omega = _loop_dot(t, s) / tt
        if abs(omega) < 1e-300:
            raise SolverBreakdownError("pbicgstab", k, "omega vanished")
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rel = _loop_norm(r) / r0_norm
        if not np.isfinite(rel):
            raise SolverDivergenceError("pbicgstab", k)
        history.append(rel)
        if rel < config.tol:
            return SolveOutcome(x, k, np.array(history), True)
        rho = rho_next
    return SolveOutcome(x, config.max_iterations, np.array(history), False)
