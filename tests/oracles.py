"""Dense reference constructions built directly from defining formulas.

These are intentionally independent of the package's fast paths: transforms
come from their entry formulas, blur matrices from the scalar boundary rules
and the convolution sum, diffusion matrices from the stencil definition.
:func:`dense_of` probes an operator's reference apply column by column,
:func:`dense_preconditioner` a factored preconditioner's apply, and
:func:`el_residual` is the optimality residual on the reference applies.
:func:`scipy_apply_1d` is each fast 1D transform through the public
``scipy.fft`` calls, the reference for the package's direct pocketfft calls.
"""

import numpy as np
from scipy import fft

from tvdeblur.transforms import TransformKind, probe_dense
from tvdeblur.tv import DiffusionBc, DiffusionOperator


def dense_of(op) -> np.ndarray:
    """A blur or diffusion operator's ``apply`` as a dense matrix (small
    sizes only)."""
    return probe_dense(op.apply, (op.n,) * op.ndim)


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


def dense_dst1(n: int) -> np.ndarray:
    ij = np.outer(np.arange(1, n + 1), np.arange(1, n + 1))
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


def bands_of(a: np.ndarray) -> dict:
    """Every diagonal of a square matrix: ``{offset: values}``, with values
    indexed by the smaller of row/column (``np.diagonal``'s order)."""
    n = a.shape[0]
    return {d: np.diagonal(a, d) for d in range(1 - n, n)}


def block_bands_of(a: np.ndarray, n: int) -> dict:
    """Every block band of an n^2 x n^2 matrix of n x n blocks:
    ``{(block offset, inner offset): coefficients[k, i]}``, with k and i
    indexed by the smaller block and inner index."""
    blocks = a.reshape(n, n, n, n).transpose(0, 2, 1, 3)  # [K, L, i, j]
    out = {}
    for do in range(1 - n, n):
        by_block = np.diagonal(blocks, do, axis1=0, axis2=1)  # [i, j, k]
        for di in range(1 - n, n):
            out[(do, di)] = np.diagonal(by_block, di, axis1=0, axis2=1)
    return out


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


def disk_kernel(m: int) -> np.ndarray:
    """Normalized indicator of the disk ``i^2 + j^2 <= m^2``: quadrantally
    symmetric and, for m >= 1, not separable."""
    idx = np.arange(-m, m + 1)
    h = (idx[:, None] ** 2 + idx[None, :] ** 2 <= m * m).astype(float)
    return h / h.sum()


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

    ``coefficients`` is the edge array ``a`` in 1D and ``(a_h, a_v)`` in
    2D; ghosts come from ``np.pad`` (symmetric for zero Neumann, odd
    reflection for anti-reflective).
    """
    ext = np.pad(w, 1, **_DIFFUSION_PAD[bc])
    if w.ndim == 1:
        flux = coefficients * np.diff(ext)
        return -np.diff(flux)
    a_h, a_v = coefficients
    flux_h = a_h * np.diff(ext[1:-1, :], axis=1)
    flux_v = a_v * np.diff(ext[:, 1:-1], axis=0)
    return -(np.diff(flux_h, axis=1) + np.diff(flux_v, axis=0))
