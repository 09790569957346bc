import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import convolve2d

import oracles
from tvdeblur.blur import (
    BoundaryCondition,
    StructuredBlurOperator,
    SymmetricPsf,
    convolve_valid,
    diagonalized,
    save_psf,
    symbol_eval,
)
from tvdeblur.harness import gen_psf
from tvdeblur.krylov import ConfigurationError
from tvdeblur.precond import assemble_preconditioner
from tvdeblur.transforms import TransformKind, _matrix_1d
from tvdeblur.tv import DiffusionBc, DiffusionOperator

ALL_BCS = list(BoundaryCondition)


def uniform_psf(m):
    """Moving-average kernel fully supported on [-m, m]."""
    return SymmetricPsf(np.full(2 * m + 1, 1.0 / (2 * m + 1)))


# -- SymmetricPsf ------------------------------------------------------------


#: an anisotropic separable kernel, ``outer(a, b)`` with ``a != b``
ANISOTROPIC_A = np.array([0.0, 1.0, 2.0, 1.0, 0.0]) / 4.0
ANISOTROPIC_B = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@pytest.mark.parametrize("a,b", [
    (np.array([1.0, 2.0, 1.0]) / 4.0, np.array([1.0, 2.0, 1.0]) / 4.0),
    (ANISOTROPIC_A, ANISOTROPIC_B),
], ids=["outer", "anisotropic"])
def test_factors_of_an_outer_product(a, b):
    """An outer product gives back its factors, axis 0's first."""
    got_a, got_b = SymmetricPsf(np.outer(a, b)).factors()
    np.testing.assert_allclose(got_a.coefficients, a, rtol=0, atol=1e-16)
    np.testing.assert_allclose(got_b.coefficients, b, rtol=0, atol=1e-16)


@pytest.mark.parametrize("m,sigma", [(2, 1.0), (8, 4.0), (16, 8.0), (32, 16.0)])
def test_factors_of_the_harness_gaussian(m, sigma):
    psf = gen_psf("gaussian", m, sigma)
    a, b = psf.factors()
    np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-15)
    outer = np.outer(a.coefficients, b.coefficients)
    assert np.max(np.abs(outer - psf.coefficients)) <= \
        1e-15 * np.max(psf.coefficients)


@pytest.mark.parametrize("h", [
    oracles.disk_kernel(1), oracles.disk_kernel(4),
    oracles.two_gaussians_kernel(4), oracles.two_gaussians_kernel(16),
], ids=["disk-1", "disk-4", "two-gaussians-4", "two-gaussians-16"])
def test_factors_of_non_separable_kernels_are_none(h):
    assert SymmetricPsf(h).factors() is None


def test_factors_of_a_1d_kernel_are_none():
    assert uniform_psf(2).factors() is None


@pytest.mark.parametrize("offset,separable", [(2e-14, True), (6e-14, False)])
def test_factors_of_a_nearly_symmetric_kernel(offset, separable):
    """A kernel inside the symmetry check's tolerance gives exactly symmetric
    factors or None, never an error: at 6e-14 its raw row sums would fail
    the 1D symmetry check."""
    h = gen_psf("gaussian", 16, 8.0).coefficients.copy()
    h[:16] += offset * h.max()
    factors = SymmetricPsf(h).factors()
    assert (factors is not None) is separable
    for factor in factors or ():
        np.testing.assert_array_equal(factor.coefficients,
                                      factor.coefficients[::-1])


def test_psf_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymmetricPsf([0.2, 0.5, 0.3])
    with pytest.raises(ValueError):
        SymmetricPsf(np.array([[0.1, 0.2], [0.2, 0.5]]))  # even size
    quad = np.full((3, 3), 1 / 9.0)
    quad[0, 0] += 0.5
    quad[0, 0] -= 0.5  # keep symmetric; sanity that this passes
    SymmetricPsf(quad)


def test_psf_renormalizes_with_warning():
    with pytest.warns(UserWarning):
        psf = SymmetricPsf([1.0, 2.0, 1.0])
    assert abs(psf.coefficients.sum() - 1.0) < 1e-15
    with pytest.warns(UserWarning, match=r"^PSF sum 0\.5 differs"):
        SymmetricPsf([1, -1.5, 1])


def test_psf_keeps_caller_array_writeable():
    h = np.array([0.25, 0.5, 0.25])  # float64 summing to 1: nothing to convert
    psf = SymmetricPsf(h)
    assert h.flags.writeable
    assert not psf.coefficients.flags.writeable
    h[0] = 0.0
    np.testing.assert_array_equal(psf.coefficients, [0.25, 0.5, 0.25])


def test_psf_text_format(tmp_path):
    """First line the half-width m, then the coefficients row-major as
    exact float reprs: one per line in 1D, one row per line in 2D."""
    psf = uniform_psf(3)
    path = tmp_path / "psf.txt"
    save_psf(psf, path)
    text = path.read_text(encoding="ascii")
    assert text.splitlines()[0] == "3" and len(text.splitlines()) == 1 + 7
    tokens = text.split()
    np.testing.assert_array_equal([float(t) for t in tokens[1:]],
                                  psf.coefficients)

    psf2 = gen_psf("gaussian", 2, 1.0)
    save_psf(psf2, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "2" and len(lines) == 1 + 5
    rows = [[float(t) for t in line.split()] for line in lines[1:]]
    np.testing.assert_array_equal(rows, psf2.coefficients)


# -- symbol -------------------------------------------------------------------


def test_symbol_at_zero_is_one():
    for psf in (uniform_psf(1), uniform_psf(4), gen_psf("gaussian", 3, 1.2)):
        y = 0.0 if psf.ndim == 1 else (0.0, 0.0)
        assert abs(symbol_eval(psf, y) - 1.0) < 1e-14


def test_symbol_out_of_focus_frozen_values():
    psf = uniform_psf(1)  # coefficients (1/3, 1/3, 1/3)
    assert abs(symbol_eval(psf, np.pi) - (-1.0 / 3.0)) < 1e-14
    assert abs(symbol_eval(psf, np.pi / 2) - (1.0 / 3.0)) < 1e-14


def test_symbol_vectorized_matches_scalar():
    psf = uniform_psf(2)
    ys = np.linspace(0, np.pi, 7)
    vals = symbol_eval(psf, ys)
    for y, v in zip(ys, vals):
        assert abs(symbol_eval(psf, float(y)) - v) < 1e-14


@pytest.mark.parametrize("h", [oracles.disk_kernel(3),
                               oracles.two_gaussians_kernel(8),
                               np.outer(ANISOTROPIC_A, ANISOTROPIC_B)],
                         ids=["disk", "two-gaussians", "anisotropic"])
def test_2d_symbol_grid_matches_the_one_sum_oracle(h, rng):
    """Two products on the grid y1 x y2 give the einsum's values at every
    pair; a scalar angle drops its axis, and two give a float."""
    psf = SymmetricPsf(h)
    y1 = rng.uniform(0, np.pi, 9)
    y2 = rng.uniform(0, np.pi, 7)
    expected = oracles.symbol_2d(psf, y1[:, None], y2[None, :])
    np.testing.assert_allclose(symbol_eval(psf, (y1, y2)), expected,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(symbol_eval(psf, (y1, y2[3])), expected[:, 3],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(symbol_eval(psf, (y1[2], y2)), expected[2],
                               rtol=0, atol=1e-15)
    value = symbol_eval(psf, (float(y1[4]), float(y2[5])))
    assert isinstance(value, float)
    assert abs(value - expected[4, 5]) <= 1e-15


@pytest.mark.parametrize("bc", [BoundaryCondition.REFLECTIVE,
                                BoundaryCondition.ANTI_REFLECTIVE])
def test_2d_eigenvalues_match_the_one_sum_oracle(bc):
    """The harness Gaussian at n=128 (m=16): the eigenvalues on the tensor
    grid of the transform's angles agree with the einsum to rounding."""
    n = 128
    op = StructuredBlurOperator(gen_psf("gaussian", 16, 8.0), bc, n)
    y = np.arange(n) * np.pi / n if bc is BoundaryCondition.REFLECTIVE \
        else np.concatenate([np.arange(n - 1) * np.pi / (n - 1), [0.0]])
    expected = oracles.symbol_2d(op.psf, y[:, None], y[None, :])
    lam = op.eigenvalues()
    assert lam.shape == (n, n) and not lam.flags.writeable
    np.testing.assert_allclose(lam, expected, rtol=0,
                               atol=1e-14 * np.max(np.abs(expected)))


# -- blur apply ---------------------------------------------------------------


@pytest.mark.parametrize("ndim", [1, 2])
def test_identity_psf_is_identity(ndim, rng):
    """The one-tap kernel takes the general pad/convolve path and gives the
    input's bytes back in a new array, forward and transposed."""
    psf = SymmetricPsf(np.ones((1,) * ndim))
    u = rng.standard_normal((10,) * ndim)
    for bc in ALL_BCS:
        op = StructuredBlurOperator(psf, bc, 10)
        for apply in (op.apply, op.apply_transpose):
            got = apply(u)
            assert got.tobytes() == u.tobytes()
            assert got.shape == u.shape and not np.shares_memory(got, u)


def test_constant_preserved_by_mirroring_extensions():
    psf = uniform_psf(2)
    u = np.full(12, 3.7)
    for bc in (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTI_REFLECTIVE):
        op = StructuredBlurOperator(psf, bc, 12)
        np.testing.assert_allclose(op.apply(u), u, atol=1e-14)


def test_zero_dirichlet_constant_frozen():
    # ones through the width-3 average with zero padding: (2/3, 1, 1, 2/3)
    psf = uniform_psf(1)
    op = StructuredBlurOperator(psf, BoundaryCondition.ZERO_DIRICHLET, 4)
    np.testing.assert_allclose(op.apply(np.ones(4)),
                               [2 / 3, 1.0, 1.0, 2 / 3], atol=1e-15)


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("n", [8, 16, 33])
def test_apply_matches_dense_oracle(bc, n, rng):
    psf = uniform_psf(2)
    op = StructuredBlurOperator(psf, bc, n)
    dense = oracles.dense_blur_1d(psf.coefficients, bc.value, n)
    u = rng.standard_normal(n)
    np.testing.assert_allclose(op.apply(u), dense @ u, atol=1e-12)
    np.testing.assert_allclose(op.apply_transpose(u), dense.T @ u, atol=1e-12)
    np.testing.assert_allclose(oracles.dense_of(op), dense, atol=1e-13)


def test_dense_structure_zero_and_periodic():
    psf = uniform_psf(2)
    n = 9
    a_zero = oracles.dense_of(
        StructuredBlurOperator(psf, BoundaryCondition.ZERO_DIRICHLET, n))
    # banded symmetric Toeplitz
    for i in range(n):
        for j in range(n):
            if abs(i - j) > psf.half_width:
                assert a_zero[i, j] == 0.0
            if i + 1 < n and j + 1 < n:
                assert abs(a_zero[i, j] - a_zero[i + 1, j + 1]) < 1e-15
    a_per = oracles.dense_of(StructuredBlurOperator(psf, BoundaryCondition.PERIODIC, n))
    for i in range(1, n):
        np.testing.assert_allclose(a_per[i], np.roll(a_per[0], i), atol=1e-15)


def test_row_sums_are_one():
    psf = uniform_psf(3)
    for bc in (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTI_REFLECTIVE):
        dense = oracles.dense_of(StructuredBlurOperator(psf, bc, 14))
        np.testing.assert_allclose(dense.sum(axis=1), np.ones(14), atol=1e-12)


# -- eigenvalues and fast path -------------------------------------------------


def test_ar_similarity_is_diagonal_and_grid_matches():
    psf = uniform_psf(2)
    n = 8
    a = oracles.dense_of(
        StructuredBlurOperator(psf, BoundaryCondition.ANTI_REFLECTIVE, n))
    t = oracles.dense_ar(n)
    sim = np.linalg.solve(t, a @ t)
    off = sim - np.diag(np.diag(sim))
    assert np.linalg.norm(off) < 1e-8
    op = StructuredBlurOperator(psf, BoundaryCondition.ANTI_REFLECTIVE, n)
    np.testing.assert_allclose(np.diag(sim), op.eigenvalues(), atol=1e-10)
    assert abs(op.eigenvalues()[-1] - 1.0) < 1e-14  # grid ends at angle zero


def test_identity_psf_eigenvalues_are_one():
    psf = SymmetricPsf([1.0])
    for bc in (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTI_REFLECTIVE):
        op = StructuredBlurOperator(psf, bc, 9)
        np.testing.assert_allclose(op.eigenvalues(), np.ones(9), atol=1e-15)


def test_reflective_eigenvalues_match_similarity():
    psf = uniform_psf(1)
    n = 8
    a = oracles.dense_of(StructuredBlurOperator(psf, BoundaryCondition.REFLECTIVE, n))
    c = oracles.dense_dct(n)
    sim = c.T @ a @ c
    assert np.linalg.norm(sim - np.diag(np.diag(sim))) < 1e-12
    op = StructuredBlurOperator(psf, BoundaryCondition.REFLECTIVE, n)
    np.testing.assert_allclose(op.eigenvalues(), np.diag(sim), atol=1e-10)


@pytest.mark.parametrize("bc", [BoundaryCondition.REFLECTIVE,
                                BoundaryCondition.ANTI_REFLECTIVE])
@pytest.mark.parametrize("n", [8, 16, 33])
def test_fast_apply_matches_reference(bc, n, rng):
    psf = uniform_psf(2)
    op = StructuredBlurOperator(psf, bc, n)
    u = rng.standard_normal(n)
    np.testing.assert_allclose(op.apply_fast(u), op.apply(u), atol=1e-10)
    np.testing.assert_allclose(op.apply_transpose_fast(u), op.apply_transpose(u),
                               atol=1e-10)


def test_2d_anti_reflective_corner_rules(rng):
    """Corners follow the four bilinear anti-reflection formulas exactly."""
    from tvdeblur.blur import pad_extend

    n, m = 6, 2
    u = rng.standard_normal((n, n))
    ext = pad_extend(u, m, BoundaryCondition.ANTI_REFLECTIVE)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            # positions (1-i, 1-j) etc. in 1-based interior coordinates
            assert np.isclose(
                ext[m - i, m - j],
                4 * u[0, 0] - 2 * u[0, j] - 2 * u[i, 0] + u[i, j])
            assert np.isclose(
                ext[m - i, m + n - 1 + j],
                4 * u[0, -1] - 2 * u[0, -1 - j] - 2 * u[i, -1] + u[i, -1 - j])
            assert np.isclose(
                ext[m + n - 1 + i, m - j],
                4 * u[-1, 0] - 2 * u[-1, j] - 2 * u[-1 - i, 0] + u[-1 - i, j])
            assert np.isclose(
                ext[m + n - 1 + i, m + n - 1 + j],
                4 * u[-1, -1] - 2 * u[-1, -1 - j] - 2 * u[-1 - i, -1]
                + u[-1 - i, -1 - j])


def test_2d_eigenvalues_diagonalize_dense(rng):
    psf = gen_psf("gaussian", 2, 1.0)
    n = 8
    for bc, kind in ((BoundaryCondition.REFLECTIVE, "dct"),
                     (BoundaryCondition.ANTI_REFLECTIVE, "ar")):
        op = StructuredBlurOperator(psf, bc, n)
        a = oracles.dense_of(op)
        x1 = oracles.dense_dct(n) if kind == "dct" else oracles.dense_ar(n)
        xx = np.kron(x1, x1)
        sim = np.linalg.solve(xx, a @ xx)
        off = sim - np.diag(np.diag(sim))
        assert np.linalg.norm(off) < 1e-8
        np.testing.assert_allclose(np.diag(sim), op.eigenvalues().reshape(-1),
                                   atol=1e-10)


def test_2d_apply_matches_oracle_and_fast_path(rng):
    psf = gen_psf("gaussian", 2, 1.0)
    n = 8
    u = rng.standard_normal((n, n))
    for bc in ALL_BCS:
        op = StructuredBlurOperator(psf, bc, n)
        expected = oracles.blur_2d(u, psf.coefficients, bc.value)
        np.testing.assert_allclose(op.apply(u), expected, atol=1e-12)
        dense = oracles.dense_of(op)
        np.testing.assert_allclose(dense @ u.reshape(-1),
                                   op.apply(u).reshape(-1), atol=1e-12)
        np.testing.assert_allclose(op.apply_transpose(u).reshape(-1),
                                   dense.T @ u.reshape(-1), atol=1e-12)
    for bc in (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTI_REFLECTIVE):
        op = StructuredBlurOperator(psf, bc, n)
        np.testing.assert_allclose(op.apply_fast(u), op.apply(u), atol=1e-10)
        np.testing.assert_allclose(op.apply_transpose_fast(u),
                                   op.apply_transpose(u), atol=1e-10)


def convolution_kernel(kind, m, rng):
    """A (2m+1)^2 kernel for ``convolve_valid`` and the 1D factors of a
    separable one, or None: a random kernel, nonsymmetric so a missing flip
    shows, which takes the ``einsum``; the harness Gaussian; or a symmetric
    ``outer(a, b)`` with ``a != b`` (a triangle along axis 0, a Gaussian
    along axis 1).  The last two take the factor branch.  The factors come
    from the kernels' definitions, not from ``convolve_valid``'s rule: the
    harness Gaussian is the outer product of two normalized 1D Gaussians to
    rounding."""
    if kind == "random":
        return rng.standard_normal((2 * m + 1, 2 * m + 1)), None
    idx = np.arange(-m, m + 1, dtype=float)
    if kind == "gaussian":
        sigma = max(m / 2.0, 1.0)
        g = np.exp(-idx ** 2 / (2.0 * sigma * sigma))
        return gen_psf("gaussian", m, sigma).coefficients, (g / g.sum(),) * 2
    a = m + 1.0 - np.abs(idx)
    b = np.exp(-idx ** 2 / (2.0 * (m / 3.0 + 1.0) ** 2))
    a, b = a / a.sum(), b / b.sum()
    return np.outer(a, b), (a, b)


@pytest.mark.parametrize("n", [5, 31, 32, 33, 127, 128, 129])
@pytest.mark.parametrize("width", ["1", "n//4", "n-1"])
@pytest.mark.parametrize("kind", ["random", "gaussian", "anisotropic"])
def test_convolve_valid_matches_convolve2d(n, width, kind, rng, monkeypatch):
    """The 2D helper against a long-double oracle: in ``apply``'s valid use
    on the padded input, and in ``apply_transpose``'s use, where the valid
    convolution of the input zero-padded by 2m is the full one.  The
    separable kernels convolve by their axis factors, with no ``einsum``;
    the random one by the ``einsum``.  The oracle of a separable kernel is
    two 1D convolutions by its factors, one per axis, in O(n^2 m); that of
    the random kernel is scipy's convolve2d.  In float64 convolve2d's own
    rounding over the (2m+1)^2 taps reaches 2e-14 of the output of a
    unit-sum kernel at m = 127, where the factored sums are within 2e-15.
    The random kernel's full use at m = n - 1 for n >= 127 is left out:
    ~1e10 multiply-adds in convolve2d, some 10 s each."""
    m = {"1": 1, "n//4": max(n // 4, 1), "n-1": n - 1}[width]
    h, factors = convolution_kernel(kind, m, rng)
    u = rng.standard_normal((n, n))
    ext = np.pad(u, m, mode="reflect", reflect_type="odd")

    def oracle(x, mode):
        x = x.astype(np.longdouble)
        if factors is None:
            return convolve2d(x, h.astype(np.longdouble), mode=mode).astype(float)
        for axis, k in enumerate(factors):
            x = np.apply_along_axis(np.convolve, axis, x,
                                    k.astype(np.longdouble), mode)
        return x.astype(float)
    uses = [(ext, oracle(ext, "valid"))]
    if not (width == "n-1" and n >= 127 and factors is None):
        uses.append((np.pad(u, 2 * m), oracle(u, "full")))
    einsum, einsum_calls = np.einsum, []

    def counted_einsum(*args, **kwargs):
        einsum_calls.append(args[0])
        return einsum(*args, **kwargs)
    monkeypatch.setattr(np, "einsum", counted_einsum)
    for x, expected in uses:
        got = convolve_valid(x, h)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-14 * np.max(np.abs(expected)))
    assert len(einsum_calls) == (len(uses) if kind == "random" else 0)


@pytest.mark.parametrize("n,m", [(5, 1), (5, 4), (33, 8), (33, 32), (64, 8),
                                 (129, 16)])
@pytest.mark.parametrize("bc", ALL_BCS)
def test_2d_apply_transpose_is_the_adjoint(n, m, bc, rng):
    """<H x, y> = <x, H^T y> to rounding, at the prime-adjacent sizes and
    at the widest kernel, m = n - 1, too."""
    op = StructuredBlurOperator(gen_psf("gaussian", m, m / 2.0), bc, n)
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    hx, hty = op.apply(x), op.apply_transpose(y)
    scale = np.linalg.norm(hx) * np.linalg.norm(y) + \
        np.linalg.norm(x) * np.linalg.norm(hty)
    assert abs(np.vdot(hx, y) - np.vdot(x, hty)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [5, 127, 128, 129, 145])
@pytest.mark.parametrize("bc,kind,l_bc", [
    (BoundaryCondition.REFLECTIVE, "R_D", DiffusionBc.ZERO_NEUMANN),
    (BoundaryCondition.ANTI_REFLECTIVE, "P_D", DiffusionBc.ANTI_REFLECTIVE),
])
def test_2d_fast_paths_across_dense_product_cutoff(n, bc, kind, l_bc, rng):
    """Fast applies and preconditioner round trips on both sides of the
    n <= 144 dense-product cutoff of the 2D transforms, at the smallest legal
    and the prime-adjacent sizes."""
    psf = gen_psf("gaussian", 2, 1.0)
    op = StructuredBlurOperator(psf, bc, n)
    u = rng.standard_normal((n, n))
    scale = np.max(np.abs(u))
    np.testing.assert_allclose(op.apply_fast(u), op.apply(u), rtol=0,
                               atol=1e-10 * scale)
    np.testing.assert_allclose(op.apply_transpose_fast(u),
                               op.apply_transpose(u), rtol=0,
                               atol=1e-10 * scale)
    l_op = DiffusionOperator(rng.standard_normal((n, n)), 0.1, l_bc)
    fp = assemble_preconditioner(kind, op, l_op, 1e-2)
    np.testing.assert_allclose(fp.apply(fp.apply_inverse(u)), u, rtol=0,
                               atol=1e-9 * scale)


@pytest.mark.parametrize("n", [5, 144, 145])
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("kind", list(TransformKind))
def test_diagonalized_apply_matches_dense(kind, transpose, ndim, n, rng):
    """``X diag(lam) X^{-1} u`` (``X^{-T} diag(lam) X^T u`` transposed) from
    the dense transform matrix, on both sides of the 2D dense-product
    cutoff; in 2D ``X`` acts on both axes.  ``u`` keeps its bytes."""
    x = _matrix_1d(kind, False, False, n)
    left, right = (np.linalg.inv(x).T, x.T) if transpose else \
        (x, np.linalg.inv(x))
    shape = (n,) * ndim
    lam = rng.uniform(0.5, 2.0, shape)
    u = rng.standard_normal(shape)
    if ndim == 1:
        want = left @ (lam * (right @ u))
    else:
        want = left @ (lam * (right @ u @ right.T)) @ left.T
    before = u.tobytes()
    got = diagonalized(kind, lam, transpose)(u)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert u.tobytes() == before


@pytest.mark.parametrize("n", [3, 4, 5, 64, 127, 128])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("kind", [TransformKind.SINE_HAT,
                                  TransformKind.ANTI_REFLECTIVE])
def test_2d_bordered_solve_matches_the_dense_oracle(kind, transpose, n, rng):
    """A 2D solve of a bordered kind, whose parity layout holds the border
    pair as its sum and difference, is ``X diag(lam) X^{-1}`` on both axes
    with the oracle's dense ``X``, with the two border eigenvalues of each
    axis unequal, as the bordered sine algebra (family M) has them."""
    x = oracles.dense_transform(kind, n, False, False)
    left, right = (np.linalg.inv(x).T, x.T) if transpose else \
        (x, np.linalg.inv(x))
    lam = rng.uniform(0.5, 2.0, (n, n))
    assert np.all(lam[0] != lam[-1]) and np.all(lam[:, 0] != lam[:, -1])
    u = rng.standard_normal((n, n))
    want = left @ (lam * (right @ u @ right.T)) @ left.T
    got = diagonalized(kind, lam, transpose)(u)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("n", [3, 8, 33, 145])
def test_matrix_is_the_dense_1d_operator(bc, n):
    """``matrix()`` is the 1D operator: the scalar-rule oracle matrix, with
    no size limit."""
    psf = SymmetricPsf(np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0)
    got = StructuredBlurOperator(psf, bc, n).matrix()
    want = oracles.dense_blur_1d(psf.coefficients, bc.value, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_matrix_needs_a_1d_operator():
    op = StructuredBlurOperator(gen_psf("gaussian", 1, 1.0),
                                BoundaryCondition.REFLECTIVE, 5)
    with pytest.raises(ValueError, match="1D operator"):
        op.matrix()


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("n", [5, 16, 33])
def test_separable_blur_is_the_kronecker_product(bc, n, rng):
    """``H W = H_a W H_b^T`` for ``h = outer(a, b)``: the 2D reference apply
    equals the axis factors' matrices on axes 0 and 1.  The kernel is
    anisotropic, so an axis swap fails."""
    psf = SymmetricPsf(np.outer(ANISOTROPIC_A, ANISOTROPIC_B))
    a, b = psf.factors()
    h_a, h_b = (StructuredBlurOperator(f, bc, n).matrix() for f in (a, b))
    w = rng.standard_normal((n, n))
    want = StructuredBlurOperator(psf, bc, n).apply(w)
    np.testing.assert_allclose(h_a @ w @ h_b.T, want, rtol=0,
                               atol=1e-14 * np.max(np.abs(want)))
    assert np.max(np.abs(h_b @ w @ h_a.T - want)) > 1e-3 * np.max(np.abs(want))


def test_reblur_alias_is_forward_apply(rng):
    psf = uniform_psf(2)
    op = StructuredBlurOperator(psf, BoundaryCondition.ANTI_REFLECTIVE, 12)
    u = rng.standard_normal(12)
    np.testing.assert_array_equal(op.reblur_apply(u), op.apply(u))


# -- errors --------------------------------------------------------------------


def test_errors():
    psf = uniform_psf(4)
    with pytest.raises(ValueError):
        StructuredBlurOperator(psf, BoundaryCondition.REFLECTIVE, 4)  # m >= n
    op = StructuredBlurOperator(psf, BoundaryCondition.PERIODIC, 16)
    with pytest.raises(ConfigurationError, match="no fast transform"):
        op.eigenvalues()
    with pytest.raises(ConfigurationError, match="no fast transform"):
        op.apply_fast(np.zeros(16))
    with pytest.raises(ValueError):
        oracles.dense_of(
            StructuredBlurOperator(psf, BoundaryCondition.PERIODIC, 5000))
    with pytest.raises(ValueError):
        op.apply(np.zeros(7))


@given(c=st.floats(0.1, 10.0), m=st.integers(1, 4))
def test_constant_preservation_property(c, m):
    psf = uniform_psf(m)
    n = 20
    u = np.full(n, c)
    for bc in (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTI_REFLECTIVE):
        op = StructuredBlurOperator(psf, bc, n)
        np.testing.assert_allclose(op.apply(u), u, atol=1e-12 * c)
