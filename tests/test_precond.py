from functools import lru_cache

import numpy as np
import pytest

import oracles
from tvdeblur import precond, transforms
from tvdeblur.blur import (
    BoundaryCondition,
    StructuredBlurOperator,
    SymmetricPsf,
)
from tvdeblur.harness import gen_psf
from tvdeblur.krylov import ConfigurationError
from tvdeblur.precond import (
    FactoredPreconditioner,
    IndefinitePreconditionerError,
    assemble_preconditioner,
    project,
)
from tvdeblur.transforms import TransformKind, diagonalized
from tvdeblur.tv import DiffusionBc, DiffusionOperator

AR = TransformKind.ANTI_REFLECTIVE
ORTHOGONAL = [TransformKind.DCT, TransformKind.DST1, TransformKind.SINE_HAT]


def project_dense(kind, a):
    """Production projection of a dense matrix given as all of its bands."""
    return project(kind, oracles.bands_of(a), a.shape[0])


def dense_member(kind, lam):
    n = len(lam)
    if kind is TransformKind.DCT:
        x = oracles.dense_dct(n)
        return x @ np.diag(lam) @ x.T
    if kind is TransformKind.DST1:
        x = oracles.dense_dst1(n)
        return x @ np.diag(lam) @ x
    if kind is TransformKind.SINE_HAT:
        x = oracles.dense_sinehat(n)
        return x @ np.diag(lam) @ x
    x = oracles.dense_ar(n)
    return x @ np.diag(lam) @ np.linalg.inv(x)


def random_banded(rng, n, bandwidth=1):
    bands = {(d,): rng.standard_normal(n - abs(d))
             for d in range(-bandwidth, bandwidth + 1)}
    return oracles.dense_of_bands(bands, n), bands


# -- optimality, linearity, SPD preservation -----------------------------------


@pytest.mark.parametrize("kind", ORTHOGONAL)
@pytest.mark.parametrize("n", [6, 8])
def test_projection_beats_random_perturbations(kind, n, rng):
    """Frobenius-minimizer brute check against 100 in-algebra perturbations."""
    a = rng.standard_normal((n, n))
    lam = project_dense(kind, a)
    best = np.linalg.norm(dense_member(kind, lam) - a)
    for _ in range(100):
        delta = rng.standard_normal(n) * rng.uniform(1e-3, 1.0)
        other = np.linalg.norm(dense_member(kind, lam + delta) - a)
        assert best <= other + 1e-12


@pytest.mark.parametrize("kind", ORTHOGONAL)
def test_projection_fixes_algebra_members_and_identity(kind, rng):
    n = 8
    lam = rng.standard_normal(n)
    member = dense_member(kind, lam)
    np.testing.assert_allclose(project_dense(kind, member), lam, atol=1e-10)
    np.testing.assert_allclose(project_dense(kind, np.eye(n)), np.ones(n),
                               atol=1e-12)


@pytest.mark.parametrize("kind", ORTHOGONAL)
def test_projection_linearity(kind, rng):
    n = 7
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    gamma = 1.7
    lhs = project_dense(kind, a + gamma * b)
    rhs = project_dense(kind, a) + gamma * project_dense(kind, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("kind", ORTHOGONAL)
@pytest.mark.parametrize("n", [6, 16])
def test_projection_preserves_positive_definiteness(kind, n, rng):
    b = rng.standard_normal((n, n))
    spd = b @ b.T + n * np.eye(n)
    assert np.all(project_dense(kind, spd) > 0)


def test_classical_laplacian_is_in_sine_algebra():
    n = 9
    lap = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lam = project_dense(TransformKind.DST1, lap)
    expected = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    np.testing.assert_allclose(lam, expected, atol=1e-12)
    np.testing.assert_allclose(dense_member(TransformKind.DST1, lam), lap,
                               atol=1e-12)


def test_sinehat_of_diagonal_matrix(rng):
    n = 7
    d = rng.standard_normal(n)
    lam = project_dense(TransformKind.SINE_HAT, np.diag(d))
    assert lam[0] == d[0] and lam[-1] == d[-1]
    np.testing.assert_allclose(
        lam[1:-1], project_dense(TransformKind.DST1, np.diag(d[1:-1])),
        atol=1e-14)


def oracle_eigenvalues(kind, a):
    """Projection eigenvalues from the formula-built transform matrices.

    diag(X^T A X) for the orthogonal kinds; for the anti-reflective kind the
    interior sine eigenvalues bordered by their closed form
    ``sum_t (-1)^(t+1) (1 + cos(t pi / (L+1))) lam_t``, t = 1..L, summed
    in long double.
    """
    n = a.shape[0]
    if kind in (TransformKind.DCT, TransformKind.DST1):
        x = oracles.dense_dct(n) if kind is TransformKind.DCT \
            else oracles.dense_dst1(n)
        return np.einsum("it,ij,jt->t", x, a, x, optimize=True)
    lam = oracle_eigenvalues(TransformKind.DST1, a[1:-1, 1:-1])
    if kind is TransformKind.SINE_HAT:
        return np.concatenate([[a[0, 0]], lam, [a[-1, -1]]])
    t = np.arange(1, n - 1, dtype=np.longdouble)
    pi = np.arccos(np.longdouble(-1))
    weights = (-1) ** (t + 1) * (1 + np.cos(t * pi / (n - 1)))
    border = float(np.sum(weights * lam.astype(np.longdouble)))
    return np.concatenate([[border], lam, [border]])


def oracle_level2(kind, blocks, n):
    """Two-level eigenvalues from ``oracle_eigenvalues``: applied to every
    n x n block, regrouped by frequency, and applied again.  Returns
    ``grid[s, t]`` with s the block-level frequency."""
    lam_blocks = np.zeros((n, n, n))  # [block row, block column, t]
    for do in {do for do, _ in blocks}:
        for k in range(n - abs(do)):
            block = sum(np.diag(arr[k], di)
                        for (bo, di), arr in blocks.items() if bo == do)
            lam_blocks[k + max(0, -do), k + max(0, do)] = \
                oracle_eigenvalues(kind, block)
    return np.stack([oracle_eigenvalues(kind, lam_blocks[:, :, t])
                     for t in range(n)], axis=1)


# both sides of each bound of transforms._takes_products, 144 and 384;
# n = 146, 147 and 386, 387 put the bordered kinds' interior length there
PROJECTION_SIZES = [(kind, n) for kind in TransformKind
                    for n in (5, 6, 9, 16, 64, 127, 128, 129, 144, 145, 146,
                              147, 203, 384, 385, 386, 387)]


@pytest.mark.parametrize("kind, n", PROJECTION_SIZES)
def test_banded_projection_matches_oracle_across_product_cutoff(kind, n, rng):
    """Band sums as cached products and as FFT closed forms."""
    a, bands = random_banded(rng, n, bandwidth=2)
    got = project(kind, bands, n)
    expected = oracle_eigenvalues(kind, a)
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


@lru_cache(maxsize=8)
def oracle_band_products(kind, d, n):
    """The full-size ``X[:n-d] * X[d:]`` of the dense oracle X."""
    x = oracles.dense_dct(n) if kind is TransformKind.DCT \
        else oracles.dense_dst1(n)
    return x[: n - d] * x[d:]


def full_size_band_form(kind, band, offset, n):
    """A band form as one full-size product with the oracle's matrix:
    every sample of the band meets its own row, none is folded."""
    band = np.asarray(band, dtype=float)
    if n - abs(offset) <= 0 or band.shape[-1] == 0:
        return np.zeros(band.shape[:-1] + (n,))
    return band @ oracle_band_products(kind, abs(offset), n)


# the smallest anti-reflective projection, the workload sides 64 and
# 128 with the prime 127, and both sides of the batched and the vector
# product bounds, 144 and 384
FOLD_CASES = [(ndim, n) for ndim in (1, 2)
              for n in (5, 64, 127, 128, 143, 144, 145, 383, 384, 385)]


@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("ndim,n", FOLD_CASES)
def test_projection_folds_the_bands_at_plus_and_minus_d(kind, ndim, n, rng,
                                                        monkeypatch):
    """``project`` sums the bands at +d and -d before one half-size band
    form, on both levels in 2D; the result is the sum of the bands'
    projections one by one, each band form a full-size product with the
    oracle's matrix, to 1e-13 in norm.  Anti-reflective diffusion bands
    differ at +d and -d on the border, so a band dropped or counted twice
    shows.  (Entry by entry, the anti-reflective border eigenvalues are
    alternating sums over the interior and differ most.)"""
    l_op = DiffusionOperator(rng.standard_normal((n,) * ndim), 0.05,
                             DiffusionBc.ANTI_REFLECTIVE)
    bands = l_op.bands()
    upper, lower = (1,) + (0,) * (ndim - 1), (-1,) + (0,) * (ndim - 1)
    assert not np.array_equal(bands[upper], bands[lower])
    got = project(kind, bands, n)
    monkeypatch.setattr(precond, "band_form", full_size_band_form)
    want = sum(project(kind, {offset: band}, n)
               for offset, band in bands.items())
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_2d_scaled_projection_takes_seven_band_forms(monkeypatch, rng):
    """A ``P_D`` assembly in 2D takes one band form per distance and level:
    two for ``s`` and five for the five bands of ``S L S``."""
    calls = []
    band_form = precond.band_form

    def counted(*args):
        calls.append(args[2])
        return band_form(*args)
    monkeypatch.setattr(precond, "band_form", counted)
    n = 16
    h_op = StructuredBlurOperator(gen_psf("gaussian", 2, 1.0),
                                  BoundaryCondition.ANTI_REFLECTIVE, n)
    l_op = DiffusionOperator(rng.standard_normal((n, n)), 0.1,
                             DiffusionBc.ANTI_REFLECTIVE)
    assemble_preconditioner("P_D", h_op, l_op, 1e-2)
    assert len(calls) == 7 and all(d >= 0 for d in calls)


@pytest.mark.parametrize("kind", [TransformKind.DCT, TransformKind.DST1])
def test_band_products_are_read_only(kind):
    """The cached products are the first ceil((n-d)/2) rows of
    ``X[:n-d] * X[d:]``, which the flip of its rows leaves unchanged."""
    n, d = 126, 1
    p = transforms._band_products(kind, d, n)
    x = oracles.dense_dct(n) if kind is TransformKind.DCT \
        else oracles.dense_dst1(n)
    full = x[: n - d] * x[d:]
    np.testing.assert_allclose(full, full[::-1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(p, full[: (n - d + 1) // 2], rtol=0, atol=1e-15)
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0, 0] = 1.0


# -- anti-reflective projection --------------------------------------------------


def test_ar_project_identity():
    lam = project_dense(AR, np.eye(8))
    np.testing.assert_allclose(oracles.ar_bordered(lam[1:-1]), np.eye(8),
                               atol=1e-12)
    np.testing.assert_allclose(lam, np.ones(8), atol=1e-12)


def test_ar_project_fixes_blur_matrix():
    psf = SymmetricPsf(np.full(3, 1 / 3.0))
    a = oracles.dense_blur_1d(psf.coefficients, "anti_reflective", 8)
    lam = project_dense(AR, a)
    np.testing.assert_allclose(oracles.ar_bordered(lam[1:-1]), a, atol=1e-10)
    op = StructuredBlurOperator(psf, BoundaryCondition.ANTI_REFLECTIVE, 8)
    np.testing.assert_allclose(lam, op.eigenvalues(), atol=1e-10)


@pytest.mark.parametrize("n", [6, 8, 16])
def test_ar_membership(n, rng):
    a, bands = random_banded(rng, n)
    lam = project(AR, bands, n)
    bordered = oracles.ar_bordered(lam[1:-1])
    assert oracles.ar_membership_residual(bordered) < 1e-8
    # eigenvalue layout: T^{-1} AR(A) T recovers the stored eigenvalues
    t = oracles.dense_ar(n)
    sim = np.linalg.solve(t, bordered @ t)
    np.testing.assert_allclose(np.diag(sim), lam, atol=1e-10)
    # banded input agrees with the formula oracle
    np.testing.assert_allclose(lam, oracle_eigenvalues(AR, a), atol=1e-12)


def test_ar_project_requires_interior():
    with pytest.raises(ValueError):
        project_dense(AR, np.eye(4))


# -- two-level projections -------------------------------------------------------


def test_level2_identity():
    n = 6
    for kind in TransformKind:
        lam = project(kind, oracles.bands_of(np.eye(n * n), 2), n)
        np.testing.assert_allclose(lam, np.ones((n, n)), atol=1e-12)


def test_level2_laplacian_eigenvalues():
    n = 6
    lap1 = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap2 = np.kron(lap1, np.eye(n)) + np.kron(np.eye(n), lap1)
    lam = project(TransformKind.DST1, oracles.bands_of(lap2, 2), n)
    freqs = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    np.testing.assert_allclose(lam, freqs[:, None] + freqs[None, :], atol=1e-12)
    s2 = np.kron(oracles.dense_dst1(n), oracles.dense_dst1(n))
    np.testing.assert_allclose(s2 @ np.diag(lam.reshape(-1)) @ s2, lap2,
                               atol=1e-11)


def test_level2_block_banded_matches_dense_argmin(rng):
    n = 6
    blocks = {}
    for do in (-1, 0, 1):
        for di in (-1, 0, 1):
            blocks[(do, di)] = rng.standard_normal((n - abs(do), n - abs(di)))
    dense = oracles.dense_of_bands(blocks, n)
    for kind in ORTHOGONAL:
        lam = project(kind, blocks, n)
        np.testing.assert_allclose(lam, oracle_level2(kind, blocks, n),
                                   atol=1e-12)
        # Frobenius argmin over the tensor algebra: diag((X (x) X)^T A (X (x) X))
        x = {TransformKind.DCT: oracles.dense_dct(n),
             TransformKind.DST1: oracles.dense_dst1(n),
             TransformKind.SINE_HAT: oracles.dense_sinehat(n)}[kind]
        xx = np.kron(x, x)
        np.testing.assert_allclose(lam.reshape(-1), np.diag(xx.T @ dense @ xx),
                                   atol=1e-12)
    np.testing.assert_allclose(project(AR, blocks, n),
                               oracle_level2(AR, blocks, n), atol=1e-12)


@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("n", [6, 147])
def test_level2_matches_formula_oracle(kind, n, rng):
    """At n = 147 both the DCT length and the interior length 145 are above
    the product cutoff, so every band sum takes its batched FFT form."""
    blocks = {(do, di): rng.standard_normal((n - abs(do), n - abs(di)))
              for do in (-1, 0, 1) for di in (-1, 0, 1)}
    expected = oracle_level2(kind, blocks, n)
    np.testing.assert_allclose(project(kind, blocks, n), expected,
                               rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_level2_sinehat_of_ar_blur_is_the_eigenvalue_mesh():
    psf = gen_psf("gaussian", 2, 1.0)
    op = StructuredBlurOperator(psf, BoundaryCondition.ANTI_REFLECTIVE, 8)
    lam = project(TransformKind.SINE_HAT,
                  oracles.bands_of(oracles.dense_of(op), 2), 8)
    np.testing.assert_allclose(lam, op.eigenvalues(), atol=1e-12)


def test_level2_cosine_fixes_reflective_blur():
    psf = gen_psf("gaussian", 2, 1.0)
    op = StructuredBlurOperator(psf, BoundaryCondition.REFLECTIVE, 8)
    lam = project(TransformKind.DCT,
                  oracles.bands_of(oracles.dense_of(op), 2), 8)
    np.testing.assert_allclose(lam, op.eigenvalues(), atol=1e-12)


# -- assembled preconditioners ---------------------------------------------------


SCALING_CASES = [(1, n) for n in (1, 2, 3, 9)] + [(2, n) for n in (1, 2, 6)]


@pytest.mark.parametrize("bc", list(DiffusionBc))
@pytest.mark.parametrize("ndim,n", SCALING_CASES)
def test_scaled_bands_are_the_dense_s_l_s(ndim, n, bc, rng):
    """One scaling rule for both dimensions: every band of ``L`` scaled by
    ``s`` at its row and at its column gives ``S L S``, ``S = diag(s)``,
    with the bands at d and -d summed under the larger offset."""
    l_op = DiffusionOperator(rng.standard_normal((n,) * ndim), 0.2, bc)
    s = rng.uniform(0.5, 2.0, (n,) * ndim)
    scaled = precond._scaled_bands(l_op.bands(), s)
    big_s = np.diag(s.reshape(-1))
    want = oracles.bands_of(big_s @ oracles.dense_of(l_op) @ big_s, ndim)
    assert scaled.keys() == {max(o, tuple(-d for d in o))
                             for o in l_op.bands()}
    for offset, band in scaled.items():
        # at n = 1 the bands at +-1 are empty, and the dense matrix has none
        mirror = tuple(-d for d in offset)
        expected = want.get(offset, 0) + (want.get(mirror, 0)
                                          if mirror != offset else 0)
        np.testing.assert_allclose(band, expected, atol=1e-13)


def make_1d_ops(base, n=8, beta=0.1, seed=11):
    rng = np.random.default_rng(seed)
    psf = SymmetricPsf(np.full(3, 1 / 3.0))
    bc = BoundaryCondition.REFLECTIVE if base == "R" \
        else BoundaryCondition.ANTI_REFLECTIVE
    l_bc = DiffusionBc.ANTI_REFLECTIVE if base == "P" else DiffusionBc.ZERO_NEUMANN
    h_op = StructuredBlurOperator(psf, bc, n)
    l_op = DiffusionOperator(rng.standard_normal(n), beta, l_bc)
    return h_op, l_op


def test_assembled_r_matches_dense_formula():
    alpha = 1e-3
    h_op, l_op = make_1d_ops("R")
    h = oracles.dense_of(h_op)
    ref = h.T @ h + alpha * dense_member(
        TransformKind.DCT, oracle_eigenvalues(TransformKind.DCT, oracles.dense_of(l_op)))
    got = oracles.dense_preconditioner(
        assemble_preconditioner("R", h_op, l_op, alpha))
    np.testing.assert_allclose(got, ref, atol=1e-10)


def test_assembled_p_d_matches_transform_product_form():
    alpha = 1e-3
    h_op, l_op = make_1d_ops("P")
    n = 8
    d = 1.0 + alpha * l_op.diagonal()
    s = np.diag(d ** -0.5)
    lam_d = oracle_eigenvalues(AR, np.diag(np.diag(s)))
    lam_lt = oracle_eigenvalues(AR, s @ oracles.dense_of(l_op) @ s)
    lam_h = h_op.eigenvalues()
    ref = dense_member(TransformKind.ANTI_REFLECTIVE,
                       lam_h ** 2 * lam_d ** 2 + alpha * lam_lt)
    got = oracles.dense_preconditioner(
        assemble_preconditioner("P_D", h_op, l_op, alpha))
    np.testing.assert_allclose(got, ref, atol=1e-8)


def test_assembled_small_alpha_limit():
    h_op, l_op = make_1d_ops("R")
    fp = assemble_preconditioner("R", h_op, l_op, 1e-14)
    np.testing.assert_allclose(fp.eigenvalues, h_op.eigenvalues() ** 2,
                               atol=1e-10)


@pytest.mark.parametrize("base", ["R", "M", "P"])
@pytest.mark.parametrize("variant", ["{}", "D_{}", "{}_D"])
@pytest.mark.parametrize("n", [8, 16])
def test_apply_inverse_round_trip_1d(base, variant, n, rng):
    kind = variant.format(base)
    h_op, l_op = make_1d_ops(base, n=n)
    fp = assemble_preconditioner(kind, h_op, l_op, 1e-3)
    b = rng.standard_normal(n)
    np.testing.assert_allclose(fp.apply(fp.apply_inverse(b)), b, atol=1e-9)
    np.testing.assert_allclose(fp.apply_inverse(fp.apply(b)), b, atol=1e-9)


@pytest.mark.parametrize("base", ["R", "M", "P"])
@pytest.mark.parametrize("variant", ["{}", "D_{}", "{}_D"])
@pytest.mark.parametrize("n", [5, 203])
def test_apply_inverse_is_the_diagonalized_solve_byte_for_byte(base, variant,
                                                               n, rng):
    """The bound 1D solve gives the bytes of ``X diag(1 / lam) X^{-1} b``
    through the public ``scipy.fft`` calls, inside the ``D^{-1/2}`` wrap of
    the ``D_`` kinds, and so does ``diagonalized`` on ``b`` itself; both
    leave the bytes of ``b`` alone."""
    kind = variant.format(base)
    fp = assemble_preconditioner(kind, *make_1d_ops(base, n=n), 1e-3)
    t, inv = fp.transform, fp._inverse_eigenvalues

    def solve(x):
        return oracles.scipy_apply_1d(
            t, inv * oracles.scipy_apply_1d(t, x, inverse=True))

    b = rng.standard_normal(n)
    before = b.tobytes()
    if fp.d_sqrt is None:
        want = solve(b)
    else:
        want = solve(b / fp.d_sqrt) / fp.d_sqrt
    assert np.array_equal(fp.apply_inverse(b), want)
    assert b.tobytes() == before
    assert np.array_equal(diagonalized(t, inv)(b), solve(b))
    assert b.tobytes() == before


@pytest.mark.parametrize("base", ["R", "M", "P"])
@pytest.mark.parametrize("variant", ["{}", "D_{}", "{}_D"])
def test_apply_inverse_round_trip_2d(base, variant, rng):
    kind = variant.format(base)
    n = 8
    psf = gen_psf("gaussian", 2, 1.0)
    bc = BoundaryCondition.REFLECTIVE if base == "R" \
        else BoundaryCondition.ANTI_REFLECTIVE
    l_bc = DiffusionBc.ANTI_REFLECTIVE if base == "P" else DiffusionBc.ZERO_NEUMANN
    h_op = StructuredBlurOperator(psf, bc, n)
    l_op = DiffusionOperator(rng.standard_normal((n, n)), 0.1, l_bc)
    fp = assemble_preconditioner(kind, h_op, l_op, 1e-3)
    b = rng.standard_normal((n, n))
    np.testing.assert_allclose(fp.apply(fp.apply_inverse(b)), b, atol=1e-9)


@pytest.mark.parametrize("kind", ["R_D", "M_D", "P_D"])
@pytest.mark.parametrize("n", [64, 128])
def test_assembled_2d_products_match_fft_band_forms(kind, n, monkeypatch, rng):
    """Assembly through cached products equals assembly through the FFT
    band forms, called in place of the rule's choice."""
    alpha = 1e-2
    psf = gen_psf("gaussian", 3, 1.5)
    bc = BoundaryCondition.REFLECTIVE if kind == "R_D" \
        else BoundaryCondition.ANTI_REFLECTIVE
    l_bc = DiffusionBc.ANTI_REFLECTIVE if kind == "P_D" \
        else DiffusionBc.ZERO_NEUMANN
    h_op = StructuredBlurOperator(psf, bc, n)
    l_op = DiffusionOperator(rng.standard_normal((n, n)), 0.1, l_bc)
    hits = transforms._band_products.cache_info()
    products = assemble_preconditioner(kind, h_op, l_op, alpha).eigenvalues
    after = transforms._band_products.cache_info()
    assert after.hits + after.misses > hits.hits + hits.misses

    def fft_band_form(kind, band, offset, n):
        return transforms._fft_band_form(kind, band, abs(offset), n)

    monkeypatch.setattr(precond, "band_form", fft_band_form)
    fft = assemble_preconditioner(kind, h_op, l_op, alpha).eigenvalues
    np.testing.assert_allclose(products, fft, rtol=0,
                               atol=1e-12 * np.max(np.abs(fft)))


@pytest.mark.parametrize("offset", [0, 1, -1])
@pytest.mark.parametrize("kind", [TransformKind.DCT, TransformKind.DST1])
@pytest.mark.parametrize("batch, n", [((), 385), ((), 409), ((), 512),
                                      ((4,), 145), ((4,), 203), ((4,), 256)])
def test_fft_band_form_keeps_the_bytes_of_scipy_fft(batch, n, kind, offset,
                                                    rng):
    """Above the rule's product bound the band form's direct pocketfft call
    gives exactly the public scipy.fft.rfft result, for one band above the
    vector bound and for a batch above the batch bound."""
    assert not transforms._takes_products(n, batched=bool(batch))
    band = rng.standard_normal(batch + (n - abs(offset),))
    got = transforms.band_form(kind, band, offset, n)
    want = oracles.scipy_band_form(kind, band, offset, n)
    assert got.shape == batch + (n,)
    assert got.tobytes() == want.tobytes()


def test_assemble_rejects_wrong_boundary_conditions():
    h_op, l_op = make_1d_ops("R")
    with pytest.raises(ValueError):
        assemble_preconditioner("M", h_op, l_op, 1e-3)
    for kind in ("Q", "D_R_D", "D_D_R", "RD", "D_"):
        with pytest.raises(ValueError, match="unknown preconditioner kind"):
            assemble_preconditioner(kind, h_op, l_op, 1e-3)
    with pytest.raises(ValueError):
        assemble_preconditioner("R", h_op, l_op, -1.0)


@pytest.mark.parametrize("alpha", [0.0, float("nan"), float("inf"), "1e-3",
                                   True])
def test_assemble_names_a_bad_alpha(alpha):
    """alpha takes the settings rule, so nan and inf fail as well."""
    h_op, l_op = make_1d_ops("R")
    with pytest.raises(ConfigurationError, match=r"^alpha must be (finite "
                                                 r"and positive|a real number)"):
        assemble_preconditioner("R", h_op, l_op, alpha)


def test_indefinite_preconditioner_reports_kind_and_alpha():
    lam = np.array([1.0, -0.5, 2.0])
    with pytest.raises(IndefinitePreconditionerError) as err:
        FactoredPreconditioner("R", TransformKind.DCT, lam, alpha=0.25)
    assert err.value.kind == "R"
    assert err.value.alpha == 0.25
    assert "R" in str(err.value) and "0.25" in str(err.value)


def test_clamping_logs_warning(caplog):
    import logging

    lam = np.array([1.0, 1e-20, 2.0])
    with caplog.at_level(logging.WARNING, logger="tvdeblur.precond"):
        fp = FactoredPreconditioner("R", TransformKind.DCT, lam, alpha=1e-3)
    assert any("clamped" in rec.message for rec in caplog.records)
    assert np.all(np.isfinite(fp.apply_inverse(np.ones(3))))
