import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from tvdeblur.tv import (
    MIN_BETA,
    DiffusionBc,
    DiffusionOperator,
    diffusion_coefficients,
)

BOTH = (DiffusionBc.ZERO_NEUMANN, DiffusionBc.ANTI_REFLECTIVE)

signals = arrays(float, st.integers(min_value=4, max_value=24),
                 elements=st.floats(-5, 5, allow_nan=False))


def test_constant_signal_gives_one_over_beta():
    for bc in BOTH:
        (a,) = diffusion_coefficients(np.full(9, 4.2), 0.25, bc)
        np.testing.assert_allclose(a, np.full(10, 4.0), atol=1e-14)


def test_unit_jump_frozen():
    (a,) = diffusion_coefficients(np.array([0.0, 1.0]), 1.0)
    assert abs(a[1] - 1.0 / np.sqrt(2.0)) < 1e-15


def test_large_beta_limit(rng):
    u = rng.standard_normal(12)
    beta = 1e6
    (a,) = diffusion_coefficients(u, beta)
    np.testing.assert_allclose(a, np.full(13, 1.0 / beta), rtol=1e-10)


@given(u=signals, beta=st.floats(1e-3, 10.0))
def test_coefficient_bound(u, beta):
    for bc in BOTH:
        (a,) = diffusion_coefficients(u, beta, bc)
        assert np.all(a > 0)
        assert np.all(a <= 1.0 / beta + 1e-12)


def test_beta_must_be_positive():
    with pytest.raises(ValueError):
        diffusion_coefficients(np.ones(5), 0.0)
    with pytest.raises(ValueError):
        DiffusionOperator(np.ones(5), -1.0)


@pytest.mark.parametrize("beta", [1e-300, float(np.nextafter(MIN_BETA, 0))])
def test_beta_whose_square_underflows_is_rejected(beta):
    """A flat edge has coefficient 1 / sqrt(beta**2): inexact while beta**2
    is subnormal and inf once it underflows to 0."""
    for shape in ((5,), (4, 4)):
        with pytest.raises(ValueError, match=r"beta must be at least "
                                             r"sqrt\(finfo\(float\)\.tiny\)"):
            DiffusionOperator(np.zeros(shape), beta)
    (a,) = diffusion_coefficients(np.zeros(5), MIN_BETA)
    assert np.all(a == 1.0 / MIN_BETA)


def test_constants_are_annihilated(rng):
    u = rng.standard_normal(11)
    w = np.full(11, 2.2)
    for bc in BOTH:
        out = DiffusionOperator(u, 0.1, bc).apply(w)
        np.testing.assert_allclose(out, np.zeros(11), atol=1e-12)
    u2 = rng.standard_normal((7, 7))
    for bc in BOTH:
        out = DiffusionOperator(u2, 0.1, bc).apply(np.full((7, 7), 2.2))
        np.testing.assert_allclose(out, np.zeros((7, 7)), atol=1e-12)


def test_apply_matches_row_by_row_oracle(rng):
    u = rng.standard_normal(5)
    w = rng.standard_normal(5)
    for bc in BOTH:
        op = DiffusionOperator(u, 0.3, bc)
        dense = oracles.diffusion_dense_1d(op.a[0], bc.value)
        np.testing.assert_allclose(op.apply(w), dense @ w, atol=1e-13)
        np.testing.assert_allclose(oracles.dense_of(op), dense, atol=1e-13)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 128, 203])
def test_apply_is_byte_identical_to_padded_formula(ndim, n, rng):
    """The ghost differences written in place repeat np.pad's arithmetic."""
    shape = (n,) * ndim
    for bc in BOTH:
        op = DiffusionOperator(rng.standard_normal(shape), 0.1, bc)
        for _ in range(3):
            w = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            expected = oracles.diffusion_apply_padded(w, op.a, bc.value)
            assert op.apply(w).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 203])
def test_1d_coefficients_are_byte_identical_to_padded_formula(n, rng):
    """The 1D coefficients take the apply's ghost differences, which
    repeat the arithmetic of differences of the np.pad extension."""
    pads = {DiffusionBc.ZERO_NEUMANN: {"mode": "symmetric"},
            DiffusionBc.ANTI_REFLECTIVE: {"mode": "reflect",
                                          "reflect_type": "odd"}}
    for bc in BOTH:
        for _ in range(3):
            u = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            d = np.diff(np.pad(u, 1, **pads[bc]))
            (a,) = diffusion_coefficients(u, 0.05, bc)
            assert a.tobytes() == (1.0 / np.sqrt(d * d + 0.05 * 0.05)).tobytes()


# n = 1 has no edge inside the grid, so both ghost differences are zero
# and L = 0 under either rule
@pytest.mark.parametrize("bc", BOTH)
@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_bands_and_diagonal_match_dense(n, bc, rng):
    op = DiffusionOperator(rng.standard_normal(n), 0.2, bc)
    dense = oracles.dense_of(op)
    rebuilt = oracles.dense_of_bands(op.bands(), n)
    np.testing.assert_allclose(rebuilt, dense, atol=1e-13)
    np.testing.assert_allclose(op.diagonal(), np.diag(dense), atol=1e-13)


def test_zero_neumann_dense_symmetric_psd():
    rng = np.random.default_rng(5)
    for n in (8, 16, 64):
        u = rng.standard_normal(n)
        dense = oracles.dense_of(DiffusionOperator(u, 0.15))
        assert np.linalg.norm(dense - dense.T) < 1e-12
        assert np.linalg.eigvalsh((dense + dense.T) / 2).min() > -1e-10


def test_anti_reflective_variant_is_nonsymmetric(rng):
    dense = oracles.dense_of(DiffusionOperator(rng.standard_normal(8), 0.15,
                                               DiffusionBc.ANTI_REFLECTIVE))
    assert np.linalg.norm(dense - dense.T) > 1e-8


@pytest.mark.parametrize("bc", BOTH)
@pytest.mark.parametrize("n", [1, 2, 6])
def test_2d_blocks_and_diagonal_match_dense(n, bc, rng):
    op = DiffusionOperator(rng.standard_normal((n, n)), 0.2, bc)
    dense = oracles.dense_of(op)
    rebuilt = oracles.dense_of_bands(op.bands(), n)
    np.testing.assert_allclose(rebuilt, dense, atol=1e-13)
    np.testing.assert_allclose(op.diagonal().reshape(-1), np.diag(dense),
                               atol=1e-13)
    np.testing.assert_allclose(dense @ np.ones(n * n), np.zeros(n * n),
                               atol=1e-12)


def test_2d_zero_neumann_symmetric_psd(rng):
    dense = oracles.dense_of(DiffusionOperator(rng.standard_normal((6, 6)), 0.3))
    assert np.linalg.norm(dense - dense.T) < 1e-12
    assert np.linalg.eigvalsh((dense + dense.T) / 2).min() > -1e-10


def test_shape_mismatch_rejected(rng):
    op = DiffusionOperator(rng.standard_normal(6), 0.1)
    with pytest.raises(ValueError):
        op.apply(np.zeros(7))
