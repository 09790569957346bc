import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from tvdeblur.krylov import ConfigurationError
from tvdeblur.tv import (
    MIN_BETA,
    DiffusionBc,
    DiffusionOperator,
    band_kernel,
    diffusion_coefficients,
    scaling_diagonal,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 128, 203])
def test_1d_apply_is_byte_identical_to_padded_formula(n, rng):
    """The 1D flux form's ghost differences written in place repeat
    np.pad's arithmetic."""
    for bc in BOTH:
        op = DiffusionOperator(rng.standard_normal(n), 0.1, bc)
        for _ in range(3):
            w = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            expected = oracles.diffusion_apply_padded(w, op.a, bc.value)
            assert op.apply(w).tobytes() == expected.tobytes()


def relative_error(got, want) -> float:
    """``||got - want|| / ||want||``, 0 where both are exactly 0."""
    error = np.linalg.norm(got - want)
    return float(error / np.linalg.norm(want)) if error else 0.0


# n = 1 and n = 2 are legal 2D restores; at n = 1 the offsets 1 and n
# coincide and the inner bands are empty
KERNEL_SIZES = [1, 2, 3, 4, 5, 64, 127, 128]


@pytest.mark.parametrize("bc", BOTH)
@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_2d_kernel_matches_the_flux_oracle(n, bc, rng):
    """The 2D apply, the five-band kernel on the operator's own bands, is
    the padded flux form to 1e-13 relative, on a grid and on a strided
    view of one; ``w`` is left alone."""
    op = DiffusionOperator(rng.standard_normal((n, n)), 0.1, bc)
    for _ in range(3):
        grid = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        for w in (grid, grid.T):
            before = w.tobytes()
            want = oracles.diffusion_apply_padded(w, op.a, bc.value)
            assert relative_error(op.apply(w), want) <= 1e-13
            assert w.tobytes() == before


@pytest.mark.parametrize("bc", BOTH)
@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_2d_weighted_kernel_adds_into_the_array_it_is_given(n, bc, rng):
    """The kernel on the bands weighted by alpha adds ``alpha * L w`` into
    the array it is given, as a step's apply adds its diffusion term into
    the data term, and leaves ``w`` alone."""
    alpha = 0.3
    op = DiffusionOperator(rng.standard_normal((n, n)), 0.1, bc)
    add = band_kernel(op.bands(), alpha)
    w = rng.standard_normal((n, n))
    before = w.tobytes()
    out = rng.standard_normal((n, n))
    want = out + alpha * oracles.diffusion_apply_padded(w, op.a, bc.value)
    assert add(w, out) is out
    assert relative_error(out, want) <= 1e-13
    assert w.tobytes() == before


def test_2d_kernel_rejects_a_grid_of_another_shape(rng):
    """The C loop reads and writes n^2 values whatever the arrays hold, so
    an array of another shape is rejected before it runs."""
    add = band_kernel(DiffusionOperator(rng.standard_normal((4, 4)), 0.1)
                      .bands())
    for w, out in ((np.ones(8), np.zeros((4, 4))),
                   (np.ones((4, 4)), np.zeros(8)),
                   (np.ones(16), np.zeros((4, 4)))):
        with pytest.raises(ValueError, match=r"expected two arrays of shape "
                                             r"\(4, 4\)"):
            add(w, out)


@pytest.mark.parametrize("ndim", [1, 2])
def test_scaling_is_built_once_per_alpha(ndim, rng):
    """``scaling`` gives the bytes of ``scaling_diagonal(op, alpha) **
    -0.5``, read-only, built once per alpha."""
    op = DiffusionOperator(rng.standard_normal((6,) * ndim), 0.1)
    s = op.scaling(0.5)
    assert s.tobytes() == (scaling_diagonal(op, 0.5) ** -0.5).tobytes()
    assert not s.flags.writeable
    assert op.scaling(0.5) is s
    other = op.scaling(0.25)
    assert other.tobytes() == (scaling_diagonal(op, 0.25) ** -0.5).tobytes()


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


@pytest.mark.parametrize("bc", BOTH)
@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_2d_coefficients_are_byte_identical_to_padded_formula(n, bc, rng):
    """The 2D coefficients, built on a flat ghost grid in few arrays, give
    the bytes of the written-out formula on the ``np.pad`` extension."""
    pads = {DiffusionBc.ZERO_NEUMANN: {"mode": "symmetric"},
            DiffusionBc.ANTI_REFLECTIVE: {"mode": "reflect",
                                          "reflect_type": "odd"}}
    for _ in range(3):
        u = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        ext = np.pad(u, 1, **pads[bc])
        dh, dv = np.diff(ext, axis=1), np.diff(ext, axis=0)
        trans_h = 0.25 * (dv[:-1, :-1] + dv[1:, :-1] + dv[:-1, 1:] + dv[1:, 1:])
        trans_v = 0.25 * (dh[:-1, :-1] + dh[:-1, 1:] + dh[1:, :-1] + dh[1:, 1:])
        want = (1.0 / np.sqrt(dv[:, 1:-1] ** 2 + trans_v ** 2 + 0.05 * 0.05),
                1.0 / np.sqrt(dh[1:-1, :] ** 2 + trans_h ** 2 + 0.05 * 0.05))
        got = diffusion_coefficients(u, 0.05, bc)
        assert [a.shape for a in got] == [(n + 1, n), (n, n + 1)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
def test_2d_kernel_packs_zeros_where_no_band_reaches(n, rng):
    """The packed bands leave zeros wherever a band does not reach, also
    in memory that held other values: freed NaNs of the packed size come
    back to the kernel's buffer, and its apply stays the flux oracle."""
    op = DiffusionOperator(rng.standard_normal((n, n)), 0.1,
                           DiffusionBc.ANTI_REFLECTIVE)
    for _ in range(3):
        junk = np.full((5, n, n), np.nan)
        del junk
        add = band_kernel(op.bands(), 0.5)
        w = rng.standard_normal((n, n))
        want = 0.5 * oracles.diffusion_apply_padded(w, op.a, "anti_reflective")
        assert relative_error(add(w, np.zeros((n, n))), want) <= 1e-13


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


@pytest.mark.parametrize("bc", BOTH)
@pytest.mark.parametrize("shape", [(), (0,), (0, 0)])
def test_degenerate_grid_is_a_configuration_error(shape, bc):
    """A 0-d or an empty grid fails at construction, naming its shape."""
    with pytest.raises(ConfigurationError,
                       match=rf"^expected a nonempty 1D or square 2D grid, "
                             rf"got shape {re.escape(str(shape))}$"):
        DiffusionOperator(np.zeros(shape), 0.1, bc)
