import numpy as np
import pytest

from tvdeblur.krylov import (
    IndefiniteOperatorError,
    KrylovConfig,
    SolverBreakdownError,
    SolverDivergenceError,
    pbicgstab,
    pcg,
)


def matvec(a):
    return lambda x: a @ x


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(max_iterations=0)


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match=r"tol must be finite and positive, "
                                         rf"got {tol!r}"):
        KrylovConfig(tol=tol)


def test_pcg_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(6)
    out = pcg(matvec(np.eye(6)), None, b, np.zeros(6))
    assert out.converged and out.iterations == 1
    np.testing.assert_allclose(out.solution, b, atol=1e-14)


def test_pcg_exact_preconditioner_one_iteration(rng):
    d = np.arange(1.0, 11.0)
    b = rng.standard_normal(10)
    out = pcg(lambda x: d * x, lambda r: r / d, b, np.zeros(10))
    assert out.converged and out.iterations == 1
    np.testing.assert_allclose(out.solution, b / d, atol=1e-12)


def test_pcg_matches_direct_solve(rng):
    m = rng.standard_normal((8, 8))
    a = m @ m.T + 8 * np.eye(8)
    b = rng.standard_normal(8)
    out = pcg(matvec(a), None, b, np.zeros(8),
              KrylovConfig(tol=1e-12, max_iterations=100))
    np.testing.assert_allclose(out.solution, np.linalg.solve(a, b), atol=1e-8)


def test_pcg_zero_rhs_trivially_converged():
    out = pcg(matvec(np.eye(4)), None, np.zeros(4), np.zeros(4))
    assert out.converged and out.iterations == 0


def test_pcg_residuals_decrease_over_windows(rng):
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    out = pcg(matvec(a), None, b, np.zeros(30),
              KrylovConfig(tol=1e-12, max_iterations=200))
    h = out.residual_history
    assert all(h[i + 5] < h[i] for i in range(len(h) - 5))


def test_residual_history_has_one_entry_per_iteration(rng):
    m = rng.standard_normal((12, 12))
    spd = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    cfg = KrylovConfig(tol=1e-10, max_iterations=200)
    cases = [
        (pcg, matvec(spd), b),
        (pbicgstab, matvec(spd + np.triu(m, 1)), b),
        (pcg, matvec(spd), np.zeros(12)),        # zero residual at the start
        (pbicgstab, matvec(spd), np.zeros(12)),
        (pbicgstab, matvec(np.eye(12)), b),      # converges at the half step
    ]
    for solver, apply_a, rhs in cases:
        out = solver(apply_a, None, rhs, np.zeros(12), cfg)
        assert out.converged
        assert len(out.residual_history) == out.iterations
        if out.iterations:
            assert out.residual_history[-1] < cfg.tol
    capped = KrylovConfig(tol=1e-14, max_iterations=3)
    for solver in (pcg, pbicgstab):
        out = solver(matvec(spd), None, b, np.zeros(12), capped)
        assert not out.converged
        assert len(out.residual_history) == out.iterations == 3


def test_pcg_rejects_indefinite_operator(rng):
    a = -np.eye(5)
    with pytest.raises(IndefiniteOperatorError) as err:
        pcg(matvec(a), None, rng.standard_normal(5), np.zeros(5))
    assert err.value.iteration == 1


def test_pcg_detects_divergence(rng):
    def bad(x):
        return np.full_like(x, np.nan)

    with pytest.raises(SolverDivergenceError):
        pcg(bad, None, rng.standard_normal(4), np.zeros(4))


def test_pbicgstab_identity_one_iteration(rng):
    b = rng.standard_normal(7)
    out = pbicgstab(matvec(np.eye(7)), None, b, np.zeros(7))
    assert out.converged and out.iterations == 1
    np.testing.assert_allclose(out.solution, b, atol=1e-12)


def test_pbicgstab_matches_direct_solve(rng):
    a = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    b = rng.standard_normal(8)
    out = pbicgstab(matvec(a), None, b, np.zeros(8),
                    KrylovConfig(tol=1e-12, max_iterations=200))
    assert out.converged
    np.testing.assert_allclose(out.solution, np.linalg.solve(a, b), atol=1e-8)


def test_preconditioning_changes_path_not_fixed_point(rng):
    a = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    b = rng.standard_normal(10)
    m = np.diag(np.diag(a))
    cfg = KrylovConfig(tol=1e-12, max_iterations=300)
    plain = pbicgstab(matvec(a), None, b, np.zeros(10), cfg)
    prec = pbicgstab(matvec(a), lambda r: np.linalg.solve(m, r), b,
                     np.zeros(10), cfg)
    assert plain.converged and prec.converged
    np.testing.assert_allclose(plain.solution, prec.solution, atol=1e-8)

    spd = a @ a.T
    plain = pcg(matvec(spd), None, b, np.zeros(10), cfg)
    prec = pcg(matvec(spd), lambda r: r / np.diag(spd), b, np.zeros(10), cfg)
    np.testing.assert_allclose(plain.solution, prec.solution, atol=1e-8)


def test_nonconvergence_is_reported_not_raised(rng):
    m = rng.standard_normal((40, 40))
    a = m @ m.T + 1e-4 * np.eye(40)
    b = rng.standard_normal(40)
    cfg = KrylovConfig(tol=1e-14, max_iterations=3)
    for solver in (pcg, pbicgstab):
        out = solver(matvec(a), None, b, np.zeros(40), cfg)
        assert not out.converged
        assert out.iterations == 3


def test_pbicgstab_breakdown_raises_with_iteration():
    # skew-symmetric system: the shadow residual is orthogonal to A r0
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(SolverBreakdownError) as err:
        pbicgstab(matvec(a), None, np.array([1.0, 0.0]), np.zeros(2),
                  KrylovConfig(tol=1e-12, max_iterations=10))
    assert err.value.iteration >= 1


def test_deterministic_iteration_counts(rng):
    a = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    b = rng.standard_normal(12)
    cfg = KrylovConfig(tol=1e-10, max_iterations=100)
    runs = [pbicgstab(matvec(a), None, b, np.zeros(12), cfg).iterations
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_grid_shaped_iterates(rng):
    # solvers accept 2D grids without any flattening by the caller
    d = rng.uniform(1.0, 2.0, size=(5, 5))
    b = rng.standard_normal((5, 5))
    out = pcg(lambda x: d * x, None, b, np.zeros((5, 5)),
              KrylovConfig(tol=1e-12, max_iterations=50))
    assert out.solution.shape == (5, 5)
    np.testing.assert_allclose(out.solution, b / d, atol=1e-10)
