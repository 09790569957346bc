import re

import numpy as np
import pytest

from oracles import pbicgstab_loop, pcg_loop
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
    with pytest.raises(ValueError,
                       match=r"^max_iterations must be at least 1, got 0$"):
        KrylovConfig(max_iterations=0)


@pytest.mark.parametrize("count", [2.5, True, False])
def test_iteration_limit_must_be_an_integer(count):
    """A fractional limit, or a bool (an Integral to Python), fails at
    construction, not inside a solve."""
    with pytest.raises(ValueError, match=rf"^max_iterations must be an "
                                         rf"integer, got {count!r}$"):
        KrylovConfig(max_iterations=count)


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf"),
                                 pytest.param(10 ** 400, id="int-beyond-float")])
def test_tolerance_must_be_finite_and_positive(tol):
    """An integer beyond float range is not finite either."""
    with pytest.raises(ValueError, match=r"tol must be finite and positive, "
                                         rf"got {tol!r}"):
        KrylovConfig(tol=tol)


@pytest.mark.parametrize("tol", ["1e-6", True])
def test_tolerance_must_be_a_real_number(tol):
    """A string or a bool fails at construction, named with the field,
    not inside numpy's isfinite or as the number 1."""
    with pytest.raises(ValueError, match=rf"^tol must be a real number, "
                                         rf"got {re.escape(repr(tol))}$"):
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


# -- the in-place loops against the allocating reference loops ---------------

_SHAPES = {"n5": (5,), "n203": (203,), "grid16": (16, 16)}


def _system(shape, symmetric, seed):
    """A dense operator on arrays of ``shape``: SPD, or nonsymmetric with a
    dominant diagonal, and its matrix."""
    size = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((size, size))
    if symmetric:
        a = m @ m.T + size * np.eye(size)
    else:
        a = m + 2 * np.sqrt(size) * np.eye(size)
    return (lambda w: (a @ w.ravel()).reshape(shape)), a


def _preconditioner(kind, a, shape, seed):
    """No preconditioner, the diagonal ``w / d``, or a dense solve with a
    perturbed copy of ``a`` (SPD where ``a`` is)."""
    if kind == "none":
        return None
    if kind == "diag":
        d = np.diag(a).reshape(shape)
        return lambda w: w / d
    e = np.random.default_rng(seed + 1).standard_normal(a.shape)
    m = a + 0.1 * (e @ e.T if np.array_equal(a, a.T) else e)
    return lambda w: np.linalg.solve(m, w.ravel()).reshape(shape)


def _outcomes_match(run, reference):
    """Both solves give the same bytes, count and history, or the same
    error at the same iteration."""
    results = []
    for solve in (run, reference):
        try:
            results.append(solve())
        except (IndefiniteOperatorError, SolverBreakdownError,
                SolverDivergenceError) as err:
            results.append(err)
    got, want = results
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want) and got.iteration == want.iteration
        return want
    assert got.solution.tobytes() == want.solution.tobytes()
    assert got.iterations == want.iterations and got.converged == want.converged
    assert got.residual_history.tobytes() == want.residual_history.tobytes()
    return want


_CONFIGS = {
    "converges": KrylovConfig(tol=1e-10, max_iterations=500),
    "runs_out": KrylovConfig(tol=1e-14, max_iterations=3),
}


@pytest.mark.parametrize("config", sorted(_CONFIGS))
@pytest.mark.parametrize("precond", ["none", "diag", "dense"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("solver,reference,symmetric", [
    (pcg, pcg_loop, True), (pbicgstab, pbicgstab_loop, True),
    (pbicgstab, pbicgstab_loop, False),
])
def test_solver_matches_the_allocating_loop(solver, reference, symmetric,
                                            shape, precond, config):
    """The in-place updates keep every operation of the allocating loop:
    the same solution bytes, count and residual history, converged or
    out of iterations, from a zero and from a random start."""
    shape = _SHAPES[shape]
    apply_a, a = _system(shape, symmetric, seed=len(shape) * 1000 + shape[0])
    apply_minv = _preconditioner(precond, a, shape, seed=shape[0])
    rng = np.random.default_rng(7)
    b = rng.standard_normal(shape)
    for x0 in (np.zeros(shape), rng.standard_normal(shape)):
        outcome = _outcomes_match(
            lambda: solver(apply_a, apply_minv, b, x0, _CONFIGS[config]),
            lambda: reference(apply_a, apply_minv, b, x0, _CONFIGS[config]))
        assert outcome.converged == (config == "converges")
        assert not np.array_equal(outcome.solution, x0)


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("solver,reference", [(pcg, pcg_loop),
                                              (pbicgstab, pbicgstab_loop)])
def test_solver_matches_the_allocating_loop_on_aliases(solver, reference,
                                                       shape):
    """An apply may return its argument: the identity operator with no
    preconditioner hands the solver its own vectors back, and a zero
    right-hand side stops before the first iteration."""
    shape = _SHAPES[shape]
    b = np.random.default_rng(3).standard_normal(shape)
    for rhs in (b, np.zeros(shape)):
        outcome = _outcomes_match(
            lambda: solver(lambda w: w, None, rhs, np.zeros(shape)),
            lambda: reference(lambda w: w, None, rhs, np.zeros(shape)))
        assert outcome.iterations == (1 if rhs is b else 0)
    scaled = _outcomes_match(  # the scaled identity runs a few iterations
        lambda: solver(lambda w: w, lambda w: 0.5 * w, b, np.ones(shape)),
        lambda: reference(lambda w: w, lambda w: 0.5 * w, b, np.ones(shape)))
    assert scaled.converged


@pytest.mark.parametrize("precond", ["none", "diag", "dense"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("solver,symmetric", [(pcg, True), (pbicgstab, False)])
def test_given_start_residual_gives_the_bytes_of_the_b_form(solver, symmetric,
                                                            shape, precond):
    """With ``r0 = b - A x0`` given, a solve gives the bytes of the call
    that forms it, with one apply fewer, and leaves ``r0`` and ``x0``
    alone."""
    shape = _SHAPES[shape]
    apply_a, a = _system(shape, symmetric, seed=len(shape) * 1000 + shape[0])
    apply_minv = _preconditioner(precond, a, shape, seed=shape[0])
    rng = np.random.default_rng(5)
    b, x0 = rng.standard_normal(shape), rng.standard_normal(shape)
    r0 = b - apply_a(x0)
    before = (r0.tobytes(), x0.tobytes())
    applies = []

    def counted(w):
        applies.append(w)
        return apply_a(w)
    config = _CONFIGS["converges"]
    want = solver(counted, apply_minv, b, x0, config)
    b_form = len(applies)
    applies.clear()
    got = _outcomes_match(
        lambda: solver(counted, apply_minv, b, x0, config, r0=r0),
        lambda: want)
    assert len(applies) == b_form - 1 and got.converged
    assert (r0.tobytes(), x0.tobytes()) == before


def _nan_after(apply_a, calls):
    """``apply_a`` until its ``calls``-th call, then all NaN."""
    count = [0]

    def apply(w):
        count[0] += 1
        return apply_a(w) if count[0] < calls else np.full_like(w, np.nan)
    return apply


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("solver,reference,symmetric,case,error", [
    (pcg, pcg_loop, True, "negated", IndefiniteOperatorError),
    (pcg, pcg_loop, True, "nan", SolverDivergenceError),
    (pbicgstab, pbicgstab_loop, False, "nan", SolverDivergenceError),
    (pbicgstab, pbicgstab_loop, False, "skew", SolverBreakdownError),
    (pcg, pcg_loop, True, "rotated", SolverBreakdownError),
])
def test_solver_errors_match_the_allocating_loop(solver, reference, symmetric,
                                                 shape, case, error):
    """Each error is raised at the reference loop's iteration, with its
    message: nonpositive curvature, a NaN from the fourth apply on,
    a skew-symmetric operator, whose shadow angle vanishes at once, and a
    preconditioner that rotates ``r = e_1`` by 90 degrees in the plane of
    the first two coordinates, so that ``r . z`` is 0 from the start."""
    shape = _SHAPES[shape]
    apply_a, a = _system(shape, symmetric, seed=shape[0])
    b = np.random.default_rng(11).standard_normal(shape)
    if case in ("skew", "rotated"):
        b = np.zeros(shape)
        b.flat[0] = 1.0
    if case == "skew":  # from e_1, the shadow angle e_1 . (S e_1) is 0
        a = a - a.T

    def rotated(w):
        z = np.zeros_like(w)
        z.flat[0], z.flat[1] = -w.flat[1], w.flat[0]
        return z
    operators = {
        "negated": lambda: (lambda w: -apply_a(w)),
        "nan": lambda: _nan_after(apply_a, 4),
        "skew": lambda: (lambda w: (a @ w.ravel()).reshape(shape)),
        "rotated": lambda: (lambda w: w),
    }
    apply_minv = rotated if case == "rotated" else None
    config = KrylovConfig(tol=1e-14, max_iterations=50)
    err = _outcomes_match(
        lambda: solver(operators[case](), apply_minv, b, np.zeros(shape),
                       config),
        lambda: reference(operators[case](), apply_minv, b, np.zeros(shape),
                          config))
    assert isinstance(err, error)
