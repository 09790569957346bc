import os
import re
import subprocess
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import probe_dense
from tvdeblur import pipeline
from tvdeblur.blur import (
    FAST_TRANSFORMS,
    BoundaryCondition,
    StructuredBlurOperator,
    SymmetricPsf,
)
from tvdeblur.harness import (
    BenchmarkSpec,
    gen_psf,
    gen_signal_1d,
    make_problem,
)
from tvdeblur.krylov import (KrylovConfig, NumericalFailure,
                             SolverDivergenceError, pcg)
from tvdeblur.pipeline import (
    ConfigurationError,
    Formulation,
    PrecondSelector,
    RestorationConfig,
    StepSystem,
    el_residual,
    restore,
    unconverged_reason,
)
from tvdeblur.precond import (
    IndefinitePreconditionerError,
    assemble_preconditioner,
)
from tvdeblur.transforms import TransformKind, apply_1d
from tvdeblur.tv import (MIN_BETA, DiffusionBc, DiffusionOperator,
                         InvalidScalingError)


def small_problem(n=64, nsr=0.01, seed=2023):
    spec = BenchmarkSpec(dimension=1, ns=(n,), nsr=nsr, seed=seed)
    return make_problem(spec, n)


def test_config_invariants():
    with pytest.raises(ConfigurationError):
        RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                          beta=0.1, formulation=Formulation.REBLUR)
    with pytest.raises(ConfigurationError):
        RestorationConfig(bc_h=BoundaryCondition.PERIODIC, alpha=1e-3,
                          beta=0.1, preconditioner=PrecondSelector.X)
    with pytest.raises(ConfigurationError):
        RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=-1.0,
                          beta=0.1)
    with pytest.raises(ConfigurationError,
                       match=r"^fp_max must be at least 1, got 0$"):
        RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                          beta=0.1, fp_max=0)
    # errors surface before any compute
    with pytest.raises(ConfigurationError):
        restore(np.ones(16), SymmetricPsf([1.0]),
                RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE,
                                  alpha=1e-3, beta=0.1,
                                  formulation=Formulation.REBLUR))


@pytest.mark.parametrize("count", [2.5, True])
def test_fp_max_must_be_an_integer(count):
    """A fractional step limit, or True (an Integral to Python, not a limit
    of 1), fails at construction, not inside restore."""
    with pytest.raises(ConfigurationError,
                       match=rf"^fp_max must be an integer, got {count!r}$"):
        RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                          beta=0.1, fp_max=count)


@pytest.mark.parametrize("field,value,kind", [
    ("bc_h", "reflective", "BoundaryCondition"),
    ("bc_l", "zero_neumann", "DiffusionBc"),
    ("formulation", "normal", "Formulation"),
    ("preconditioner", "x", "PrecondSelector"),
    ("inner", None, "KrylovConfig"),
])
def test_fields_must_hold_their_type(field, value, kind):
    """A string is not coerced to its enum: the config names the field, the
    value and the type it needs."""
    kwargs = dict(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3, beta=0.1)
    kwargs[field] = value
    with pytest.raises(ConfigurationError,
                       match=rf"^{field} must be a {kind}, got {value!r}$"):
        RestorationConfig(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("alpha", "1e-3"), ("beta", "0.1"), ("fp_tol", "1e-3"), ("alpha", True),
])
def test_settings_must_be_real_numbers(field, value):
    """A string or a bool is not a setting: the config names the field and
    the value, rather than failing inside isfinite or reading True as 1."""
    kwargs = dict(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3, beta=0.1)
    kwargs[field] = value
    message = rf"^{field} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigurationError, match=message):
        RestorationConfig(**kwargs)


_SETTING = st.floats(min_value=1e-4, max_value=10.0) | st.floats()
_COUNT = st.integers(min_value=-1, max_value=3) | st.floats(max_value=3.0)
_PROPERTY_PROBLEM = small_problem(n=32)


@settings(max_examples=300)
@given(bc_h=st.sampled_from(BoundaryCondition),
       bc_l=st.sampled_from(DiffusionBc),
       formulation=st.sampled_from(Formulation),
       selector=st.sampled_from(PrecondSelector),
       alpha=_SETTING, beta=_SETTING, fp_tol=_SETTING, fp_max=_COUNT,
       max_iterations=st.integers(min_value=-1, max_value=50)
       | st.floats(max_value=50.0))
def test_a_config_that_constructs_restores(bc_h, bc_l, formulation, selector,
                                           alpha, beta, fp_tol, fp_max,
                                           max_iterations):
    """Every setting fails at construction or not at all: a config that
    constructs restores, or stops on a numerical failure, and never meets
    a TypeError or KeyError inside restore."""
    try:
        config = RestorationConfig(
            bc_h=bc_h, bc_l=bc_l, formulation=formulation,
            preconditioner=selector, alpha=alpha, beta=beta, fp_tol=fp_tol,
            fp_max=fp_max, inner=KrylovConfig(max_iterations=max_iterations))
    except ConfigurationError:
        return
    psf, observed, u_true = _PROPERTY_PROBLEM
    try:
        report = restore(observed, psf, config, u_true=u_true)
    except NumericalFailure:
        return
    assert 1 <= report.fp_steps <= fp_max


@pytest.mark.parametrize("field", ["alpha", "beta", "fp_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"),
                                   float("-inf"),
                                   pytest.param(10 ** 400, id="int-beyond-float")])
def test_settings_must_be_finite_and_positive(field, value):
    """A bad alpha, beta or fp_tol fails at construction, naming it; an
    integer beyond float range is not finite either."""
    settings = dict(alpha=1e-3, beta=0.1, fp_tol=1e-3)
    settings[field] = value
    with pytest.raises(ConfigurationError,
                       match=rf"^{field} must be finite and positive, "
                             rf"got {value!r}$"):
        RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, **settings)


@pytest.mark.parametrize("beta", [1e-300, 1e-160, 1e-155,
                                  float(np.nextafter(MIN_BETA, 0))])
def test_beta_whose_square_underflows_is_rejected(beta):
    """Below sqrt(finfo(float).tiny) beta**2 underflows, and the diffusion
    coefficients of flat edges would divide by zero: the config fails at
    construction, naming beta and the bound."""
    with pytest.raises(ConfigurationError,
                       match=r"^beta must be at least sqrt\(finfo\(float\)"
                             rf"\.tiny\) = {MIN_BETA!r}, .* got "
                             rf"{beta!r}$"):
        RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                          beta=beta, preconditioner=PrecondSelector.X_D)
    assert MIN_BETA ** 2 == np.finfo(float).tiny
    RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                      beta=MIN_BETA)


@pytest.mark.parametrize("data,coefficients,u_true,problem", [
    (np.ones(20), np.full((3, 3), 1 / 9), None, "1D data needs a 1D PSF"),
    (np.ones((20, 20)), np.full(3, 1 / 3), None, "2D data needs a 2D PSF"),
    (np.ones((20, 21)), np.full((3, 3), 1 / 9), None, "2D data must be square"),
    (np.ones((4, 4, 4)), np.full((3, 3), 1 / 9), None, "data must be 1D or 2D"),
    (np.ones(20), np.full(3, 1 / 3), np.ones((20, 1)),
     "u_true must have the data's shape"),
    (np.ones(20), np.full(3, 1 / 3), np.ones(10),
     "u_true must have the data's shape"),
    (np.ones((20, 20)), np.full((3, 3), 1 / 9), np.ones(400),
     "u_true must have the data's shape"),
    (np.ones(20), np.full(3, 1 / 3), np.zeros(20),
     "u_true must have nonzero norm"),
    (np.ones(20), np.full(3, 1 / 3), np.r_[np.ones(19), np.nan],
     "u_true must be finite"),
    (np.ones((20, 20)), np.full((3, 3), 1 / 9), np.full((20, 20), np.inf),
     "u_true must be finite"),
])
def test_shape_mismatch_fails_before_any_operator(monkeypatch, data,
                                                  coefficients, u_true,
                                                  problem):
    def no_operator(*args, **kwargs):
        raise AssertionError("blur operator built before shape validation")

    monkeypatch.setattr("tvdeblur.pipeline.StructuredBlurOperator", no_operator)
    psf = SymmetricPsf(coefficients)
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1)
    with pytest.raises(ConfigurationError) as info:
        restore(data, psf, cfg, u_true=u_true)
    message = str(info.value)
    assert message.startswith(problem)
    assert f"data shape {data.shape}" in message
    if u_true is None:
        assert f"PSF shape {coefficients.shape}" in message
    else:
        assert f"u_true shape {u_true.shape}" in message


def _size_limits(label: str, selector: str) -> list[int]:
    """Smallest sizes ``label``/``selector`` takes with a 3-tap PSF, in the
    order they are checked: the anti-reflective transform needs 3, the
    ``P`` family's projection 5."""
    limits = [] if label == "R" else [3]
    if label.startswith("AR+Reblur") and selector in ("x", "d_x", "x_d"):
        limits.append(5)
    return limits


@pytest.mark.parametrize("selector", [s.value for s in PrecondSelector])
@pytest.mark.parametrize("label", list(pipeline.CONFIGURATIONS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_small_sizes_run_or_fail_before_any_operator(monkeypatch, n, label,
                                                     selector):
    """A size below a configuration's limit fails as a configuration error
    naming n, the configuration and the first limit it misses, before any
    operator; a size at or above every limit restores."""
    bc_h, bc_l, formulation, _ = pipeline.CONFIGURATIONS[label]
    cfg = RestorationConfig(bc_h=bc_h, bc_l=bc_l, formulation=formulation,
                            preconditioner=PrecondSelector(selector),
                            alpha=1e-2, beta=0.1)
    v = np.linspace(1.0, 2.0, n)
    psf = SymmetricPsf([0.25, 0.5, 0.25])
    missed = [limit for limit in _size_limits(label, selector) if n < limit]
    if not missed:
        report = restore(v, psf, cfg, u_true=v)
        assert np.all(np.isfinite(report.restored)) and np.isfinite(report.rre)
        return

    def no_operator(*args, **kwargs):
        raise AssertionError("blur operator built before the size check")

    monkeypatch.setattr("tvdeblur.pipeline.StructuredBlurOperator", no_operator)
    with pytest.raises(ConfigurationError) as info:
        restore(v, psf, cfg, u_true=v)
    message = str(info.value)
    assert message.startswith(f"n={n} is too small for ")
    assert message.endswith(f"it needs n >= {missed[0]}")
    assert (f"({bc_h.value} blur, {formulation.value} form, "
            f"selector {selector})") in message


# every blur BC and selector that takes n = 1 and reads the bands of L
ONE_SAMPLE_CASES = [
    (BoundaryCondition.ZERO_DIRICHLET, "diag"),
    (BoundaryCondition.PERIODIC, "diag"),
    *((BoundaryCondition.REFLECTIVE, s) for s in ("diag", "x", "d_x", "x_d")),
]


@pytest.mark.parametrize("bc_h,selector", ONE_SAMPLE_CASES)
@pytest.mark.parametrize("ndim", [1, 2])
def test_one_sample_anti_reflective_diffusion_restores(ndim, bc_h, selector):
    """At n = 1 the anti-reflective diffusion operator is L = 0, and its
    bands say so: the restore of a 1-tap blur returns the data."""
    cfg = RestorationConfig(bc_h=bc_h, bc_l=DiffusionBc.ANTI_REFLECTIVE,
                            preconditioner=PrecondSelector(selector),
                            alpha=1e-2, beta=0.1)
    v = np.full((1,) * ndim, 1.5)
    report = restore(v, SymmetricPsf(np.ones((1,) * ndim)), cfg, u_true=v)
    assert np.all(np.isfinite(report.restored)) and np.isfinite(report.rre)
    assert np.isfinite(report.final_gradient_norm)
    np.testing.assert_allclose(report.restored, v)


@pytest.mark.parametrize("shape,coefficients,label,selector,problem", [
    ((3,), np.full(7, 1 / 7), "R", "x_d", "a PSF of half-width 3"),
    ((3,), np.full(7, 1 / 7), "AR+Reblur+AR", "none", "a PSF of half-width 3"),
    ((4, 4), np.full((3, 3), 1 / 9), "AR+Reblur+AR", "x_d",
     "preconditioner 'P_D'"),
], ids=["1d-half-width-R", "1d-half-width-AR", "2d-projection"])
def test_size_errors_name_the_limit(monkeypatch, shape, coefficients, label,
                                    selector, problem):
    def no_operator(*args, **kwargs):
        raise AssertionError("blur operator built before the size check")

    monkeypatch.setattr("tvdeblur.pipeline.StructuredBlurOperator", no_operator)
    bc_h, bc_l, formulation, _ = pipeline.CONFIGURATIONS[label]
    cfg = RestorationConfig(bc_h=bc_h, bc_l=bc_l, formulation=formulation,
                            preconditioner=PrecondSelector(selector),
                            alpha=1e-2, beta=0.1)
    with pytest.raises(ConfigurationError,
                       match=rf"^n={shape[0]} is too small for {problem} "
                             rf"\(.*\): it needs n >= {shape[0] + 1}$"):
        restore(np.ones(shape), SymmetricPsf(coefficients), cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_data_restores():
    """1e150 is below the data-norm bound sqrt(finfo(float).max)."""
    psf, observed, u_true = small_problem()
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1)
    report = restore(1e150 * observed, psf, cfg, u_true=1e150 * u_true)
    assert report.fp_converged and report.inner_converged
    assert np.all(np.isfinite(report.restored)) and np.isfinite(report.rre)


#: dimension -> (n, alpha, beta) of the power-of-two scaling cells
_SCALING_CELLS = {1: (64, 1e-3, 0.1), 2: (32, 1e-2, 0.01)}


@lru_cache(maxsize=None)
def scaled_restore(dim, label, selector, c):
    """One cell's restore with its data, alpha, beta and u_true scaled by
    ``c``.  With ``u`` and beta scaled by c, ``alpha L(u)`` is unchanged, so
    each step solves the unit-scale system with a right-hand side c times
    as large."""
    n, alpha, beta = _SCALING_CELLS[dim]
    spec = BenchmarkSpec(dimension=dim, ns=(n,))
    psf, observed, u_true = make_problem(spec, n)
    config = spec.restoration_config(*pipeline.CONFIGURATIONS[label][:3],
                                     selector, c * alpha, c * beta)
    return restore(c * observed, psf, config, u_true=c * u_true)


@pytest.mark.parametrize("c", [2.0 ** -400, 2.0 ** -64, 2.0 ** 64],
                         ids=["2^-400", "2^-64", "2^64"])
@pytest.mark.parametrize("selector", [s.value for s in PrecondSelector])
@pytest.mark.parametrize("label", list(pipeline.CONFIGURATIONS))
@pytest.mark.parametrize("dim", [1, 2])
def test_restore_is_equivariant_under_power_of_two_scaling(dim, label,
                                                           selector, c):
    """Scaling by a power of two is exact in floating point, so the
    restore of the scaled problem is the unit-scale restore times c, in
    the same per-step iterations."""
    unit = scaled_restore(dim, label, selector, 1.0)
    scaled = scaled_restore(dim, label, selector, c)
    assert scaled.restored.tobytes() == (c * unit.restored).tobytes()
    assert scaled.inner_iterations == unit.inner_iterations
    assert scaled.rre == unit.rre
    assert scaled.gradient_norms == [c * g for g in unit.gradient_norms]
    assert scaled.final_gradient_norm == c * unit.final_gradient_norm


@pytest.mark.parametrize("selector", ["x", "d_x", "x_d"])
@pytest.mark.parametrize("label", ["AR+Reblur+ZN", "AR+Reblur+AR"])
def test_bicgstab_takes_the_unit_scale_steps_at_2_to_the_minus_500(label,
                                                                  selector):
    """BiCGstab's shadow angle ``r0 . v`` is of the order ``||r0||^2``,
    here 2^-1000 = 9.3e-302 times its unit-scale value; it vanishes
    relative to that scale, as ``rho`` does, not below an absolute 1e-300."""
    unit = scaled_restore(1, label, selector, 1.0)
    tiny = scaled_restore(1, label, selector, 2.0 ** -500)
    assert tiny.fp_steps == unit.fp_steps
    assert tiny.inner_iterations == unit.inner_iterations


@pytest.mark.parametrize("c", [2.0 ** -500, 2.0 ** -548, 2.0 ** -1000],
                         ids=["2^-500", "2^-548", "2^-1000"])
def test_rre_of_a_tiny_reference_is_its_unit_scale_value(c):
    """Below about 1e-162 the sum of squares of a unit-scale ``u_true``
    times c underflows to 0; such a ``u_true`` is still accepted, and at
    every scale the RRE is the unit-scale RRE of ``restored / c`` against
    ``u_true``, to the bit (the data and ``u_true`` are scaled by c, alpha
    and beta not)."""
    n, alpha, beta = _SCALING_CELLS[1]
    spec = BenchmarkSpec(dimension=1, ns=(n,))
    psf, observed, u_true = make_problem(spec, n)
    config = spec.restoration_config(*pipeline.CONFIGURATIONS["R"][:3], "x",
                                     alpha, beta)
    report = restore(c * observed, psf, config, u_true=c * u_true)
    unit = (np.linalg.norm(report.restored / c - u_true)
            / np.linalg.norm(u_true))
    assert report.rre == unit


def test_oversized_data_fails_before_any_operator(monkeypatch):
    """At 1e160 the data norm exceeds sqrt(finfo(float).max), and PCG's
    first inner product would overflow."""
    def no_operator(*args, **kwargs):
        raise AssertionError("blur operator built before the data-norm check")

    psf, observed, _ = small_problem()
    monkeypatch.setattr("tvdeblur.pipeline.StructuredBlurOperator", no_operator)
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1)
    with pytest.raises(ConfigurationError,
                       match=r"exceeds sqrt\(finfo\(float\)\.max\) = 1\.34"):
        restore(1e160 * observed, psf, cfg)


@pytest.mark.parametrize("factor,fails", [(1e153, False), (1.7e153, True)])
def test_iterate_norm_overflow_is_not_convergence(factor, fails):
    """Just below the data-norm bound the restored iterate, sharper than the
    data, can have a norm that overflows; the relative change would then read
    0 and fake convergence."""
    psf, observed, _ = small_problem()
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=0.1,
                            beta=0.01)
    if fails:
        with pytest.raises(SolverDivergenceError,
                           match="fixed-point loop .* at iteration 1"):
            restore(factor * observed, psf, cfg)
    else:
        report = restore(factor * observed, psf, cfg)
        assert report.fp_converged and report.fp_steps == 2


def test_overflowing_alpha_fails_without_numpy_warnings():
    """An alpha the settings accept can overflow the system: the solvers'
    finite checks name the failure, with no numpy warning ahead of it."""
    psf, observed, _ = small_problem()
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e300,
                            beta=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverDivergenceError,
                           match="non-finite values at iteration 1"):
            restore(observed, psf, cfg)


def test_cli_overflowing_alpha_exits_3_without_numpy_warnings(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tvdeblur.cli", "restore", "--n", "64",
         "--alpha", "1e300", "--beta", "0.1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert "numerical failure: pcg produced non-finite values" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("bc_l", [DiffusionBc.ANTI_REFLECTIVE,
                                  DiffusionBc.ZERO_NEUMANN])
def test_indefinite_p_d_on_rough_2d_data_has_no_fallback(monkeypatch, bc_l):
    """AR+Reblur/x_d on standard-normal 64x64 data (default_rng(20230814)),
    Gaussian PSF m=16, sigma=8, alpha=1e-2, beta=0.01: the assembled P_D has
    a negative eigenvalue at step 1, and restore reports it instead of
    falling back to another preconditioner."""
    data = np.random.default_rng(20230814).standard_normal((64, 64))
    kinds = []
    assemble = pipeline.assemble_preconditioner

    def recording(kind, *args):
        kinds.append(kind)
        return assemble(kind, *args)

    monkeypatch.setattr(pipeline, "assemble_preconditioner", recording)
    cfg = RestorationConfig(bc_h=BoundaryCondition.ANTI_REFLECTIVE, bc_l=bc_l,
                            formulation=Formulation.REBLUR,
                            alpha=np.float64(1e-2), beta=0.01,
                            preconditioner=PrecondSelector.X_D)
    with pytest.raises(IndefinitePreconditionerError) as info:
        restore(data, gen_psf("gaussian", 16, 8.0), cfg)
    assert kinds == ["P_D"]
    assert info.value.kind == "P_D" and info.value.min_eigenvalue < 0
    assert str(info.value).startswith(
        "preconditioner 'P_D' is indefinite at alpha=0.01 (smallest eigenvalue -")


def test_unconverged_reason_names_the_limit_that_stopped_the_run():
    """The one reason a sweep cell records and the CLI prints."""
    psf, observed, _ = small_problem()
    base = dict(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3, beta=0.1,
                preconditioner=PrecondSelector.X_D)
    starved = RestorationConfig(**base, fp_max=2,
                                inner=KrylovConfig(max_iterations=1))
    assert unconverged_reason(restore(observed, psf, starved), starved) == \
        "an inner solve stopped at its iteration limit 1"
    short = RestorationConfig(**base, fp_max=1)
    assert unconverged_reason(restore(observed, psf, short), short) == \
        "fixed-point loop did not reach tolerance 0.001 in 1 steps"
    ample = RestorationConfig(**base)
    assert unconverged_reason(restore(observed, psf, ample), ample) is None


def test_resolved_kind_labels():
    cfg = RestorationConfig(bc_h=BoundaryCondition.ANTI_REFLECTIVE, alpha=1e-3,
                            beta=0.1, formulation=Formulation.REBLUR,
                            preconditioner=PrecondSelector.D_X)
    assert cfg.resolved_kind() == "D_P"
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1, preconditioner=PrecondSelector.X_D)
    assert cfg.resolved_kind() == "R_D"


def step_system(l_op, alpha, v, psf=SymmetricPsf(np.full(3, 1 / 3.0)),
                bc_h=BoundaryCondition.REFLECTIVE,
                formulation=Formulation.NORMAL,
                selector=PrecondSelector.NONE):
    """A restore's ``StepSystem`` for data ``v`` with ``l_op`` frozen in."""
    cfg = RestorationConfig(bc_h=bc_h, alpha=alpha, beta=0.1,
                            formulation=formulation, preconditioner=selector)
    system = StepSystem(psf, cfg, v)
    system.freeze(l_op)
    return system.h_op, system


def test_step_system_scaling_dense_identity(rng):
    n = 8
    l_op = DiffusionOperator(rng.standard_normal(n), 0.1)
    alpha = 1e-2
    h_op, system = step_system(l_op, alpha, rng.standard_normal(n))
    h = oracles.dense_of(h_op)
    l_dense = oracles.dense_of(l_op)
    a = h.T @ h + alpha * l_dense
    np.testing.assert_allclose(probe_dense(system.apply, (n,)), a, atol=1e-12)
    s = (1.0 + alpha * np.diag(l_dense)) ** -0.5
    u = rng.standard_normal(n)
    gradient = pipeline.el_residual(system, u)
    apply_scaled, rhs, u_scaled, r0, unscale = system.scale(u, gradient)
    np.testing.assert_allclose(probe_dense(apply_scaled, (n,)),
                               np.diag(s) @ a @ np.diag(s), atol=1e-12)
    np.testing.assert_allclose(rhs, s * system.rhs, atol=1e-14)
    np.testing.assert_allclose(u_scaled, u / s, atol=1e-14)
    np.testing.assert_allclose(r0, rhs - apply_scaled(u_scaled), atol=1e-12)
    np.testing.assert_allclose(unscale(u_scaled), u, atol=1e-14)


def test_step_system_small_alpha_scaling_is_identity(rng):
    n = 6
    l_op = DiffusionOperator(rng.standard_normal(n), 0.1)
    _, system = step_system(l_op, 1e-300, np.ones(n))
    apply_scaled, rhs, u_scaled, _, _ = system.scale(np.ones(n),
                                                     np.zeros(n))
    np.testing.assert_allclose(u_scaled, np.ones(n), atol=1e-12)
    np.testing.assert_allclose(apply_scaled(np.ones(n)),
                               system.apply(np.ones(n)), atol=1e-12)
    np.testing.assert_allclose(rhs, system.rhs, atol=1e-12)


def check_krylov_problem(rng, n, h, label, selector):
    """``krylov_problem`` is the selector's definition: the solve ``M^{-1}``
    and operator ``A`` it returns multiply to ``A``, ``D^{-1} A``,
    ``X^{-1} A`` or ``D_X^{-1} A`` on the unscaled system, and to
    ``X_D^{-1} S A S`` with ``S = D^{-1/2}`` for ``x_d``, whose start and
    map back go through ``S``.  The start residual it derives from the
    gradient, which it leaves alone, is ``b - A x0`` of that system.  ``D``
    and ``A`` come from dense oracles."""
    alpha = 1e-2
    shape = (n,) * h.ndim
    bc_h, bc_l, formulation, family = pipeline.CONFIGURATIONS[label]
    l_op = DiffusionOperator(rng.standard_normal(shape), 0.1, bc_l)
    h_op, system = step_system(l_op, alpha, rng.standard_normal(shape),
                               SymmetricPsf(h), bc_h, formulation, selector)
    h_dense = oracles.dense_of(h_op)
    b = h_dense if formulation is Formulation.REBLUR else h_dense.T
    l_dense = oracles.dense_of(l_op)
    a = b @ h_dense + alpha * l_dense
    s = ((1.0 + alpha * np.diag(l_dense)) ** -0.5).reshape(shape)
    u = rng.standard_normal(shape)
    gradient = pipeline.el_residual(system, u)
    before = gradient.tobytes()
    apply_a, solve, rhs, start, r0, back = system.krylov_problem(u, gradient)
    assert gradient.tobytes() == before
    kind = {PrecondSelector.X: family, PrecondSelector.D_X: f"D_{family}",
            PrecondSelector.X_D: f"{family}_D"}.get(selector)
    m = (np.eye(n ** h.ndim) if selector is PrecondSelector.NONE
         else np.diag(s.ravel() ** -2) if selector is PrecondSelector.DIAG
         else oracles.dense_preconditioner(
             pipeline.assemble_preconditioner(kind, h_op, l_op, alpha)))
    if selector is PrecondSelector.X_D:
        a = np.diag(s.ravel()) @ a @ np.diag(s.ravel())
        want_rhs, want_start = s * system.rhs, u / s
    else:
        want_rhs, want_start = system.rhs, u
    np.testing.assert_allclose(probe_dense(apply_a, shape), a, atol=1e-12)
    precond_a = (probe_dense(lambda w: solve(apply_a(w)), shape)
                 if solve else probe_dense(apply_a, shape))
    np.testing.assert_allclose(precond_a, np.linalg.solve(m, a), atol=1e-9)
    np.testing.assert_allclose(rhs, want_rhs, atol=1e-14)
    np.testing.assert_allclose(start, want_start, atol=1e-14)
    np.testing.assert_allclose(r0, rhs - apply_a(start), atol=1e-12)
    np.testing.assert_allclose(back(start), u, atol=1e-14)


@pytest.mark.parametrize("ndim", [1, 2])
def test_x_d_step_builds_the_diffusion_bands_once(ndim, rng, monkeypatch):
    """Scaling, projection and the projection's diagonal wrap all read the
    band structure; the operator builds it once and hands out read-only
    arrays, in dicts of the caller's own."""
    builds = []
    cache = DiffusionOperator._cache

    def counted(self, bands):
        builds.append(ndim)
        return cache(self, bands)

    monkeypatch.setattr(DiffusionOperator, "_cache", counted)
    shape = (8,) * ndim
    u = rng.standard_normal(shape)
    l_op = DiffusionOperator(u, 0.1)
    psf = SymmetricPsf(np.full((3,) * ndim, 1 / 3.0 ** ndim))
    _, system = step_system(l_op, 1e-2, rng.standard_normal(shape), psf,
                            selector=PrecondSelector.X_D)
    system.krylov_problem(rng.standard_normal(shape), np.zeros(shape))
    assert builds == [ndim]
    l_op.bands().clear()
    cached = l_op.bands()
    fresh = DiffusionOperator(u, 0.1).bands()
    assert builds == [ndim, ndim]
    assert cached.keys() == fresh.keys()
    for key, values in cached.items():
        assert not values.flags.writeable
        assert values.tobytes() == fresh[key].tobytes()


@pytest.mark.parametrize("selector", list(PrecondSelector))
@pytest.mark.parametrize("label", list(pipeline.CONFIGURATIONS))
def test_krylov_problem_dense_per_selector(rng, label, selector):
    check_krylov_problem(rng, 9, np.full(3, 1 / 3.0), label, selector)


@pytest.mark.parametrize("h", [
    np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0, oracles.disk_kernel(1),
], ids=["separable", "disk"])
@pytest.mark.parametrize("selector", list(PrecondSelector))
@pytest.mark.parametrize("label", list(pipeline.CONFIGURATIONS))
def test_krylov_problem_dense_per_selector_2d(rng, label, selector, h):
    """On a 2D grid, through both data terms: the Kronecker products of a
    separable PSF and ``back(forward(w))`` of a non-separable one."""
    check_krylov_problem(rng, 5, h, label, selector)


#: (blur BC, formulation, diffusion BC) of every valid restore system
SYSTEM_CASES = [(bc_h, formulation, bc_l)
                for bc_h, formulation in pipeline.DATA_TERMS
                for bc_l in DiffusionBc]


def public_applies(h_op, formulation):
    """``(H, B)`` on the operator's public applies, which allocate: the
    fast ones under a fast blur BC, ``B = H^T`` in the normal form under
    anti-reflective blur."""
    forward = h_op.apply_fast if h_op.bc in FAST_TRANSFORMS else h_op.apply
    if h_op.bc is BoundaryCondition.ANTI_REFLECTIVE and \
            formulation is Formulation.NORMAL:
        return forward, h_op.apply_transpose_fast
    return forward, forward


@pytest.mark.parametrize("shape,h", [
    ((33,), np.full(5, 0.2)), ((203,), np.full(23, 1 / 23)),
    ((16, 16), oracles.two_gaussians_kernel(3)),
], ids=["1d", "1d-203", "2d-non-separable"])
@pytest.mark.parametrize("bc_h,formulation,bc_l", SYSTEM_CASES)
def test_1d_step_apply_composes_two_blur_applies(rng, bc_h, formulation, bc_l,
                                                 shape, h):
    """In 1D, and in 2D with a non-separable PSF, the data term that runs
    ``H`` and then ``B`` on ``w`` gives the bytes of ``back(forward(w))``
    on the public applies in every system, and so does the right-hand
    side.  ``apply`` and the scaled apply add the diffusion term to it:
    with the bytes of the flux form in 1D, to 1e-13 relative in 2D, where
    the five-band kernel adds it.  ``w`` is left alone."""
    alpha = 1e-2
    l_op = DiffusionOperator(rng.standard_normal(shape), 0.1, bc_l)
    v = rng.standard_normal(shape)
    h_op, system = step_system(l_op, alpha, v, SymmetricPsf(h), bc_h,
                               formulation)
    forward, back = public_applies(h_op, formulation)
    w = rng.standard_normal(shape)
    before = w.copy()
    want = back(forward(w))
    np.testing.assert_array_equal(system.data_term(w), want)
    np.testing.assert_array_equal(system.rhs, back(v))
    s = pipeline.scaling_diagonal(l_op, alpha) ** -0.5
    apply_scaled = system.scale(w, pipeline.el_residual(system, w))[0]
    pairs = [(system.apply(w), want + alpha * l_op.apply(w)),
             (apply_scaled(w),
              s * (back(forward(s * w)) + alpha * l_op.apply(s * w)))]
    for got, expected in pairs:
        if len(shape) == 1:
            np.testing.assert_array_equal(got, expected)
        else:  # the 2D diffusion term runs in the five-band kernel
            assert np.linalg.norm(got - expected) <= \
                1e-13 * np.linalg.norm(expected)
    np.testing.assert_array_equal(w, before)


@pytest.mark.parametrize("label", list(pipeline.CONFIGURATIONS))
@pytest.mark.parametrize("separable", [True, False], ids=["gaussian", "disk"])
def test_2d_step_apply_tensor_transform_count(monkeypatch, rng, label,
                                              separable):
    """A 2D matvec with a separable PSF runs no tensor transform: it is two
    products with the dense 1D data terms.  With a non-separable PSF it runs
    four, two for ``H`` and two for ``B``, in every configuration: at this
    side the transforms of the diagonalized applies run in the parity
    layout, one ``parity_apply_2d`` each."""
    from tvdeblur import transforms

    n = 16
    bc_h, bc_l, formulation, _ = pipeline.CONFIGURATIONS[label]
    psf = gen_psf("gaussian", 2, 1.0) if separable \
        else SymmetricPsf(oracles.disk_kernel(2))
    l_op = DiffusionOperator(rng.standard_normal((n, n)), 0.1, bc_l)
    _, system = step_system(l_op, 1e-2, rng.standard_normal((n, n)),
                            psf, bc_h, formulation)
    calls = []
    parity_apply_2d = transforms.parity_apply_2d

    def counting(*args, **kwargs):
        calls.append(args[0])
        return parity_apply_2d(*args, **kwargs)

    monkeypatch.setattr(transforms, "parity_apply_2d", counting)
    system.apply(rng.standard_normal((n, n)))
    assert len(calls) == (0 if separable else 4)


def oracle_step_apply(w, psf, bc_h, formulation, l_op, alpha):
    """``B H w + alpha L w`` on the scalar-rule blur and diffusion oracles;
    ``B = H^T`` is the reference fold ``apply_transpose``."""
    hw = oracles.blur_2d(w, psf.coefficients, bc_h.value)
    if bc_h is BoundaryCondition.ANTI_REFLECTIVE and \
            formulation is Formulation.NORMAL:
        bhw = StructuredBlurOperator(psf, bc_h, w.shape[0]).apply_transpose(hw)
    else:
        bhw = oracles.blur_2d(hw, psf.coefficients, bc_h.value)
    return bhw + alpha * oracles.diffusion_apply_padded(w, l_op.a,
                                                        l_op.bc.value)


def separable_psf(n: int, anisotropic: bool) -> SymmetricPsf:
    """The harness's 2D Gaussian for side n (m = ceil(n/8), sigma = m/2), or
    with anisotropic widths, the outer product of 1D Gaussians of sigma m/4
    on axis 0 and m on axis 1."""
    m = -(-n // 8)
    if not anisotropic:
        return gen_psf("gaussian", m, m / 2.0)
    idx = np.arange(-m, m + 1)
    a, b = (np.exp(-idx ** 2 / (2.0 * s * s)) for s in (m / 4.0, float(m)))
    return SymmetricPsf(np.outer(a, b) / (a.sum() * b.sum()))


#: (n, anisotropic) of the Kronecker data-term cases
KRONECKER_CASES = [(n, False) for n in (3, 5, 64, 144, 145)] + \
    [(5, True), (145, True)]


@pytest.mark.parametrize("n,anisotropic", KRONECKER_CASES,
                         ids=[f"{n}-{'anisotropic' if a else 'gaussian'}"
                              for n, a in KRONECKER_CASES])
@pytest.mark.parametrize("bc_h,formulation", pipeline.DATA_TERMS,
                         ids=lambda v: v.value)
def test_2d_kronecker_step_apply_matches_oracle(rng, n, anisotropic, bc_h,
                                                formulation):
    """With a separable PSF, ``StepSystem.apply`` is ``B H + alpha L`` to
    1e-12 relative under every blur BC and formulation: densely at n = 3
    and 5, on a random grid above, on both sides of the 2D dense-product
    cutoff.  The anisotropic kernel catches an axis swap."""
    alpha = 1e-2
    psf = separable_psf(n, anisotropic)
    l_op = DiffusionOperator(rng.standard_normal((n, n)), 0.1)
    _, system = step_system(l_op, alpha, rng.standard_normal((n, n)), psf,
                            bc_h, formulation)
    if n <= 5:
        def oracle(w):
            return oracle_step_apply(w, psf, bc_h, formulation, l_op, alpha)
        got = probe_dense(system.apply, (n, n))
        want = probe_dense(oracle, (n, n))
    else:
        w = rng.standard_normal((n, n))
        got = system.apply(w)
        want = oracle_step_apply(w, psf, bc_h, formulation, l_op, alpha)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


#: side n -> a separable 2D PSF: the harness's Gaussian, whose kernel is
#: its own transpose; an anisotropic one, whose two axis factors differ;
#: and a Gaussian of half-width ceil(n/4), whose data terms have
#: half-bandwidth 2m >= n/2
DATA_TERM_PSFS = {
    "gaussian": lambda n: separable_psf(n, False),
    "anisotropic": lambda n: separable_psf(n, True),
    "wide": lambda n: gen_psf("gaussian", -(-n // 4), -(-n // 4) / 2.0),
}


@pytest.mark.parametrize("psf_kind", sorted(DATA_TERM_PSFS))
@pytest.mark.parametrize("n", [5, 16, 64, 127, 128])
@pytest.mark.parametrize("bc_h,formulation", pipeline.DATA_TERMS,
                         ids=lambda v: v.value)
def test_banded_kronecker_term_matches_the_dense_products(rng, bc_h,
                                                          formulation, n,
                                                          psf_kind):
    """The data term of a separable PSF is ``F0 W F1^T`` to 1e-15 relative,
    with ``F0`` and ``F1`` the dense data terms of the two axis kernels.
    Each factor of half-bandwidth below n/2 splits into two row blocks;
    the wide kernel and periodic blur, whose wrapped corners reach across
    the matrix, take one product.  The anisotropic kernel takes two
    factor matrices, so an axis swap or a shared factor would show."""
    psf = DATA_TERM_PSFS[psf_kind](n)
    f0, f1 = (pipeline.data_matrix(factor, bc_h, formulation, n)
              for factor in psf.factors())
    one_product = psf_kind == "wide" or bc_h is BoundaryCondition.PERIODIC
    assert [len(pipeline.row_blocks(f)) for f in (f0, f1)] == \
        [1 if one_product else 2] * 2
    cfg = RestorationConfig(bc_h=bc_h, alpha=1e-2, beta=0.1,
                            formulation=formulation)
    system = StepSystem(psf, cfg, rng.standard_normal((n, n)))
    w = rng.standard_normal((n, n))
    want = f0 @ w @ f1.T
    got = system.data_term(w)
    assert got.flags.c_contiguous
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_row_blocks_cover_the_band():
    """Two row blocks over the band below half-bandwidth n/2, else one
    block; the band is read from the nonzeros."""
    n = 8
    tridiagonal = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    assert pipeline.row_blocks(tridiagonal) == (
        (slice(0, 4), slice(0, 5)), (slice(4, 8), slice(3, 8)))
    corner = np.eye(n)
    corner[0, n - 1] = 1.0
    assert pipeline.row_blocks(corner) == ((slice(0, n), slice(0, n)),)
    assert len(pipeline.row_blocks(np.zeros((n, n)))) == 2


@pytest.mark.parametrize("dimension,label,selector", [
    (1, "R", "none"), (1, "R", "x_d"), (1, "AR+Reblur+AR", "diag"),
    (1, "AR+Reblur+AR", "x_d"), (2, "R", "d_x"), (2, "AR+Reblur+AR", "x_d"),
])
def test_restore_forms_one_residual_per_step(monkeypatch, dimension, label,
                                             selector):
    """The solve of each step starts from the residual that the step's
    gradient norm took, in a CG (``R``) and a BiCGstab (``AR+Reblur+AR``)
    restore: ``StepSystem.apply`` runs once per step for it, once for the
    final gradient, and otherwise only inside the solver, and CG applies
    once per iteration.  Solvers that form the start residual themselves
    give the same bytes; under ``x_d``, whose ``S (-g)`` rounds unlike
    ``S b - S A S (u / s)``, the same to 1e-12."""
    counts = {"system": 0, "solver": 0, "solves": 0}
    system_apply = StepSystem.apply

    def apply(self, w):
        counts["system"] += 1
        return system_apply(self, w)
    monkeypatch.setattr(StepSystem, "apply", apply)
    solvers = {name: getattr(pipeline, name) for name in ("pcg", "pbicgstab")}
    cg = label == "R"
    for name, solver in solvers.items():
        def counted_solver(apply_a, *args, _solver=solver, _cg=name == "pcg",
                           **kwargs):
            def counted(w):
                counts["solver"] += 1
                return apply_a(w)
            assert _cg == cg and kwargs["r0"] is not None
            counts["solves"] += 1
            return _solver(counted, *args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted_solver)
    n = 64 if dimension == 1 else 32
    spec = BenchmarkSpec(dimension=dimension, ns=(n,), nsr=0.01, seed=2023)
    psf, observed, _ = make_problem(spec, n)
    bc_h, bc_l, formulation, _ = pipeline.CONFIGURATIONS[label]
    cfg = RestorationConfig(bc_h=bc_h, alpha=1e-2, beta=0.1, bc_l=bc_l,
                            formulation=formulation,
                            preconditioner=PrecondSelector(selector), fp_max=5)
    report = restore(observed, psf, cfg)
    assert counts["solves"] == report.fp_steps
    assert counts["system"] == counts["solver"] + report.fp_steps + 1
    if cg:
        assert counts["solver"] == sum(report.inner_iterations)
    for name, solver in solvers.items():
        monkeypatch.setattr(pipeline, name,
                            lambda *args, _solver=solver, r0=None, **kwargs:
                            _solver(*args, **kwargs))
    own = restore(observed, psf, cfg)
    assert own.inner_iterations == report.inner_iterations
    if selector == "x_d":
        assert np.linalg.norm(report.restored - own.restored) <= \
            1e-12 * np.linalg.norm(own.restored)
    else:
        assert report.restored.tobytes() == own.restored.tobytes()


@pytest.mark.parametrize("separable", [True, False], ids=["gaussian", "disk"])
@pytest.mark.parametrize("bc_l", list(DiffusionBc), ids=lambda v: v.value)
@pytest.mark.parametrize("bc_h,formulation", pipeline.DATA_TERMS,
                         ids=lambda v: v.value)
def test_2d_step_apply_sums_the_diffusion_term_into_the_data_term(
        rng, bc_h, formulation, bc_l, separable):
    """In 2D, ``apply`` and the scaled apply are ``B H + alpha L`` and
    ``S (B H + alpha L) S`` against dense oracles for every data term, with
    a separable and with a non-separable PSF.  Both add the diffusion term
    into the data term's output, so that output must be a fresh
    C-contiguous float64 array on every call: the kernel writes through
    to the array it is given, and a copy of it would drop the sum."""
    n, alpha = 5, 1e-2
    psf = gen_psf("gaussian", 1, 1.0) if separable \
        else SymmetricPsf(oracles.disk_kernel(1))
    assert (psf.factors() is not None) == separable
    l_op = DiffusionOperator(rng.standard_normal((n, n)), 0.1, bc_l)
    h_op, system = step_system(l_op, alpha, rng.standard_normal((n, n)), psf,
                               bc_h, formulation)
    h = oracles.dense_of(h_op)
    b = h.T if bc_h is BoundaryCondition.ANTI_REFLECTIVE and \
        formulation is Formulation.NORMAL else h
    l_dense = oracles.dense_of(l_op)
    a = b @ h + alpha * l_dense
    s = (1.0 + alpha * np.diag(l_dense)) ** -0.5
    np.testing.assert_allclose(probe_dense(system.apply, (n, n)), a,
                               atol=1e-12)
    apply_scaled = system.scale(np.zeros((n, n)), -system.rhs)[0]
    np.testing.assert_allclose(probe_dense(apply_scaled, (n, n)),
                               s[:, None] * a * s, atol=1e-12)
    w = rng.standard_normal((n, n))
    first, second = system.data_term(w), system.data_term(w)
    for out in (first, second):
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.flags.writeable and not np.shares_memory(out, w)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("n,h", [
    (9, np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0),
    (5, np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0),
], ids=["1d", "2d"])
@pytest.mark.parametrize("bc_h,formulation,bc_l", SYSTEM_CASES)
def test_el_residual_matches_dense_gradient(rng, n, h, bc_h, formulation, bc_l):
    """``el_residual`` is ``B (H u - v) + alpha L(u) u`` with every matrix
    built from its defining formula: ``B`` is ``H^T``, or the blur of the
    rotated kernel in the re-blurred form.  The matrix-free reference
    ``oracles.el_residual`` gives the same vector."""
    alpha, beta = 1e-2, 0.2
    shape = (n,) * h.ndim
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    l_op = DiffusionOperator(u, beta, bc_l)
    h_op, system = step_system(l_op, alpha, v, SymmetricPsf(h), bc_h,
                               formulation)
    if h.ndim == 1:
        def blur(kernel):
            return oracles.dense_blur_1d(kernel, bc_h.value, n)
        l_dense = oracles.diffusion_dense_1d(l_op.a[0], bc_l.value)
    else:
        def blur(kernel):
            return probe_dense(
                lambda w: oracles.blur_2d(w, kernel, bc_h.value), shape)
        l_dense = probe_dense(lambda w: oracles.diffusion_apply_padded(
            w, l_op.a, bc_l.value), shape)
    h_dense = blur(h)
    reblur = formulation is Formulation.REBLUR
    b_dense = blur(np.flip(h)) if reblur else h_dense.T
    expected = (b_dense @ (h_dense @ u.ravel() - v.ravel())
                + alpha * (l_dense @ u.ravel()))
    np.testing.assert_allclose(el_residual(system, u).ravel(), expected,
                               atol=1e-12)
    reference = oracles.el_residual(u, v, h_op, alpha, beta, bc_l=bc_l,
                                    reblur=reblur)
    np.testing.assert_allclose(reference.ravel(), expected, atol=1e-12)


def test_el_residual_constant_reflective_is_zero():
    n = 10
    u = np.full(n, 1.5)
    _, system = step_system(DiffusionOperator(u, 0.1), 1e-2, u.copy())
    np.testing.assert_allclose(el_residual(system, u), np.zeros(n), atol=1e-13)


def test_el_residual_small_alpha_limit(rng):
    # with H = identity and noiseless data the residual is alpha * L u
    n = 12
    u = rng.standard_normal(n)
    alpha = 1e-9
    l_op = DiffusionOperator(u, 0.1)
    _, system = step_system(l_op, alpha, u.copy(), SymmetricPsf([1.0]))
    bound = alpha * np.linalg.norm(l_op.apply(u))
    assert np.linalg.norm(el_residual(system, u)) <= bound + 1e-15


@pytest.mark.parametrize("bc_h,formulation,bc_l", SYSTEM_CASES)
def test_restore_gradient_norms_on_fast_operators(monkeypatch, bc_h,
                                                  formulation, bc_l):
    """No restore runs the reference transpose or re-blur, and its first
    and final gradient norms equal the reference residual's at ``v`` and
    at the restored iterate."""
    psf, observed, _ = small_problem()
    cfg = RestorationConfig(bc_h=bc_h, alpha=1e-3, beta=0.1, bc_l=bc_l,
                            formulation=formulation, fp_max=3)

    def refuse(self, u):
        raise AssertionError("a restore ran a reference blur transpose")

    with monkeypatch.context() as patched:
        for name in ("apply_transpose", "reblur_apply"):
            patched.setattr(StructuredBlurOperator, name, refuse)
        rep = restore(observed, psf, cfg)
    h_op = StructuredBlurOperator(psf, bc_h, observed.shape[0])
    reblur = formulation is Formulation.REBLUR
    for u, norm in ((observed, rep.gradient_norms[0]),
                    (rep.restored, rep.final_gradient_norm)):
        reference = oracles.el_residual(u, observed, h_op, cfg.alpha, cfg.beta,
                                        bc_l=bc_l, reblur=reblur)
        assert norm == pytest.approx(np.linalg.norm(reference), rel=1e-9)


@pytest.mark.parametrize("selector", [PrecondSelector.DIAG,
                                      PrecondSelector.D_X,
                                      PrecondSelector.X_D])
def test_nonpositive_diagonal_fails_in_step_system(selector):
    # 2D anti-reflective diffusion can have negative border diagonal entries
    # (transverse averaging makes the two border edge coefficients differ);
    # once alpha is large enough D = I + alpha diag L turns nonpositive, and
    # the diagonal, the D_X wrap and the scaled-system selectors all stop at
    # that one check.
    v = np.random.default_rng(0).standard_normal((8, 8)) * 5.0
    diag_l = DiffusionOperator(v, 0.01, DiffusionBc.ANTI_REFLECTIVE).diagonal()
    assert diag_l.min() < 0
    cfg = RestorationConfig(bc_h=BoundaryCondition.ANTI_REFLECTIVE,
                            bc_l=DiffusionBc.ANTI_REFLECTIVE,
                            formulation=Formulation.REBLUR,
                            alpha=2.0 / abs(diag_l.min()), beta=0.01,
                            preconditioner=selector)
    with pytest.raises(InvalidScalingError,
                       match=r"D = I \+ alpha diag L has nonpositive entries "
                             r"\(min -1\.0\)") as info:
        restore(v, SymmetricPsf(np.full((3, 3), 1 / 9)), cfg)
    assert info.traceback[-1].name == "scaling_diagonal"


def test_scalar_diagonal_scaling_commutes(rng):
    """With exactly scalar D the scaled and unscaled solves coincide."""
    n = 12

    class ScalarDiagOperator(DiffusionOperator):
        """SPD stand-in for L whose diagonal reads 3 everywhere."""
        k = rng.standard_normal((n, n))
        k = k @ k.T + n * np.eye(n)

        def __init__(self):
            super().__init__(np.zeros(n), 0.1)

        def apply(self, w):
            return self.k @ w

        def diagonal(self):
            return np.full(n, 3.0)

    _, system = step_system(ScalarDiagOperator(), 0.5, rng.standard_normal(n))
    cfg = KrylovConfig(tol=1e-10, max_iterations=200)
    plain = pcg(system.apply, None, system.rhs, np.zeros(n), cfg)
    apply_scaled, rhs, u0, _, unscale = system.scale(np.zeros(n),
                                                     -system.rhs)
    scaled = pcg(apply_scaled, None, rhs, u0, cfg)
    assert plain.iterations == scaled.iterations
    np.testing.assert_allclose(unscale(scaled.solution), plain.solution,
                               atol=1e-8)


def test_large_alpha_keeps_blurred_constant_constant():
    # a blurred constant is the constant itself; with dominant smoothing the
    # restoration must stay there
    n = 64
    psf = gen_psf("out_of_focus", 4)
    h_op = StructuredBlurOperator(psf, BoundaryCondition.REFLECTIVE, n)
    v = h_op.apply(np.full(n, 2.0))
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e4,
                            beta=0.1, preconditioner=PrecondSelector.X_D,
                            inner=KrylovConfig(tol=1e-10, max_iterations=2000))
    rep = restore(v, psf, cfg)
    np.testing.assert_allclose(rep.restored, np.full(n, 2.0), atol=1e-4)


def test_noiseless_small_alpha_near_inverse():
    n = 64
    spec = BenchmarkSpec(dimension=1, ns=(n,), nsr=0.0, seed=1)
    m = spec.resolve_half_width(n)
    psf = gen_psf("out_of_focus", m)
    extended, fov = gen_signal_1d(n, m)
    u_true = extended[fov]
    h_op = StructuredBlurOperator(psf, BoundaryCondition.REFLECTIVE, n)
    v = h_op.apply(u_true)  # boundary-consistent blur, zero noise
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-8,
                            beta=0.1, preconditioner=PrecondSelector.X_D,
                            inner=KrylovConfig(tol=1e-10, max_iterations=5000))
    rep = restore(v, psf, cfg, u_true=u_true)
    assert rep.rre < 1e-2


@pytest.mark.parametrize("selector", [PrecondSelector.DIAG, PrecondSelector.X,
                                      PrecondSelector.D_X, PrecondSelector.X_D])
def test_preconditioning_keeps_fixed_point(selector):
    psf, observed, u_true = small_problem()
    base = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                             beta=0.1,
                             inner=KrylovConfig(tol=1e-12, max_iterations=5000))
    ref = restore(observed, psf, base)
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1, preconditioner=selector,
                            inner=KrylovConfig(tol=1e-12, max_iterations=5000))
    rep = restore(observed, psf, cfg)
    assert abs(rep.fp_steps - ref.fp_steps) <= 1
    np.testing.assert_allclose(rep.restored, ref.restored, atol=1e-7)


def test_fp_termination_change_below_tolerance():
    psf, observed, u_true = small_problem()
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1, preconditioner=PrecondSelector.X_D,
                            fp_tol=1e-3)
    rep = restore(observed, psf, cfg)
    assert rep.fp_converged
    assert rep.fp_steps <= cfg.fp_max
    assert rep.avg_inner == pytest.approx(np.mean(rep.inner_iterations))
    # re-run capped one step short: the recorded change must still be above
    # tolerance there, i.e. the loop stopped at the first admissible step
    capped = restore(observed, psf,
                     RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE,
                                       alpha=1e-3, beta=0.1,
                                       preconditioner=PrecondSelector.X_D,
                                       fp_tol=1e-3, fp_max=rep.fp_steps - 1))
    assert not capped.fp_converged


def test_zero_data_converges_in_one_step():
    psf, _, _ = small_problem()
    for selector in PrecondSelector:
        cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                                beta=0.1, preconditioner=selector)
        rep = restore(np.zeros(64), psf, cfg)
        assert rep.fp_steps == 1 and rep.fp_converged and rep.inner_converged
        assert rep.inner_iterations == [0]
        assert np.all(rep.restored == 0.0)


def test_gradient_norm_decreases_overall():
    psf, observed, u_true = small_problem(n=128)
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1, preconditioner=PrecondSelector.X_D)
    rep = restore(observed, psf, cfg)
    assert rep.final_gradient_norm < rep.gradient_norms[0]
    assert min(rep.gradient_norms) >= rep.final_gradient_norm * 0.1


@pytest.mark.parametrize("label,bc_h,bc_l,formulation", [
    ("sine", BoundaryCondition.ANTI_REFLECTIVE, DiffusionBc.ZERO_NEUMANN,
     Formulation.NORMAL),
    ("reblur_zn", BoundaryCondition.ANTI_REFLECTIVE, DiffusionBc.ZERO_NEUMANN,
     Formulation.REBLUR),
    ("reblur_ar", BoundaryCondition.ANTI_REFLECTIVE,
     DiffusionBc.ANTI_REFLECTIVE, Formulation.REBLUR),
])
def test_anti_reflective_configurations_run(label, bc_h, bc_l, formulation):
    psf, observed, u_true = small_problem()
    cfg = RestorationConfig(bc_h=bc_h, bc_l=bc_l, formulation=formulation,
                            alpha=1e-3, beta=0.1,
                            preconditioner=PrecondSelector.X_D)
    rep = restore(observed, psf, cfg, u_true=u_true)
    assert rep.fp_converged and rep.inner_converged
    assert rep.rre < 0.5


def read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("label", list(pipeline.CONFIGURATIONS))
@pytest.mark.parametrize("shape,h", [
    ((33,), np.full(5, 0.2)), ((8, 8), gen_psf("gaussian", 2, 1.0)),
    ((8, 8), oracles.two_gaussians_kernel(2)),
], ids=["1d", "2d-separable", "2d-non-separable"])
def test_applies_leave_read_only_input_alone(rng, label, shape, h):
    """No apply writes into its argument: each takes a read-only array
    without raising and leaves it as it was."""
    bc_h, bc_l, formulation, family = pipeline.CONFIGURATIONS[label]
    psf = h if isinstance(h, SymmetricPsf) else SymmetricPsf(h)
    l_op = DiffusionOperator(rng.standard_normal(shape), 0.1, bc_l)
    v = read_only(rng.standard_normal(shape))
    h_op, system = step_system(l_op, 1e-2, v, psf, bc_h, formulation)
    x = read_only(rng.standard_normal(shape))
    before = x.tobytes()
    applies = [h_op.apply_fast, h_op.apply_transpose_fast,
               *h_op.fast_applies(), l_op.apply, system.apply,
               system.data_term]
    if x.ndim == 1:
        applies += [lambda v, k=kind, i=i, t=t: apply_1d(k, v, i, t)
                    for kind in TransformKind
                    for i in (False, True) for t in (False, True)]
    for variant in ("{}", "D_{}", "{}_D"):
        fp = assemble_preconditioner(variant.format(family), h_op, l_op, 1e-2)
        applies += [fp.apply_inverse, fp.apply]
    for selector in PrecondSelector:
        _, system = step_system(l_op, 1e-2, v, psf, bc_h, formulation,
                                selector)
        apply, solve, *_ = system.krylov_problem(x, x)
        applies += [apply] if solve is None else [apply, solve]
    for apply in applies:
        apply(x)
        assert x.tobytes() == before


def test_fast_blur_path_matches_reference_path(monkeypatch):
    psf, observed, u_true = small_problem()
    cfg = RestorationConfig(bc_h=BoundaryCondition.ANTI_REFLECTIVE, alpha=1e-3,
                            beta=0.1, preconditioner=PrecondSelector.X,
                            inner=KrylovConfig(tol=1e-10, max_iterations=3000))
    fast = restore(observed, psf, cfg)
    # route the transform-diagonalized applies, which StepSystem takes
    # bound from fast_applies, to the pad/convolve/crop ones, and count them
    calls = {"apply": 0, "apply_transpose": 0}

    def counted(name, apply):
        def run(u):
            calls[name] += 1
            return apply(u)
        return run

    monkeypatch.setattr(
        StructuredBlurOperator, "fast_applies",
        lambda op: (counted("apply", op.apply),
                    counted("apply_transpose", op.apply_transpose)))
    slow = restore(observed, psf, cfg)
    # every matvec ran the reference H, then the reference H^T
    assert calls["apply"] == calls["apply_transpose"] - 1 > 0
    np.testing.assert_allclose(fast.restored, slow.restored, atol=1e-6)
    assert fast.fp_steps == slow.fp_steps


def test_zero_dirichlet_and_periodic_supported_without_transform_preconditioner():
    psf, observed, u_true = small_problem()
    for bc in (BoundaryCondition.ZERO_DIRICHLET, BoundaryCondition.PERIODIC):
        cfg = RestorationConfig(bc_h=bc, alpha=1e-3, beta=0.1)
        rep = restore(observed, psf, cfg, u_true=u_true)
        assert rep.fp_converged


_RESTORE_2D_BYTES = """
import sys
from tvdeblur.harness import BenchmarkSpec, make_problem, run_cell
spec = BenchmarkSpec(dimension=2, ns=(64,), nsr=0.001, seed=2023)
cell = run_cell(spec, "AR+Reblur+AR", 1e-2, 0.01, 64, "x_d",
                make_problem(spec, 64))
sys.stdout.buffer.write(cell.report.restored.tobytes())
"""


def test_2d_restore_is_byte_identical_across_blas_threads():
    """2D transforms run as BLAS matrix products; a fixed-seed restore must
    not depend on how many threads BLAS uses."""
    outputs = []
    for pinned in (True, False):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            if pinned:
                env[var] = "1"
            else:
                env.pop(var, None)
        proc = subprocess.run([sys.executable, "-c", _RESTORE_2D_BYTES],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(outputs[0]) == 64 * 64 * 8
    assert outputs[0] == outputs[1]
