import os
import subprocess
import sys

import numpy as np
import pytest

from tvdeblur.blur import BoundaryCondition, StructuredBlurOperator, SymmetricPsf
from tvdeblur.harness import BenchmarkSpec, gen_psf, gen_signal_1d, make_problem
from tvdeblur.krylov import KrylovConfig, pcg
from tvdeblur.pipeline import (
    ConfigurationError,
    Formulation,
    InvalidScalingError,
    PrecondSelector,
    RestorationConfig,
    restore,
    scale_system,
)
from tvdeblur.precond import assemble_preconditioner
from tvdeblur.tv import DiffusionBc, DiffusionOperator


def small_problem(n=64, nsr=0.01, seed=2023):
    spec = BenchmarkSpec(dimension=1, ns=(n,), nsr=nsr, seed=seed)
    return make_problem(spec, n)


def test_config_invariants():
    bad = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1, formulation=Formulation.REBLUR)
    with pytest.raises(ConfigurationError):
        bad.validate()
    bad = RestorationConfig(bc_h=BoundaryCondition.PERIODIC, alpha=1e-3,
                            beta=0.1, preconditioner=PrecondSelector.X)
    with pytest.raises(ConfigurationError):
        bad.validate()
    with pytest.raises(ConfigurationError):
        RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=-1.0,
                          beta=0.1).validate()
    # errors surface before any compute
    with pytest.raises(ConfigurationError):
        restore(np.ones(16), SymmetricPsf([1.0]),
                RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE,
                                  alpha=1e-3, beta=0.1,
                                  formulation=Formulation.REBLUR))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_data_restores():
    """1e150 is below the data-norm bound sqrt(finfo(float).max)."""
    psf, observed, u_true = small_problem()
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1)
    report = restore(1e150 * observed, psf, cfg, u_true=1e150 * u_true)
    assert report.fp_converged and report.inner_converged
    assert np.all(np.isfinite(report.restored)) and np.isfinite(report.rre)


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


def test_resolved_kind_labels():
    cfg = RestorationConfig(bc_h=BoundaryCondition.ANTI_REFLECTIVE, alpha=1e-3,
                            beta=0.1, formulation=Formulation.REBLUR,
                            preconditioner=PrecondSelector.D_X)
    assert cfg.resolved_kind() == "D_P"
    cfg = RestorationConfig(bc_h=BoundaryCondition.REFLECTIVE, alpha=1e-3,
                            beta=0.1, preconditioner=PrecondSelector.X_D)
    assert cfg.resolved_kind() == "R_D"


def test_scale_system_dense_identity(rng):
    n = 8
    psf = SymmetricPsf(np.full(3, 1 / 3.0))
    h_op = StructuredBlurOperator(psf, BoundaryCondition.REFLECTIVE, n)
    l_op = DiffusionOperator(rng.standard_normal(n), 0.1)
    alpha = 1e-2
    h = h_op.dense()
    l = l_op.dense()
    a = h.T @ h + alpha * l

    def apply_a(w):
        return a @ w

    rhs = rng.standard_normal(n)
    bundle = scale_system(apply_a, rhs, l_op, alpha)
    s = np.diag(bundle.d_inv_sqrt)
    expected = s @ a @ s
    probed = np.column_stack([bundle.apply(e) for e in np.eye(n)])
    np.testing.assert_allclose(probed, expected, atol=1e-12)
    np.testing.assert_allclose(bundle.rhs, bundle.d_inv_sqrt * rhs, atol=1e-14)
    u = rng.standard_normal(n)
    np.testing.assert_allclose(bundle.unscale(bundle.scale_iterate(u)), u,
                               atol=1e-14)


def test_scale_system_small_alpha_is_identity(rng):
    n = 6
    l_op = DiffusionOperator(rng.standard_normal(n), 0.1)
    bundle = scale_system(lambda w: w, np.ones(n), l_op, 1e-300)
    np.testing.assert_allclose(bundle.d, np.ones(n), atol=1e-12)
    np.testing.assert_allclose(bundle.apply(np.ones(n)), np.ones(n), atol=1e-12)


def test_scale_system_rejects_nonpositive_diagonal(rng):
    # 2D anti-reflective diffusion can have negative border diagonal entries
    # (transverse averaging makes the two border edge coefficients differ);
    # once alpha is large enough the scaling diagonal turns nonpositive.
    u = rng.standard_normal((8, 8)) * 5.0
    l_op = DiffusionOperator(u, 0.01, DiffusionBc.ANTI_REFLECTIVE)
    assert l_op.diagonal().min() < 0
    alpha = 2.0 / abs(l_op.diagonal().min())
    with pytest.raises(InvalidScalingError):
        scale_system(lambda w: w, np.ones((8, 8)), l_op, alpha)


def test_scalar_diagonal_scaling_commutes(rng):
    """With exactly scalar D the scaled and unscaled solves coincide."""
    n = 12

    class ScalarDiagOperator:
        def diagonal(self):
            return np.full(n, 3.0)

    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    rhs = rng.standard_normal(n)
    cfg = KrylovConfig(tol=1e-10, max_iterations=200)
    plain = pcg(lambda w: a @ w, None, rhs, np.zeros(n), cfg)
    bundle = scale_system(lambda w: a @ w, rhs, ScalarDiagOperator(), 0.5)
    scaled = pcg(bundle.apply, None, bundle.rhs, np.zeros(n), cfg)
    assert plain.iterations == scaled.iterations
    np.testing.assert_allclose(bundle.unscale(scaled.solution), plain.solution,
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


def test_fast_blur_path_matches_reference_path(monkeypatch):
    psf, observed, u_true = small_problem()
    cfg = RestorationConfig(bc_h=BoundaryCondition.ANTI_REFLECTIVE, alpha=1e-3,
                            beta=0.1, preconditioner=PrecondSelector.X,
                            inner=KrylovConfig(tol=1e-10, max_iterations=3000))
    fast = restore(observed, psf, cfg)
    # route the transform-diagonalized applies to the pad/convolve/crop ones
    monkeypatch.setattr(StructuredBlurOperator, "apply_fast",
                        StructuredBlurOperator.apply)
    monkeypatch.setattr(StructuredBlurOperator, "apply_transpose_fast",
                        StructuredBlurOperator.apply_transpose)
    slow = restore(observed, psf, cfg)
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
from tvdeblur.harness import BenchmarkSpec, run_cell
spec = BenchmarkSpec(dimension=2, ns=(64,), nsr=0.001, seed=2023,
                     psf_kind="gaussian")
cell = run_cell(spec, "AR+Reblur+AR", 1e-2, 0.01, 64, "x_d")
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
