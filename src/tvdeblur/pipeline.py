"""Outer lagged-diffusivity fixed-point loop for smoothed-TV restoration.

Each step freezes the diffusion coefficient at the current iterate and
solves one linear system

* normal form:   ``(H* H + alpha L(u_k)) u_{k+1} = H* v``
* re-blurred:    ``(H' H + alpha L(u_k)) u_{k+1} = H' v``

with a Krylov method: conjugate gradient when the system is symmetric
(normal form with the zero-Neumann diffusion operator), BiCGstab otherwise.
The inner solve starts from the previous iterate and may be preconditioned
by any of the transform-algebra preconditioners; the ``x_d`` selector solves
the diagonally scaled system instead and maps the solution back, which is
spectrally equivalent to the ``d_x`` wrap on the unscaled system.

The loop starts from ``u_0 = v`` and stops when the relative change
``||u_k - u_{k-1}|| / ||u_k||`` drops below ``fp_tol`` or the iterate does
not change at all (as for zero data, where ``||u_k|| = 0``), or at
``fp_max``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .blur import BoundaryCondition, StructuredBlurOperator, SymmetricPsf
from .krylov import KrylovConfig, pbicgstab, pcg
from .precond import assemble_preconditioner
from .tv import DiffusionBc, DiffusionOperator, el_residual


class Formulation(Enum):
    NORMAL = "normal"
    REBLUR = "reblur"


class PrecondSelector(Enum):
    """Family-generic preconditioner choice; the blur BC picks the family."""

    NONE = "none"
    DIAG = "diag"
    X = "x"
    D_X = "d_x"
    X_D = "x_d"


#: (blur BC, formulation) -> preconditioner family
_BASE_KIND = {
    (BoundaryCondition.REFLECTIVE, Formulation.NORMAL): "R",
    (BoundaryCondition.ANTI_REFLECTIVE, Formulation.NORMAL): "M",
    (BoundaryCondition.ANTI_REFLECTIVE, Formulation.REBLUR): "P",
}

#: largest data norm whose inner product with itself is still finite
_MAX_DATA_NORM = float(np.sqrt(np.finfo(float).max))

#: selector -> preconditioner label, ``{}`` standing for the family
_LABELS = {
    PrecondSelector.NONE: "I",
    PrecondSelector.DIAG: "D",
    PrecondSelector.X: "{}",
    PrecondSelector.D_X: "D_{}",
    PrecondSelector.X_D: "{}_D",
}


class ConfigurationError(ValueError):
    """Invalid restoration configuration, detected before any compute."""


class InvalidScalingError(ValueError):
    """Diagonal scaling is not positive, the scaled system is undefined."""


@dataclass(frozen=True)
class RestorationConfig:
    bc_h: BoundaryCondition
    alpha: float
    beta: float
    bc_l: DiffusionBc = DiffusionBc.ZERO_NEUMANN
    formulation: Formulation = Formulation.NORMAL
    preconditioner: PrecondSelector = PrecondSelector.NONE
    fp_tol: float = 1e-3
    fp_max: int = 100
    inner: KrylovConfig = field(default_factory=KrylovConfig)

    def validate(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigurationError("alpha and beta must be positive")
        if self.fp_tol <= 0 or self.fp_max < 1:
            raise ConfigurationError("fp_tol must be positive and fp_max >= 1")
        if self.formulation is Formulation.REBLUR and \
                self.bc_h is not BoundaryCondition.ANTI_REFLECTIVE:
            raise ConfigurationError(
                "the re-blurred formulation requires anti-reflective blur BCs"
            )
        if self.preconditioner in (PrecondSelector.X, PrecondSelector.D_X,
                                   PrecondSelector.X_D):
            if (self.bc_h, self.formulation) not in _BASE_KIND:
                raise ConfigurationError(
                    "transform-algebra preconditioners need reflective or "
                    "anti-reflective blur boundary conditions"
                )

    def resolved_kind(self) -> str | None:
        """Preconditioner label, e.g. selector d_x in the R family -> D_R."""
        base = _BASE_KIND.get((self.bc_h, self.formulation))
        if base is None:
            return None
        return _LABELS[self.preconditioner].format(base)


@dataclass
class RestorationReport:
    restored: np.ndarray
    fp_steps: int
    inner_iterations: list[int]
    avg_inner: float
    fp_converged: bool
    inner_converged: bool
    gradient_norms: list[float]
    final_gradient_norm: float
    rre: float | None
    wall_time: float


@dataclass
class ScaledSystem:
    """Diagonally scaled system bundle: applies, right-hand side, back-map."""

    d: np.ndarray
    d_inv_sqrt: np.ndarray
    apply: object
    rhs: np.ndarray

    def scale_iterate(self, u: np.ndarray) -> np.ndarray:
        return u / self.d_inv_sqrt

    def unscale(self, u_tilde: np.ndarray) -> np.ndarray:
        return self.d_inv_sqrt * u_tilde


def scale_system(apply_a, rhs: np.ndarray, l_op: DiffusionOperator,
                 alpha: float) -> ScaledSystem:
    """Symmetric diagonal scaling of ``A u = rhs`` by ``D = I + alpha diag L``.

    Returns applies for ``D^{-1/2} A D^{-1/2}``, the scaled right-hand side,
    and the map taking the scaled solution back to the original variables.
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    d = 1.0 + alpha * l_op.diagonal()
    if np.min(d) <= 0:
        raise InvalidScalingError(
            f"diagonal scaling has nonpositive entries (min {float(np.min(d))!r})"
        )
    s = d ** -0.5

    def apply_scaled(w: np.ndarray) -> np.ndarray:
        return s * apply_a(s * w)

    return ScaledSystem(d=d, d_inv_sqrt=s, apply=apply_scaled, rhs=s * rhs)


def _system_operators(h_op: StructuredBlurOperator, config: RestorationConfig):
    """(forward, adjoint-or-reblur) applies, transform-diagonalized when the
    blur BC allows it."""
    fast = h_op.bc in (
        BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTI_REFLECTIVE
    )
    apply_h = h_op.apply_fast if fast else h_op.apply
    if config.formulation is Formulation.REBLUR:
        back = apply_h
    elif h_op.bc is BoundaryCondition.REFLECTIVE:
        back = apply_h  # symmetric operator
    else:
        back = h_op.apply_transpose_fast if fast else h_op.apply_transpose
    return apply_h, back


def _check_shapes(data: tuple, kernel: tuple) -> None:
    """Reject data the blur operator cannot take, naming both shapes."""
    if len(data) not in (1, 2):
        problem = "data must be 1D or 2D"
    elif len(data) != len(kernel):
        problem = f"{len(data)}D data needs a {len(data)}D PSF"
    elif len(data) == 2 and data[0] != data[1]:
        problem = "2D data must be square"
    else:
        return
    raise ConfigurationError(
        f"{problem}: data shape {data}, PSF shape {kernel}"
    )


def _check_reference(data: tuple, u_true: np.ndarray) -> None:
    """Reject a ``u_true`` the RRE cannot use, naming both shapes."""
    if u_true.shape != data:
        problem = "u_true must have the data's shape"
    elif np.linalg.norm(u_true.ravel()) == 0:
        problem = "u_true must have nonzero norm"
    else:
        return
    raise ConfigurationError(
        f"{problem}: data shape {data}, u_true shape {u_true.shape}"
    )


def restore(v, psf: SymmetricPsf, config: RestorationConfig,
            u_true=None) -> RestorationReport:
    """Run the fixed-point restoration of observed data ``v``."""
    config.validate()
    v = np.asarray(v, dtype=float)
    _check_shapes(v.shape, psf.coefficients.shape)
    if u_true is not None:
        u_true = np.asarray(u_true, dtype=float)
        _check_reference(v.shape, u_true)
    if not np.all(np.isfinite(v)):
        raise ConfigurationError("observed data must be finite")
    with np.errstate(over="ignore"):
        if np.linalg.norm(v.ravel()) > _MAX_DATA_NORM:
            raise ConfigurationError(
                f"observed data norm exceeds sqrt(finfo(float).max) = "
                f"{_MAX_DATA_NORM!r}: the solver's inner products would overflow"
            )
    started = time.perf_counter()
    n = v.shape[0]
    h_op = StructuredBlurOperator(psf, config.bc_h, n)
    apply_h, apply_back = _system_operators(h_op, config)
    alpha = config.alpha
    rhs = apply_back(v)

    symmetric = (config.formulation is Formulation.NORMAL
                 and config.bc_l is DiffusionBc.ZERO_NEUMANN)
    solver = pcg if symmetric else pbicgstab

    selector = config.preconditioner
    kind = config.resolved_kind()
    u = v.copy()
    inner_iterations: list[int] = []
    gradient_norms: list[float] = []
    fp_converged = False
    inner_converged = True
    steps = 0
    for _ in range(config.fp_max):
        l_op = DiffusionOperator(u, config.beta, config.bc_l)

        def apply_a(w, _l=l_op):
            return apply_back(apply_h(w)) + alpha * _l.apply(w)

        gradient_norms.append(float(np.linalg.norm(
            (apply_back(apply_h(u)) - rhs + alpha * l_op.apply(u)).ravel()
        )))

        if selector is PrecondSelector.X_D:
            bundle = scale_system(apply_a, rhs, l_op, alpha)
            precond = assemble_preconditioner(kind, h_op, l_op, alpha)
            outcome = solver(bundle.apply, precond.apply_inverse, bundle.rhs,
                             bundle.scale_iterate(u), config.inner)
            u_next = bundle.unscale(outcome.solution)
        else:
            if selector is PrecondSelector.NONE:
                apply_minv = None
            elif selector is PrecondSelector.DIAG:
                d = 1.0 + alpha * l_op.diagonal()
                if np.min(d) <= 0:
                    raise InvalidScalingError(
                        "diagonal preconditioner has nonpositive entries"
                    )
                apply_minv = lambda w, _d=d: w / _d  # noqa: E731
            else:
                precond = assemble_preconditioner(kind, h_op, l_op, alpha)
                apply_minv = precond.apply_inverse
            outcome = solver(apply_a, apply_minv, rhs, u, config.inner)
            u_next = outcome.solution

        steps += 1
        inner_iterations.append(outcome.iterations)
        inner_converged = inner_converged and outcome.converged
        change = float(np.linalg.norm((u_next - u).ravel()))
        u = u_next
        scale = float(np.linalg.norm(u.ravel()))
        # an unchanged iterate is a fixed point even where u = 0
        if change == 0.0 or (scale > 0 and change / scale < config.fp_tol):
            fp_converged = True
            break

    final_gradient = float(np.linalg.norm(el_residual(
        u, v, h_op, alpha, config.beta, bc_l=config.bc_l,
        reblur=config.formulation is Formulation.REBLUR,
    ).ravel()))

    rre = None
    if u_true is not None:
        rre = float(np.linalg.norm((u - u_true).ravel())
                    / np.linalg.norm(u_true.ravel()))

    return RestorationReport(
        restored=u,
        fp_steps=steps,
        inner_iterations=inner_iterations,
        avg_inner=float(np.mean(inner_iterations)) if inner_iterations else 0.0,
        fp_converged=fp_converged,
        inner_converged=inner_converged,
        gradient_norms=gradient_norms,
        final_gradient_norm=final_gradient,
        rre=rre,
        wall_time=time.perf_counter() - started,
    )
