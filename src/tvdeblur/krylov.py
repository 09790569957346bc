"""Preconditioned conjugate gradient and BiCGstab with a relative stopping rule.

Both solvers are matrix-free: the system and the preconditioner inverse are
callables, and iterates may be 1D vectors or 2D grids (inner products run
over the raveled arrays).  Iterations stop when
``||r_k||_2 / ||r_0||_2 < tol`` or at ``max_iterations``; running out of
iterations is reported through ``converged=False`` rather than raised, since
benchmark sweeps record such cells as ``*``.

BiCGstab is right-preconditioned (it iterates on ``A M^{-1}``), so the
residual entering the stopping rule is the true residual of the original
system.  Genuine breakdowns (vanishing recurrence scalars) raise
:class:`SolverBreakdownError` with the offending iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolverBreakdownError(RuntimeError):
    """A recurrence scalar vanished; the Krylov basis cannot be extended."""

    def __init__(self, method: str, iteration: int, what: str) -> None:
        super().__init__(f"{method} breakdown at iteration {iteration}: {what}")
        self.iteration = iteration


class SolverDivergenceError(RuntimeError):
    """A non-finite quantity appeared during the iteration."""

    def __init__(self, method: str, iteration: int) -> None:
        super().__init__(f"{method} produced non-finite values at iteration {iteration}")
        self.iteration = iteration


class IndefiniteOperatorError(RuntimeError):
    """The operator is not positive definite on the Krylov space."""

    def __init__(self, iteration: int, curvature: float) -> None:
        super().__init__(
            f"pcg met nonpositive curvature {curvature!r} at iteration {iteration}"
        )
        self.iteration = iteration


@dataclass(frozen=True)
class KrylovConfig:
    tol: float = 1e-6
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveOutcome:
    solution: np.ndarray
    iterations: int
    residual_history: np.ndarray  # ||r_k|| / ||r_0|| for k = 1..iterations
    converged: bool


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x.ravel(), y.ravel()))


def _norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x.ravel()))


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def pcg(apply_a, apply_minv, b, x0, config: KrylovConfig = KrylovConfig()) -> SolveOutcome:
    """Preconditioned conjugate gradient for SPD operators."""
    apply_minv = apply_minv or _identity
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float, copy=True)
    r = b - apply_a(x)
    r0_norm = _norm(r)
    history: list[float] = []
    if r0_norm == 0.0:
        return SolveOutcome(x, 0, np.array(history), True)
    z = apply_minv(r)
    p = z.copy()
    rz = _dot(r, z)
    for k in range(1, config.max_iterations + 1):
        q = apply_a(p)
        curvature = _dot(p, q)
        if not np.isfinite(curvature):
            raise SolverDivergenceError("pcg", k)
        if curvature <= 0.0:
            raise IndefiniteOperatorError(k, curvature)
        step = rz / curvature
        x += step * p
        r -= step * q
        rel = _norm(r) / r0_norm
        if not np.isfinite(rel):
            raise SolverDivergenceError("pcg", k)
        history.append(rel)
        if rel < config.tol:
            return SolveOutcome(x, k, np.array(history), True)
        z = apply_minv(r)
        rz_next = _dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return SolveOutcome(x, config.max_iterations, np.array(history), False)


def pbicgstab(apply_a, apply_minv, b, x0, config: KrylovConfig = KrylovConfig()) -> SolveOutcome:
    """Right-preconditioned BiCGstab for general invertible operators."""
    apply_minv = apply_minv or _identity
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float, copy=True)
    r = b - apply_a(x)
    r0_norm = _norm(r)
    history: list[float] = []
    if r0_norm == 0.0:
        return SolveOutcome(x, 0, np.array(history), True)
    r_shadow = r.copy()
    rho = 1.0
    alpha = 1.0
    omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    for k in range(1, config.max_iterations + 1):
        rho_next = _dot(r_shadow, r)
        if abs(rho_next) < 1e-30 * r0_norm * r0_norm:
            raise SolverBreakdownError("pbicgstab", k, "rho vanished")
        beta = (rho_next / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = apply_minv(p)
        v = apply_a(p_hat)
        denom = _dot(r_shadow, v)
        if abs(denom) < 1e-300:
            raise SolverBreakdownError("pbicgstab", k, "shadow angle vanished")
        alpha = rho_next / denom
        s = r - alpha * v
        rel = _norm(s) / r0_norm
        if not np.isfinite(rel):
            raise SolverDivergenceError("pbicgstab", k)
        if rel < config.tol:
            x += alpha * p_hat
            history.append(rel)
            return SolveOutcome(x, k, np.array(history), True)
        s_hat = apply_minv(s)
        t = apply_a(s_hat)
        tt = _dot(t, t)
        if tt == 0.0:
            raise SolverBreakdownError("pbicgstab", k, "stabilizer direction vanished")
        omega = _dot(t, s) / tt
        if abs(omega) < 1e-300:
            raise SolverBreakdownError("pbicgstab", k, "omega vanished")
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rel = _norm(r) / r0_norm
        if not np.isfinite(rel):
            raise SolverDivergenceError("pbicgstab", k)
        history.append(rel)
        if rel < config.tol:
            return SolveOutcome(x, k, np.array(history), True)
        rho = rho_next
    return SolveOutcome(x, config.max_iterations, np.array(history), False)
