"""Preconditioned conjugate gradient and BiCGstab with a relative stopping rule.

Both solvers are matrix-free: the system and the preconditioner inverse are
callables, and iterates may be 1D vectors or 2D grids (inner products run
over the raveled arrays).  The solvers update in place only the vectors
they own and keep reading what an apply returns: an apply leaves its
argument alone and returns a fresh array, or the argument itself, as the
identity does.  Iterations stop when ``||r_k||_2 / ||r_0||_2 < tol`` or at
``max_iterations``; running out of iterations is reported through
``converged=False`` rather than raised, since benchmark sweeps record such
cells as ``*``.

Each solver starts from the residual ``r_0 = b - A x_0``, one apply before
its loop.  A caller that already holds that residual passes it as the
keyword ``r0``: the solver copies it and trusts it, without an apply to
check it, so a wrong ``r0`` gives a wrong solve.  ``b`` is then read for
nothing, and neither ``r0`` nor ``x0`` is written.

BiCGstab is right-preconditioned (it iterates on ``A M^{-1}``), so the
residual entering the stopping rule is the true residual of the original
system.  Genuine breakdowns (vanishing recurrence scalars) raise
:class:`SolverBreakdownError` with the offending iteration.  BiCGstab's
two products with the shadow residual, ``rho`` and the shadow angle, are of
the order ``||r_0||^2`` and vanish below ``1e-30 ||r_0||^2``, so a system
whose right-hand side is scaled by a power of two takes the same steps.

Each error the package raises, a missing scipy's ImportError aside, derives
from one of two bases, and callers catch by base: :class:`ConfigurationError`
for a bad input, :class:`NumericalFailure` for a failure on valid input.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """A bad setting, argument or file, raised before the work it guards."""


class NumericalFailure(RuntimeError):
    """A computation that failed on valid input; a sweep stars its cell."""


class SolverBreakdownError(NumericalFailure):
    """A recurrence scalar vanished; the Krylov basis cannot be extended."""

    def __init__(self, method: str, iteration: int, what: str) -> None:
        super().__init__(f"{method} breakdown at iteration {iteration}: {what}")
        self.iteration = iteration


class SolverDivergenceError(NumericalFailure):
    """A non-finite quantity appeared during the iteration."""

    def __init__(self, method: str, iteration: int) -> None:
        super().__init__(f"{method} produced non-finite values at iteration {iteration}")
        self.iteration = iteration


class IndefiniteOperatorError(NumericalFailure):
    """The operator is not positive definite on the Krylov space."""

    def __init__(self, iteration: int, curvature: float) -> None:
        super().__init__(
            f"pcg met nonpositive curvature {curvature!r} at iteration {iteration}"
        )
        self.iteration = iteration


#: rule -> (type, the type in words, range test, the range in words); a
#: real setting's range test holds only within float range, so a value
#: that float() would overflow is not finite
_RULES = {
    "integer": (numbers.Integral, "an integer", None, None),
    "integer >= 1": (numbers.Integral, "an integer", lambda v: v >= 1, "at least 1"),
    "integer >= 0": (numbers.Integral, "an integer", lambda v: v >= 0, "nonnegative"),
    "real > 0": (numbers.Real, "a real number",
                 lambda v: 0 < v <= sys.float_info.max, "finite and positive"),
    "real >= 0": (numbers.Real, "a real number",
                  lambda v: 0 <= v <= sys.float_info.max, "finite and nonnegative"),
}


def check_settings(*settings) -> None:
    """Check ``(name, value, rule)`` triples in order, a rule being a key of
    ``_RULES`` or a class; raise ``ConfigurationError`` naming the field and
    the value at the first that breaks its rule.  A bool is no number, and
    a real setting is shown as the float it stands for."""
    for name, value, rule in settings:
        kind, what, within, bound = _RULES.get(rule) or (
            rule, f"a {rule.__name__}", None, None)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigurationError(f"{name} must be {what}, got {value!r}")
        if within is not None and not within(value):
            if kind is numbers.Real:
                with contextlib.suppress(OverflowError):
                    value = float(value)
            raise ConfigurationError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class KrylovConfig:
    tol: float = 1e-6
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        check_settings(("tol", self.tol, "real > 0"),
                       ("max_iterations", self.max_iterations, "integer >= 1"))


@dataclass
class SolveOutcome:
    solution: np.ndarray
    iterations: int
    residual_history: np.ndarray  # ||r_k|| / ||r_0|| for k = 1..iterations
    converged: bool


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(x.ravel().dot(y.ravel()))


def _norm(x: np.ndarray) -> float:
    # the bits of np.linalg.norm, which takes sqrt(x . x) for a real vector
    return math.sqrt(_dot(x, x))


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _start(apply_a, b, x0, r0) -> tuple[np.ndarray, np.ndarray]:
    """``(x, r)``: copies of ``x0`` and of the start residual ``b - A x0``,
    which is ``r0`` when the caller has it and one apply otherwise."""
    x = np.array(x0, dtype=float, copy=True)
    if r0 is not None:
        return x, np.array(r0, dtype=float, copy=True)
    return x, np.asarray(b, dtype=float) - apply_a(x)


def pcg(apply_a, apply_minv, b, x0, config: KrylovConfig = KrylovConfig(),
        *, r0=None) -> SolveOutcome:
    """Preconditioned conjugate gradient for SPD operators; ``r0``, when
    given, is taken as ``b - A x0`` (see :func:`_start`)."""
    apply_minv = apply_minv or _identity
    x, r = _start(apply_a, b, x0, r0)
    r0_norm = _norm(r)
    history: list[float] = []
    if r0_norm == 0.0:
        return SolveOutcome(x, 0, np.array(history), True)
    z = apply_minv(r)
    p = z.copy()
    rz = _dot(r, z)
    work = np.empty_like(r)
    for k in range(1, config.max_iterations + 1):
        if not math.isfinite(rz):  # rz divides at this iteration's end
            raise SolverDivergenceError("pcg", k)
        if rz == 0.0:
            raise SolverBreakdownError("pcg", k, "r . z vanished")
        q = apply_a(p)
        curvature = _dot(p, q)
        if not math.isfinite(curvature):
            raise SolverDivergenceError("pcg", k)
        if curvature <= 0.0:
            raise IndefiniteOperatorError(k, curvature)
        step = rz / curvature
        x += np.multiply(step, p, out=work)
        r -= np.multiply(step, q, out=work)
        rel = _norm(r) / r0_norm
        if not math.isfinite(rel):
            raise SolverDivergenceError("pcg", k)
        history.append(rel)
        if rel < config.tol:
            return SolveOutcome(x, k, np.array(history), True)
        z = apply_minv(r)
        rz_next = _dot(r, z)
        p *= rz_next / rz  # p = z + (rz_next / rz) p
        p += z
        rz = rz_next
    return SolveOutcome(x, config.max_iterations, np.array(history), False)


def pbicgstab(apply_a, apply_minv, b, x0, config: KrylovConfig = KrylovConfig(),
              *, r0=None) -> SolveOutcome:
    """Right-preconditioned BiCGstab for general invertible operators;
    ``r0``, when given, is taken as ``b - A x0`` (see :func:`_start`)."""
    apply_minv = apply_minv or _identity
    x, r = _start(apply_a, b, x0, r0)
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
    work = np.empty_like(r)
    for k in range(1, config.max_iterations + 1):
        rho_next = _dot(r_shadow, r)
        if abs(rho_next) < 1e-30 * r0_norm * r0_norm:
            raise SolverBreakdownError("pbicgstab", k, "rho vanished")
        beta = (rho_next / rho) * (alpha / omega)
        p -= np.multiply(omega, v, out=work)  # p = r + beta (p - omega v)
        p *= beta
        p += r
        p_hat = apply_minv(p)
        v = apply_a(p_hat)
        denom = _dot(r_shadow, v)
        if abs(denom) < 1e-30 * r0_norm * r0_norm:
            raise SolverBreakdownError("pbicgstab", k, "shadow angle vanished")
        alpha = rho_next / denom
        r -= np.multiply(alpha, v, out=work)  # r holds s = r - alpha v
        rel = _norm(r) / r0_norm
        if not math.isfinite(rel):
            raise SolverDivergenceError("pbicgstab", k)
        if rel < config.tol:
            x += np.multiply(alpha, p_hat, out=work)
            history.append(rel)
            return SolveOutcome(x, k, np.array(history), True)
        s_hat = apply_minv(r)
        t = apply_a(s_hat)
        tt = _dot(t, t)
        if tt == 0.0:
            raise SolverBreakdownError("pbicgstab", k, "stabilizer direction vanished")
        omega = _dot(t, r) / tt
        if abs(omega) < 1e-300:
            raise SolverBreakdownError("pbicgstab", k, "omega vanished")
        x += np.add(np.multiply(alpha, p_hat, out=work), omega * s_hat, out=work)
        r -= np.multiply(omega, t, out=work)  # r = s - omega t
        rel = _norm(r) / r0_norm
        if not math.isfinite(rel):
            raise SolverDivergenceError("pbicgstab", k)
        history.append(rel)
        if rel < config.tol:
            return SolveOutcome(x, k, np.array(history), True)
        rho = rho_next
    return SolveOutcome(x, config.max_iterations, np.array(history), False)
