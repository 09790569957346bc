"""Outer lagged-diffusivity fixed-point loop for smoothed-TV restoration.

Each step freezes the diffusion coefficient at the current iterate and
solves one linear system

* normal form:   ``(H* H + alpha L(u_k)) u_{k+1} = H* v``
* re-blurred:    ``(H' H + alpha L(u_k)) u_{k+1} = H' v``

with a Krylov method: conjugate gradient when the system is symmetric
(normal form with the zero-Neumann diffusion operator), BiCGstab otherwise.
``CONFIGURATIONS`` is the one table of the benchmark configurations.
``StepSystem`` defines each step's system and, in ``krylov_problem``, its
solve; ``el_residual`` is its one optimality residual.  The data term
``B H`` is two products with dense n x n factors, one per axis, for 2D
data with a separable PSF, under every blur BC; for any other PSF it is
``B`` after ``H``.  The diffusion term ``alpha L`` is added into the data
term's output: in 2D by one five-diagonal C loop over the bands of
``alpha L``, packed once per step (``tv.band_kernel``), which the scaled
system's apply runs on ``S w``; in 1D by ``L``'s flux form, which keeps
the 1D results' bytes (the ``tv`` module says why).  No apply of a
step's system, of its blur or of its preconditioner writes into its
argument: the Krylov solvers keep using the vectors they pass.  The inner
solve starts from the previous iterate and may be preconditioned by any
of the transform-algebra preconditioners; the ``x_d`` selector solves the
diagonally scaled system instead and maps the solution back, which is
spectrally equivalent to the ``d_x`` wrap on the unscaled system.

The loop starts from ``u_0 = v`` and stops when the relative change
``||u_k - u_{k-1}|| / ||u_k||`` drops below ``fp_tol`` or the iterate does
not change at all (as for zero data, where ``||u_k|| = 0``), or at
``fp_max``.  A norm that overflows raises ``SolverDivergenceError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .blur import (FAST_TRANSFORMS, BoundaryCondition, StructuredBlurOperator,
                   SymmetricPsf)
from .krylov import (ConfigurationError, KrylovConfig, SolverDivergenceError,
                     check_settings, pbicgstab, pcg)
from .precond import assemble_preconditioner, smallest_order
from .transforms import MIN_BORDERED_N
from .tv import (DiffusionBc, DiffusionOperator, band_kernel, check_beta,
                 scaling_diagonal)


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


_AR = BoundaryCondition.ANTI_REFLECTIVE
_ZN = DiffusionBc.ZERO_NEUMANN

#: label -> (blur BC, diffusion BC, formulation, preconditioner family)
CONFIGURATIONS: dict[str, tuple[BoundaryCondition, DiffusionBc, Formulation, str]] = {
    "R": (BoundaryCondition.REFLECTIVE, _ZN, Formulation.NORMAL, "R"),
    "AR+Sine+ZN": (_AR, _ZN, Formulation.NORMAL, "M"),
    "AR+Reblur+ZN": (_AR, _ZN, Formulation.REBLUR, "P"),
    "AR+Reblur+AR": (_AR, DiffusionBc.ANTI_REFLECTIVE, Formulation.REBLUR, "P"),
}

#: (blur BC, formulation) of every valid restore system: the re-blurred
#: form needs anti-reflective blur
DATA_TERMS = tuple((bc_h, formulation) for bc_h in BoundaryCondition
                   for formulation in Formulation
                   if formulation is Formulation.NORMAL or bc_h is _AR)

#: (blur BC, formulation) -> preconditioner family
_BASE_KIND = {(bc_h, formulation): family
              for bc_h, _, formulation, family in CONFIGURATIONS.values()}

#: largest data norm whose inner product with itself is still finite
_MAX_DATA_NORM = float(np.sqrt(np.finfo(float).max))

#: selectors that assemble a transform-algebra preconditioner
_ASSEMBLED = (PrecondSelector.X, PrecondSelector.D_X, PrecondSelector.X_D)

#: selector -> preconditioner label, ``{}`` standing for the family
_LABELS = {
    PrecondSelector.NONE: "I",
    PrecondSelector.DIAG: "D",
    PrecondSelector.X: "{}",
    PrecondSelector.D_X: "D_{}",
    PrecondSelector.X_D: "{}_D",
}


@dataclass(frozen=True)
class RestorationConfig:
    """A restore's settings, checked at construction; ``inner`` checks its own."""

    bc_h: BoundaryCondition
    alpha: float
    beta: float
    bc_l: DiffusionBc = DiffusionBc.ZERO_NEUMANN
    formulation: Formulation = Formulation.NORMAL
    preconditioner: PrecondSelector = PrecondSelector.NONE
    fp_tol: float = 1e-3
    fp_max: int = 100
    inner: KrylovConfig = field(default_factory=KrylovConfig)

    def __post_init__(self) -> None:
        check_settings(
            ("bc_h", self.bc_h, BoundaryCondition), ("bc_l", self.bc_l, DiffusionBc),
            ("formulation", self.formulation, Formulation),
            ("inner", self.inner, KrylovConfig),
            ("preconditioner", self.preconditioner, PrecondSelector),
            ("alpha", self.alpha, "real > 0"), ("fp_tol", self.fp_tol, "real > 0"),
            ("fp_max", self.fp_max, "integer >= 1"))
        check_beta(self.beta)
        if (self.bc_h, self.formulation) not in DATA_TERMS:
            raise ConfigurationError(
                "the re-blurred formulation requires anti-reflective blur BCs"
            )
        if self.preconditioner in _ASSEMBLED:
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
    inner_iterations: list[int]
    fp_converged: bool
    inner_converged: bool
    gradient_norms: list[float]
    final_gradient_norm: float
    rre: float | None
    wall_time: float

    @property
    def fp_steps(self) -> int:
        """Fixed-point steps taken, one inner solve each."""
        return len(self.inner_iterations)

    @property
    def avg_inner(self) -> float:
        """Mean inner iterations per fixed-point step."""
        return float(np.mean(self.inner_iterations))


def unconverged_reason(report: RestorationReport,
                       config: RestorationConfig) -> str | None:
    """Why a restore under ``config`` did not converge, or None if it did."""
    if not report.inner_converged:
        return (f"an inner solve stopped at its iteration limit "
                f"{config.inner.max_iterations}")
    if not report.fp_converged:
        return (f"fixed-point loop did not reach tolerance "
                f"{config.fp_tol!r} in {config.fp_max} steps")
    return None


def _transposes(bc_h: BoundaryCondition, formulation: Formulation) -> bool:
    """Whether ``B`` is ``H^T`` rather than ``H``: the normal form under
    anti-reflective blur, where ``H`` is not symmetric."""
    return bc_h is _AR and formulation is Formulation.NORMAL


def operator_applies(h_op: StructuredBlurOperator,
                     formulation: Formulation) -> tuple:
    """``(H, B)`` as functions of an array that they leave alone: the
    operator's bound ``fast_applies`` under a fast BC, and the reference
    applies under zero and periodic blur."""
    if h_op.bc not in FAST_TRANSFORMS:
        return h_op.apply, h_op.apply
    forward, transpose = h_op.fast_applies()
    return forward, transpose if _transposes(h_op.bc, formulation) \
        else forward


def data_matrix(psf: SymmetricPsf, bc_h: BoundaryCondition,
                formulation: Formulation, n: int) -> np.ndarray:
    """The dense n x n data term ``F = B H`` of a 1D kernel under ``bc_h``."""
    h = StructuredBlurOperator(psf, bc_h, n).matrix()
    return (h.T if _transposes(bc_h, formulation) else h) @ h


class StepSystem:
    """The linear system ``A u = (B H + alpha L) u = B v`` of each step.

    ``H`` blurs by ``psf`` under ``config.bc_h``; ``B`` is ``H*`` (normal
    form) or the re-blur ``H'``, both transform-diagonalized when
    ``blur.FAST_TRANSFORMS`` holds the blur BC.  A symmetric PSF gives a
    symmetric ``H`` under the zero, periodic and reflective extensions, and
    its re-blur ``H'`` is ``H``; so ``B = H`` except for the normal form
    under anti-reflective blur, which needs the transpose.

    ``data_term`` is the callable ``B H``, chosen once here by one of two
    rules.  For 2D data whose PSF is separable, ``h = a b^T``
    (``SymmetricPsf.factors``), the blur under each of the four extensions
    is a Kronecker product, ``H W = H_a W H_b^T``, so ``B H`` is
    ``W -> F0 W F1^T`` with the dense n x n 1D data terms ``F = B H`` of
    the two axis kernels (``data_matrix``): two products per matvec,
    whatever the blur BC.  Every other PSF, 1D or non-separable 2D, takes
    ``back(forward(w))`` on the applies of ``operator_applies``: fast under
    reflective and anti-reflective blur, the references under zero and
    periodic blur.  ``apply`` and the scaled apply add the diffusion term
    into the data term's output, which must therefore be a fresh
    C-contiguous float64 array: in 2D the kernel that adds it writes
    through to the array it is given.
    Built once per restoration; ``freeze`` hands it each step's diffusion
    operator ``L``, ``scale`` gives the scaled system
    ``D^{-1/2} A D^{-1/2}``, and ``krylov_problem`` the step's solve.
    """

    def __init__(self, psf: SymmetricPsf, config: RestorationConfig,
                 v: np.ndarray) -> None:
        self.h_op = h_op = StructuredBlurOperator(psf, config.bc_h, v.shape[0])
        forward, back = operator_applies(h_op, config.formulation)
        factors = psf.factors()
        if factors is None:
            self.data_term = lambda w: back(forward(w))
        else:
            f0, f1 = (data_matrix(factor, h_op.bc, config.formulation, h_op.n)
                      for factor in factors)
            self.data_term = lambda w: f0 @ w @ f1.T
        self.alpha = config.alpha
        self.selector = config.preconditioner
        self.kind = config.resolved_kind()
        self.rhs = back(v)
        self.l_op = None
        self._add_diffusion = None

    def freeze(self, l_op: DiffusionOperator) -> None:
        """Take the diffusion operator frozen at the step's iterate; in 2D
        pack the bands of ``alpha L`` for the apply."""
        self.l_op = l_op
        self._add_diffusion = band_kernel(l_op.bands(), self.alpha) \
            if l_op.ndim == 2 else None

    def apply(self, w: np.ndarray) -> np.ndarray:
        """``A w``, summed into the data term's own array: ``w`` is left
        alone."""
        out = self.data_term(w)
        if self._add_diffusion is not None:
            return self._add_diffusion(w, out)
        diffusion = self.l_op.apply(w)
        diffusion *= self.alpha
        out += diffusion
        return out

    def scale(self, u: np.ndarray) -> tuple:
        """(apply, rhs, start, map back) of ``D^{-1/2} A D^{-1/2}`` from ``u``."""
        s = self.l_op.scaling(self.alpha)

        def apply(w):
            out = self.apply(s * w)
            out *= s
            return out
        return apply, s * self.rhs, u / s, (lambda u_tilde: s * u_tilde)

    def krylov_problem(self, u: np.ndarray) -> tuple:
        """(apply, preconditioner solve or None, right-hand side, start,
        map back) of the step's solve from ``u`` for the configured
        preconditioner selector."""
        if self.selector is PrecondSelector.X_D:
            apply, rhs, start, back = self.scale(u)
        else:
            apply, rhs, start, back = self.apply, self.rhs, u, lambda x: x
        if self.selector is PrecondSelector.NONE:
            solve = None
        elif self.selector is PrecondSelector.DIAG:
            d = scaling_diagonal(self.l_op, self.alpha)
            solve = lambda w: w / d  # noqa: E731
        else:
            solve = assemble_preconditioner(self.kind, self.h_op, self.l_op,
                                            self.alpha).apply_inverse
        return apply, solve, rhs, start, back


def el_residual(system: StepSystem, u: np.ndarray) -> np.ndarray:
    """First-order optimality residual ``(B H + alpha L) u - B v``.

    With ``L`` frozen at ``u`` this is the gradient of the smoothed-TV
    objective, ``B (H u - v) + alpha L(u) u``; ``restore`` freezes it so.
    """
    return system.apply(u) - system.rhs


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


def _check_sizes(n: int, psf: SymmetricPsf, config: RestorationConfig) -> None:
    """Reject a grid side the configured operators cannot take, naming
    ``n``, the configuration and the limit, before any operator is built."""
    m = psf.half_width
    family = _BASE_KIND.get((config.bc_h, config.formulation))
    if m >= n:
        what, limit = f"a PSF of half-width {m}", m + 1
    elif config.bc_h is _AR and n < MIN_BORDERED_N:
        what, limit = "the anti-reflective transform", MIN_BORDERED_N
    elif config.preconditioner in _ASSEMBLED and \
            n < (limit := smallest_order(family)):
        what = f"preconditioner {config.resolved_kind()!r}"
    else:
        return
    raise ConfigurationError(
        f"n={n} is too small for {what} ({config.bc_h.value} blur, "
        f"{config.formulation.value} form, selector "
        f"{config.preconditioner.value}): it needs n >= {limit}"
    )


def _check_reference(data: tuple, u_true: np.ndarray) -> None:
    """Reject a ``u_true`` the RRE cannot use, naming both shapes."""
    if u_true.shape != data:
        problem = "u_true must have the data's shape"
    elif not np.all(np.isfinite(u_true)):
        problem = "u_true must be finite"
    elif not np.any(u_true):
        problem = "u_true must have nonzero norm"
    else:
        return
    raise ConfigurationError(
        f"{problem}: data shape {data}, u_true shape {u_true.shape}"
    )


def _scaled_norm(x: np.ndarray) -> tuple[float, int]:
    """``(||x|| 2^-e, e)`` with ``2^e`` the power of two of ``max|x|``
    (``np.frexp``): the division is exact, and no square under- or
    overflows."""
    exponent = int(np.frexp(np.max(np.abs(x)))[1])
    return float(np.linalg.norm(np.ldexp(x, -exponent).ravel())), exponent


def _rre(u: np.ndarray, u_true: np.ndarray) -> float:
    """``||u - u_true|| / ||u_true||`` from the two scaled norms: at any
    scale it is the unit-scale ratio, bit for bit, unless the difference
    or the ratio itself leaves the normal range."""
    error, e_error = _scaled_norm(u - u_true)
    norm, e_norm = _scaled_norm(u_true)
    return float(np.ldexp(error / norm, e_error - e_norm))


def restore(v, psf: SymmetricPsf, config: RestorationConfig,
            u_true=None) -> RestorationReport:
    """Run the fixed-point restoration of observed data ``v``."""
    v = np.asarray(v, dtype=float)
    _check_shapes(v.shape, psf.coefficients.shape)
    _check_sizes(v.shape[0], psf, config)
    if u_true is not None:
        u_true = np.asarray(u_true, dtype=float)
        _check_reference(v.shape, u_true)
    if not np.all(np.isfinite(v)):
        raise ConfigurationError("observed data must be finite")
    # An alpha or data the settings accept can still overflow the system;
    # the solvers' finite checks and the fixed-point change check raise
    # SolverDivergenceError for every non-finite value, so numpy's overflow
    # and invalid-value warnings would only repeat that failure.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.linalg.norm(v.ravel()) > _MAX_DATA_NORM:
            raise ConfigurationError(
                f"observed data norm exceeds sqrt(finfo(float).max) = "
                f"{_MAX_DATA_NORM!r}: the solver's inner products would overflow"
            )
        started = time.perf_counter()
        system = StepSystem(psf, config, v)

        symmetric = (config.formulation is Formulation.NORMAL
                     and config.bc_l is DiffusionBc.ZERO_NEUMANN)
        solver = pcg if symmetric else pbicgstab

        u = v.copy()
        inner_iterations: list[int] = []
        gradient_norms: list[float] = []
        fp_converged = False
        inner_converged = True
        for _ in range(config.fp_max):
            system.freeze(DiffusionOperator(u, config.beta, config.bc_l))
            gradient_norms.append(
                float(np.linalg.norm(el_residual(system, u).ravel())))

            apply_a, apply_minv, rhs, u0, back = system.krylov_problem(u)
            outcome = solver(apply_a, apply_minv, rhs, u0, config.inner)
            u_next = back(outcome.solution)

            inner_iterations.append(outcome.iterations)
            inner_converged = inner_converged and outcome.converged
            change = float(np.linalg.norm((u_next - u).ravel()))
            scale = float(np.linalg.norm(u_next.ravel()))
            if not np.isfinite(change + scale):  # change / inf would read as 0
                raise SolverDivergenceError("fixed-point loop",
                                            len(inner_iterations))
            u = u_next
            # an unchanged iterate is a fixed point even where u = 0
            if change == 0.0 or (scale > 0 and change / scale < config.fp_tol):
                fp_converged = True
                break

        system.freeze(DiffusionOperator(u, config.beta, config.bc_l))
        final_gradient = float(np.linalg.norm(el_residual(system, u).ravel()))

        rre = None if u_true is None else _rre(u, u_true)

        return RestorationReport(
            restored=u,
            inner_iterations=inner_iterations,
            fp_converged=fp_converged,
            inner_converged=inner_converged,
            gradient_norms=gradient_norms,
            final_gradient_norm=final_gradient,
            rre=rre,
            wall_time=time.perf_counter() - started,
        )
