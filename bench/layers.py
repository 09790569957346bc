"""Isolated per-layer timings, each with a check of the layer's output.

Each timing is the best of ``SAMPLES`` samples; a sample times a batch of
calls sized to last about ``BATCH_S``, so small operations are not lost in
clock resolution.  The spread ``(median - best) / best`` travels with it.

Checks: every transform's forward-then-inverse round trip is the identity
within 1e-10, ``apply_fast`` matches the pad/convolve/crop ``apply`` within
1e-10, and a preconditioner applied to its own inverse returns the input
within 1e-8 (all relative to the input's largest entry).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from metrics import OPERATOR_SIZES, TRANSFORM_SIZES, WORKLOAD_OF_SIZE
from workloads import WORKLOADS

SAMPLES = 7
SLOW_SAMPLES = 3  # for calls slower than SLOW_S
SLOW_S = 0.05
BATCH_S = 2e-3

ROUND_TRIP_TOL = 1e-10
FAST_VS_REF_TOL = 1e-10
PRECOND_TOL = 1e-8


@dataclass(frozen=True)
class Timing:
    name: str
    best: float
    spread: float
    failure: str | None


def best_of(fn, scale: float) -> tuple[float, float]:
    """(best, spread) of ``fn``'s per-call time, in seconds times ``scale``."""
    t0 = perf_counter()
    fn()
    once = perf_counter() - t0
    reps = max(1, min(1000, int(BATCH_S / max(once, 1e-9))))
    samples = []
    for _ in range(SLOW_SAMPLES if once > SLOW_S else SAMPLES):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - t0) / reps * scale)
    best = min(samples)
    return best, statistics.median(samples) / best - 1.0


def _size(label: str) -> tuple[int, int]:
    dim, n = label.split("-")
    return int(dim[0]), int(n)


def _mismatch(got, want, tol: float, what: str) -> str | None:
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want))) or 1.0
    if not err <= tol * scale:
        return f"{what}: error {err / scale:.3e} > {tol:g}"
    return None


def transform_timings(rng) -> list[Timing]:
    from tvdeblur.transforms import TransformKind, apply_1d, tensor_apply_2d

    kinds = {"dct": TransformKind.DCT, "dst1": TransformKind.DST1,
             "sine_hat": TransformKind.SINE_HAT,
             "ar": TransformKind.ANTI_REFLECTIVE}
    out = []
    for label in TRANSFORM_SIZES:
        dimension, n = _size(label)
        x = rng.standard_normal((n,) * dimension)
        apply = apply_1d if dimension == 1 else tensor_apply_2d
        for short, kind in kinds.items():
            def forward(kind=kind):
                return apply(kind, x)
            back = apply(kind, forward(), inverse=True)
            failure = _mismatch(back, x, ROUND_TRIP_TOL,
                                f"{short} round trip {label}")
            best, spread = best_of(forward, 1e6)
            out.append(Timing(f"transforms.{short}_us.{label}", best,
                              spread, failure))
    return out


def blur_timings(rng, problems) -> list[Timing]:
    from tvdeblur.blur import BoundaryCondition, StructuredBlurOperator

    bcs = {"R": BoundaryCondition.REFLECTIVE,
           "AR": BoundaryCondition.ANTI_REFLECTIVE}
    out = []
    for label in OPERATOR_SIZES:
        dimension, n = _size(label)
        psf = problems[label][0]
        x = rng.standard_normal((n,) * dimension)
        for short, bc in bcs.items():
            op = StructuredBlurOperator(psf, bc, n)
            failure = _mismatch(op.apply_fast(x), op.apply(x), FAST_VS_REF_TOL,
                                f"blur {short} fast vs reference {label}")
            for path, fn in (("fast", op.apply_fast), ("ref", op.apply)):
                best, spread = best_of(lambda fn=fn: fn(x), 1e6)
                out.append(Timing(f"blur.{path}_us.{short}.{label}", best,
                                  spread, failure if path == "fast" else None))
    return out


def tv_timings(problems) -> list[Timing]:
    from tvdeblur.tv import DiffusionOperator

    out = []
    for label in OPERATOR_SIZES:
        dimension, _ = _size(label)
        u = problems[label][1]
        op = DiffusionOperator(u, 0.1 if dimension == 1 else 0.01)
        best, spread = best_of(lambda: op.apply(u), 1e6)
        out.append(Timing(f"tv.apply_us.{label}", best, spread, None))
    return out


def precond_timings(rng, problems) -> list[Timing]:
    from tvdeblur.blur import BoundaryCondition, StructuredBlurOperator
    from tvdeblur.precond import assemble_preconditioner
    from tvdeblur.tv import DiffusionBc, DiffusionOperator

    families = {"R_D": (BoundaryCondition.REFLECTIVE, DiffusionBc.ZERO_NEUMANN),
                "P_D": (BoundaryCondition.ANTI_REFLECTIVE,
                        DiffusionBc.ANTI_REFLECTIVE)}
    out = []
    for label in OPERATOR_SIZES:
        dimension, n = _size(label)
        psf, u, _ = problems[label]
        alpha, beta = (1e-3, 0.1) if dimension == 1 else (1e-2, 0.01)
        b = rng.standard_normal(u.shape)
        for kind, (bc_h, bc_l) in families.items():
            h_op = StructuredBlurOperator(psf, bc_h, n)
            h_op.eigenvalues()
            l_op = DiffusionOperator(u, beta, bc_l)

            def assemble(h_op=h_op, l_op=l_op, kind=kind):
                return assemble_preconditioner(kind, h_op, l_op, alpha)
            pre = assemble()
            failure = _mismatch(pre.apply(pre.apply_inverse(b)), b,
                                PRECOND_TOL, f"{kind} apply(apply_inverse) {label}")
            best, spread = best_of(assemble, 1e3)
            out.append(Timing(f"precond.assemble_ms.{kind}.{label}",
                              best, spread, None))
            best, spread = best_of(lambda pre=pre: pre.apply_inverse(b), 1e6)
            out.append(Timing(f"precond.solve_us.{kind}.{label}",
                              best, spread, failure))
    return out


def all_timings(seed: int) -> list[Timing]:
    """Every isolated timing.  Blur, diffusion and preconditioner inputs are
    the kernel and observed data (the first fixed-point iterate) that the
    spec of the size's workload gives at that size."""
    from tvdeblur.harness import make_problem

    problems = {}
    for label, name in WORKLOAD_OF_SIZE.items():
        problems[label] = make_problem(WORKLOADS[name].spec(seed),
                                       _size(label)[1])
    rng = np.random.default_rng(seed)
    return (transform_timings(rng) + blur_timings(rng, problems)
            + tv_timings(problems) + precond_timings(rng, problems))
