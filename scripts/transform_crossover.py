#!/usr/bin/env python3
"""FFT against cached-matrix products for 2D transforms, assembly and the
data term, and the 1D data term against its dense matrix.

The first table gives, for each transform kind and grid side n, the
best-of-k time of one forward 2D tensor apply done two ways: the 1D
pocketfft transform along each axis, and the two products
``m @ G @ m.T`` with the cached dense matrix ``m`` of the 1D apply.
``tensor_apply_2d`` takes the product for n <= ``transforms._GEMM_MAX_N``.

The second table gives the best-of-k time of one 2D
``assemble_preconditioner`` call for R, R_D, M_D and P_D, with the band sums
of the projections done two ways: the FFT closed forms (selected by
setting the cutoff to 0) and the products with the cached band matrices
that ``precond`` uses up to the same cutoff.  Together the tables are the
evidence for that cutoff.

The third table gives, for each blur BC and formulation, the best-of-k
time of one 2D data term ``B H`` done two ways: ``B`` after ``H`` on the
2D operator's applies ``(H, B)`` (``pipeline.operator_applies``), which a
non-separable PSF takes, and the Kronecker form ``F0 @ W @ F1.T`` that
``pipeline.StepSystem`` takes for the separable harness PSF, with the
dense 1D data terms of its axis kernels.

The fourth table gives, for each blur BC and formulation with a fast
transform, the best-of-k time of one 1D data term ``B H`` done two ways:
``pipeline.StepSystem``'s composed apply, which runs ``H`` and then ``B``
in place on one copy of the vector, and the dense ``F @ w`` with the
n x n data term ``F = B H`` (``pipeline.data_matrix``).  It is the 1D
crossover a dense 1D data term would be chosen by; no code reads it yet.

``--sizes`` gives the sizes of every table (by default the 2D tables take
``SIZES`` and the 1D table ``SIZES_1D``).  The second and third use the
harness's 2D PSF for each side, the Gaussian of half-width m = ceil(n/8)
and sigma = m/2; the fourth the harness's 1D out-of-focus PSF of
half-width ceil(n/20).  Each cell repeats its timed call up to
``--repeats`` times and stops after about a second, which bounds the
reference data terms at large n.  The environment (versions, cores, CPU,
BLAS thread variables) is printed first, because the crossovers depend on
the machine.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/transform_crossover.py
"""

import argparse
import math
import os
import platform
from time import perf_counter

import numpy as np
import scipy

from tvdeblur import transforms
from tvdeblur.blur import (
    FAST_TRANSFORMS,
    BoundaryCondition,
    StructuredBlurOperator,
    scratch,
)
from tvdeblur.harness import PSF_KINDS, default_half_width, gen_psf
from tvdeblur.pipeline import (
    DATA_TERMS,
    RestorationConfig,
    StepSystem,
    data_matrix,
    kronecker_factors,
    operator_applies,
)
from tvdeblur.precond import (
    IndefinitePreconditionerError,
    assemble_preconditioner,
)
from tvdeblur.transforms import TransformKind, apply_1d
from tvdeblur.tv import DiffusionBc, DiffusionOperator

SIZES = (64, 96, 120, 127, 128, 129, 136, 144, 150, 160, 192, 256)
SIZES_1D = (64, 128, 203, 256, 512, 1024, 2048)
ASSEMBLY_KINDS = ("R", "R_D", "M_D", "P_D")
#: seconds of timed calls after which a cell stops repeating
CELL_BUDGET_S = 1.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def best_us(fn, repeats: int) -> float:
    fn()  # fill caches before timing
    best, spent = np.inf, 0.0
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        took = perf_counter() - t0
        best, spent = min(best, took), spent + took
        if spent > CELL_BUDGET_S:
            break
    return best * 1e6


def harness_psf(n: int):
    """The harness's 2D Gaussian for grid side n."""
    m = math.ceil(n / 8)
    return gen_psf("gaussian", m, m / 2)


def assembly_table(sizes, repeats: int) -> None:
    """Best-of-k 2D assembly, FFT band forms against cached products."""
    print(f"{'kind':<16}{'n':>5}{'fft':>11}{'products':>11}{'ratio':>8}")
    rng = np.random.default_rng(0)
    alpha = 1e-2
    cutoff = transforms._GEMM_MAX_N
    for kind in ASSEMBLY_KINDS:
        for n in sizes:
            bc = BoundaryCondition.REFLECTIVE if kind.startswith("R") \
                else BoundaryCondition.ANTI_REFLECTIVE
            l_bc = DiffusionBc.ANTI_REFLECTIVE if kind.startswith("P") \
                else DiffusionBc.ZERO_NEUMANN
            h_op = StructuredBlurOperator(harness_psf(n), bc, n)
            # a smooth iterate with mild noise, as in a late fixed-point step
            x = np.linspace(0.0, 3.0, n)
            u = np.add.outer(np.sin(x), np.cos(2 * x))
            u += 0.01 * rng.standard_normal((n, n))
            l_op = DiffusionOperator(u, 0.01, l_bc)
            times = []
            try:
                for limit in (0, cutoff):
                    transforms._GEMM_MAX_N = limit
                    times.append(best_us(
                        lambda: assemble_preconditioner(kind, h_op, l_op, alpha),
                        repeats) / 1e3)
            except IndefinitePreconditionerError as err:
                # the harness PSF of some sides makes P_D indefinite on
                # this iterate (ROADMAP item 5(a)); the row says so
                print(f"{kind:<16}{n:>5}  {err}")
                continue
            finally:
                transforms._GEMM_MAX_N = cutoff
            fft, product = times
            print(f"{kind:<16}{n:>5}{fft:>11.2f}{product:>11.2f}"
                  f"{fft / product:>8.2f}")


def data_term_table(sizes, repeats: int) -> None:
    """Best-of-k 2D data term, the operator's applies against the
    Kronecker products."""
    print(f"{'kind':<24}{'n':>5}{'operator':>11}{'kronecker':>11}{'ratio':>8}")
    rng = np.random.default_rng(0)
    for bc, formulation in DATA_TERMS:
        for n in sizes:
            psf = harness_psf(n)
            h_op = StructuredBlurOperator(psf, bc, n)
            forward, back = operator_applies(h_op, formulation)
            f0, f1 = kronecker_factors(psf.factors(), bc, formulation, n)
            w = rng.standard_normal((n, n))
            ms = [best_us(fn, repeats) / 1e3
                  for fn in (lambda: back(forward(scratch(w))),
                             lambda: f0 @ w @ f1.T)]
            label = f"{bc.value}/{formulation.value}"
            print(f"{label:<24}{n:>5}{ms[0]:>11.3f}{ms[1]:>11.3f}"
                  f"{ms[0] / ms[1]:>8.2f}")


def data_term_1d_table(sizes, repeats: int) -> None:
    """Best-of-k 1D data term, the composed fast applies against the dense
    data term."""
    print(f"{'kind':<24}{'n':>5}{'composed':>11}{'dense':>11}{'ratio':>8}")
    rng = np.random.default_rng(0)
    for bc, formulation in DATA_TERMS:
        if bc not in FAST_TRANSFORMS:
            continue
        for n in sizes:
            psf = gen_psf(PSF_KINDS[1], default_half_width(n, 1))
            w = rng.standard_normal(n)
            config = RestorationConfig(bc_h=bc, alpha=1.0, beta=1.0,
                                       formulation=formulation)
            composed = StepSystem(psf, config, w).data_term
            f = data_matrix(psf, bc, formulation, n)
            us = [best_us(fn, repeats)
                  for fn in (lambda: composed(w), lambda: f @ w)]
            label = f"{bc.value}/{formulation.value}"
            print(f"{label:<24}{n:>5}{us[0]:>11.1f}{us[1]:>11.1f}"
                  f"{us[0] / us[1]:>8.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    args = parser.parse_args()

    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}")
    print(f"cpu {cpu_model()}")
    print("threads " + ", ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS))
    print(f"best of {args.repeats}, us; cutoff _GEMM_MAX_N = "
          f"{transforms._GEMM_MAX_N}")
    print(f"{'kind':<16}{'n':>5}{'per-axis':>11}{'matrix':>11}{'ratio':>8}")
    sizes = args.sizes or SIZES
    rng = np.random.default_rng(0)
    for kind in TransformKind:
        for n in sizes:
            g = rng.standard_normal((n, n))
            m = transforms._matrix_1d(kind, False, False, n)
            per_axis = best_us(
                lambda: apply_1d(kind, apply_1d(kind, g.T).T),
                args.repeats)
            product = best_us(lambda: m @ g @ m.T, args.repeats)
            print(f"{kind.value:<16}{n:>5}{per_axis:>11.1f}{product:>11.1f}"
                  f"{per_axis / product:>8.2f}")
    print(f"\nassemble_preconditioner, best of {args.repeats}, ms")
    assembly_table(sizes, args.repeats)
    print(f"\n2D data term B H, best of {args.repeats}, ms")
    data_term_table(sizes, args.repeats)
    print(f"\n1D data term B H, best of {args.repeats}, us")
    data_term_1d_table(args.sizes or SIZES_1D, args.repeats)


if __name__ == "__main__":
    main()
