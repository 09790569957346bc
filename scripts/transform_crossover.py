#!/usr/bin/env python3
"""FFT against cached-matrix products for 2D transforms, assembly, 1D
band forms and the data term, and the 1D data term against its dense matrix.

``transforms._takes_products`` picks between the two for band forms and
2D tensor applies, by the length and by whether the input is a batch; the
bounds it reads are printed first.  The first table gives, for each
transform kind and grid side n, the best-of-k time of one forward 2D
tensor apply done three ways: the 1D pocketfft transform along each axis;
the two products ``m @ G @ m.T`` with the dense matrix ``m`` of the 1D
apply (``transforms._dense_1d``, built before the timing), which no
library path takes any more and which stays here as the reference; and
the forward apply in the parity layout that ``transforms.diagonalized``
takes up to the batch bound: ``transforms._synthesis_step`` on each axis
with the half-size blocks of ``transforms._parity_blocks``, also built
before the timing.  The ratio is the per-axis time over the parity time.

The second table gives the best-of-k time of one 2D
``assemble_preconditioner`` call for R, R_D, M_D and P_D, with the band
forms of the projections done two ways, each called in place of the
rule's choice: the FFT closed forms, and the products with the cached band
matrices.  Together the tables are the evidence for the batch bound.

The band-form table gives, for the DCT and the DST-I and each length n,
the best-of-k time of one vector band form at offset 1 done the same two
ways: it is the evidence for the vector bound, which the 1D projections
take.

The third table gives, for each blur BC and formulation, the best-of-k
time of one 2D data term ``B H`` done two ways: ``B`` after ``H`` on the
2D operator's applies ``(H, B)`` (``pipeline.operator_applies``), which a
non-separable PSF takes, and the Kronecker form ``F0 @ W @ F1.T`` that
``pipeline.StepSystem`` takes for the separable harness PSF, with the
dense 1D data terms of its axis kernels, run on their row blocks
(``pipeline.kronecker_term``).

The last table gives, for each blur BC and formulation with a fast
transform, the best-of-k time of one 1D data term ``B H`` done two ways:
``pipeline.StepSystem``'s composed apply, which runs ``H`` and then ``B``,
and the dense ``F @ w`` with the n x n data term ``F = B H``
(``pipeline.data_matrix``).  It is the 1D crossover a dense 1D data term
would be chosen by; no code reads it yet.

``--sizes`` gives the sizes of every table (by default the 2D tables take
``SIZES``, the band-form table ``BAND_SIZES`` and the 1D data term table
``SIZES_1D``).  The assembly and 2D data term tables use the harness's 2D
PSF for each side, the Gaussian of half-width m = ceil(n/8) and sigma =
m/2; the 1D data term table the harness's 1D out-of-focus PSF of
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

from tvdeblur import precond, transforms
from tvdeblur.blur import (
    FAST_TRANSFORMS,
    BoundaryCondition,
    StructuredBlurOperator,
)
from tvdeblur.harness import PSF_KINDS, default_half_width, gen_psf
from tvdeblur.pipeline import (
    DATA_TERMS,
    RestorationConfig,
    StepSystem,
    data_matrix,
    kronecker_term,
    operator_applies,
)
from tvdeblur.precond import (
    IndefinitePreconditionerError,
    assemble_preconditioner,
)
from tvdeblur.transforms import TransformKind, apply_1d
from tvdeblur.tv import DiffusionBc, DiffusionOperator

SIZES = (64, 96, 120, 127, 128, 129, 136, 144, 150, 160, 192, 256, 384, 512)
SIZES_1D = (64, 128, 203, 256, 512, 1024, 2048)
BAND_SIZES = (144, 201, 203, 256, 384, 512, 768, 1024)
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


def fft_band_form(kind, band, offset, n):
    """The band form's FFT path, whatever the rule picks."""
    return transforms._fft_band_form(kind, band, abs(offset), n)


def product_band_form(kind, band, offset, n):
    """The band form's product path, whatever the rule picks."""
    return transforms._product_band_form(kind, np.asarray(band, dtype=float),
                                         abs(offset), n)


def assembly_table(sizes, repeats: int) -> None:
    """Best-of-k 2D assembly, FFT band forms against cached products."""
    print(f"{'kind':<16}{'n':>5}{'fft':>11}{'products':>11}{'ratio':>8}")
    rng = np.random.default_rng(0)
    alpha = 1e-2
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
                for path in (fft_band_form, product_band_form):
                    precond.band_form = path
                    times.append(best_us(
                        lambda: assemble_preconditioner(kind, h_op, l_op, alpha),
                        repeats) / 1e3)
            except IndefinitePreconditionerError as err:
                # the harness PSF of some sides makes P_D indefinite on
                # this iterate (the ROADMAP's open case "P_D can be
                # indefinite"); the row says so
                print(f"{kind:<16}{n:>5}  {err}")
                continue
            finally:
                precond.band_form = transforms.band_form
            fft, product = times
            print(f"{kind:<16}{n:>5}{fft:>11.2f}{product:>11.2f}"
                  f"{fft / product:>8.2f}")


def band_form_table(sizes, repeats: int) -> None:
    """Best-of-k vector band form at offset 1, FFT against the product."""
    print(f"{'kind':<16}{'n':>5}{'band-fft':>11}{'product':>11}{'ratio':>8}")
    rng = np.random.default_rng(0)
    for kind in (TransformKind.DCT, TransformKind.DST1):
        for n in sizes:
            band = rng.standard_normal(n - 1)
            us = [best_us(lambda: path(kind, band, 1, n), repeats)
                  for path in (fft_band_form, product_band_form)]
            print(f"{kind.value:<16}{n:>5}{us[0]:>11.1f}{us[1]:>11.1f}"
                  f"{us[0] / us[1]:>8.2f}")


def data_term_table(sizes, repeats: int) -> None:
    """Best-of-k 2D data term, the operator's applies against the
    Kronecker products on the factors' row blocks (``kronecker_term``)."""
    print(f"{'kind':<24}{'n':>5}{'operator':>11}{'kronecker':>11}{'ratio':>8}")
    rng = np.random.default_rng(0)
    for bc, formulation in DATA_TERMS:
        for n in sizes:
            psf = harness_psf(n)
            h_op = StructuredBlurOperator(psf, bc, n)
            forward, back = operator_applies(h_op, formulation)
            term = kronecker_term(*(data_matrix(factor, bc, formulation, n)
                                    for factor in psf.factors()))
            w = rng.standard_normal((n, n))
            ms = [best_us(fn, repeats) / 1e3
                  for fn in (lambda: back(forward(w)), lambda: term(w))]
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
    print(f"products up to n = {transforms._VECTOR_MAX_N} for one vector, "
          f"n = {transforms._BATCH_MAX_N} for a batch or a 2D grid")
    print(f"\n2D tensor apply, best of {args.repeats}, us")
    print(f"{'kind':<16}{'n':>5}{'per-axis':>11}{'matrix':>11}"
          f"{'parity':>11}{'ratio':>8}")
    sizes = args.sizes or SIZES
    rng = np.random.default_rng(0)
    for kind in TransformKind:
        for n in sizes:
            g = rng.standard_normal((n, n))
            m = transforms._dense_1d(kind, False, False, n)
            blocks = transforms._parity_blocks(kind, False, False, n)
            step = transforms._synthesis_step
            per_axis = best_us(
                lambda: apply_1d(kind, apply_1d(kind, g.T).T),
                args.repeats)
            product = best_us(lambda: m @ g @ m.T, args.repeats)
            parity = best_us(lambda: step(step(g, blocks), blocks),
                             args.repeats)
            print(f"{kind.value:<16}{n:>5}{per_axis:>11.1f}{product:>11.1f}"
                  f"{parity:>11.1f}{per_axis / parity:>8.2f}")
    print(f"\nassemble_preconditioner, best of {args.repeats}, ms")
    assembly_table(sizes, args.repeats)
    print(f"\nvector band form, best of {args.repeats}, us")
    band_form_table(args.sizes or BAND_SIZES, args.repeats)
    print(f"\n2D data term B H, best of {args.repeats}, ms")
    data_term_table(sizes, args.repeats)
    print(f"\n1D data term B H, best of {args.repeats}, us")
    data_term_1d_table(args.sizes or SIZES_1D, args.repeats)


if __name__ == "__main__":
    main()
