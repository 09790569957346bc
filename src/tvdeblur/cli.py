"""Command-line interface: gen / restore / sweep / spectra.

``spectra`` is the whole small-n clustering diagnostic: it probes the
preconditioned matrix ``M^{-1} A`` of restore's first fixed-point step
densely (1D, n <= 128), takes its eigenvalues with numpy's LAPACK binding,
and writes them, a histogram of their real parts and the share within
``CLUSTER_RADIUS`` of 1.

Exit codes: 0 success; 2 on a ``ConfigurationError``, a bad setting or file;
3 on a ``NumericalFailure`` or a restore that did not converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .blur import BoundaryCondition, save_psf
from .krylov import ConfigurationError, NumericalFailure
from .pipeline import (
    CONFIGURATIONS,
    Formulation,
    PrecondSelector,
    StepSystem,
    restore,
    unconverged_reason,
)
from .tv import DiffusionBc, DiffusionOperator

#: spectra histogram bins, and the distance from 1 of a clustered eigenvalue
_BINS, CLUSTER_RADIUS = 20, 0.1


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=1, choices=(1, 2))
    parser.add_argument("--n", type=int, default=203)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--nsr", type=float, default=0.01,
                        help="noise-to-signal ratio")
    parser.add_argument("--psf-m", type=int, default=None,
                        help="psf half-width (default: ceil(n/20) in 1D, "
                             "ceil(n/8) in 2D)")
    parser.add_argument("--psf-sigma", type=float, default=None,
                        help="gaussian psf width (2D; default m/2)")
    parser.add_argument("--out-dir", type=Path, default=Path("out"))


def _make_problem(args, **settings) -> tuple:
    spec = harness.BenchmarkSpec(
        dimension=args.dim,
        ns=(args.n,),
        nsr=args.nsr,
        seed=args.seed,
        psf_half_width=args.psf_m,
        psf_sigma=args.psf_sigma,
        **settings,
    )
    return spec, harness.make_problem(spec, args.n)


def _cmd_gen(args) -> int:
    spec, (psf, observed, u_true) = _make_problem(args)
    out = harness.make_out_dir(args.out_dir)
    save_psf(psf, out / "psf.txt")
    harness.write_field(out / "true", u_true, u_true)
    harness.write_field(out / "observed", observed, u_true, column="v")
    print(f"wrote benchmark inputs to {out}")
    return 0


def _cmd_restore(args) -> int:
    spec, (psf, observed, u_true) = _make_problem(args, fp_max=args.fp_max)
    config = spec.restoration_config(
        BoundaryCondition(args.bc), DiffusionBc(args.l_bc),
        Formulation(args.formulation), args.precond, args.alpha, args.beta)
    out = harness.make_out_dir(args.out_dir)
    report = restore(observed, psf, config, u_true=u_true)
    harness.write_field(out / "restored", report.restored, u_true)
    summary = [
        f"config: bc={args.bc} l_bc={args.l_bc} formulation={args.formulation} "
        f"precond={args.precond} alpha={args.alpha!r} beta={args.beta!r} n={args.n}",
        f"fp_steps: {report.fp_steps}",
        f"avg_inner: {report.avg_inner!r}",
        f"fp_converged: {report.fp_converged}",
        f"inner_converged: {report.inner_converged}",
        f"final_gradient_norm: {report.final_gradient_norm!r}",
        f"rre: {report.rre!r}",
        f"wall_time_s: {report.wall_time!r}",
    ]
    (out / "report.txt").write_text("\n".join(summary) + "\n", encoding="ascii")
    print("\n".join(summary))
    reason = unconverged_reason(report, config)
    if reason is not None:
        print(f"warning: run did not converge: {reason}", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    spec = harness.parse_sweep_config(args.config)
    result = harness.run_sweep(spec, out_dir=args.out_dir)
    starred = sum(1 for cell in result.cells if not cell.ok)
    print(f"ran {len(result.cells)} cells ({starred} starred) -> {args.out_dir}")
    for config_label, alpha in result.alpha_opt.items():
        print(f"alpha_opt[{config_label}] = {alpha!r} "
              f"(rre {result.min_rre[config_label]!r})")
    return 0


def _cmd_spectra(args) -> int:
    if args.n > 128:
        raise ConfigurationError("spectra diagnostic is dense; use n <= 128")
    bc_h, bc_l, formulation, _ = CONFIGURATIONS[args.config]
    spec, (psf, observed, _) = _make_problem(args)
    config = spec.restoration_config(bc_h, bc_l, formulation, args.precond,
                                     args.alpha, args.beta)
    out = harness.make_out_dir(args.out_dir)
    system = StepSystem(psf, config, observed)
    system.freeze(DiffusionOperator(observed, args.beta, bc_l))
    # the dense M^{-1} A of restore's first step, one unit vector per column
    apply_a, apply_minv, _, _, _ = system.krylov_problem(observed)
    dense = np.column_stack([apply_minv(apply_a(e)) for e in np.eye(args.n)])
    eigs = np.linalg.eigvals(dense)
    eigs = eigs[np.argsort(eigs.real)]
    harness.write_csv(out / "spectrum.csv", ("real", "imag"),
                      [(float(e.real), float(e.imag)) for e in eigs])
    hist, edges = np.histogram(eigs.real, bins=_BINS)
    top = max(1, int(hist.max()))
    hist_path = out / "spectrum_histogram.txt"
    hist_path.write_text("".join(
        f"[{lo:+.4e}, {hi:+.4e})  {count:6d}  {'#' * round(50 * count / top)}\n"
        for count, lo, hi in zip(hist, edges, edges[1:])), encoding="ascii")
    cluster = float(np.mean(np.abs(eigs - 1.0) <= CLUSTER_RADIUS))
    print(f"preconditioner {system.kind}: {cluster:.1%} of "
          f"eigenvalues within {CLUSTER_RADIUS} of 1; histogram -> {hist_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvdeblur",
        description="TV deblurring benchmarks with structured preconditioners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit benchmark inputs")
    _add_problem_flags(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_restore = sub.add_parser("restore", help="run a single restoration")
    _add_problem_flags(p_restore)
    p_restore.add_argument("--bc", default="reflective",
                           choices=sorted(bc.value for bc in BoundaryCondition))
    p_restore.add_argument("--l-bc", default="zero_neumann",
                           choices=sorted(bc.value for bc in DiffusionBc))
    p_restore.add_argument("--formulation", default="normal",
                           choices=[f.value for f in Formulation])
    p_restore.add_argument("--precond", default="none",
                           choices=[s.value for s in PrecondSelector])
    p_restore.add_argument("--alpha", type=float, required=True)
    p_restore.add_argument("--beta", type=float, required=True)
    p_restore.add_argument("--fp-max", type=int, default=100)
    p_restore.set_defaults(func=_cmd_restore)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a config file")
    p_sweep.add_argument("config", type=Path)
    p_sweep.add_argument("--out-dir", type=Path, default=Path("out"))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_spectra = sub.add_parser("spectra",
                               help="small-n eigenvalue diagnostic (dense)")
    p_spectra.add_argument("--n", type=int, default=64)
    p_spectra.add_argument("--alpha", type=float, default=1e-3)
    p_spectra.add_argument("--beta", type=float, default=0.1)
    p_spectra.add_argument("--nsr", type=float, default=0.01)
    p_spectra.add_argument("--seed", type=int, default=2023)
    p_spectra.add_argument("--config", default="R",
                           choices=sorted(CONFIGURATIONS))
    p_spectra.add_argument("--precond", default="d_x",
                           choices=("x", "d_x", "x_d"))
    p_spectra.add_argument("--out-dir", type=Path, default=Path("out"))
    p_spectra.set_defaults(func=_cmd_spectra, dim=1, psf_m=None, psf_sigma=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
