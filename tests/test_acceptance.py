"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The benchmark protocol is fully deterministic (fixed seed, fixed problem
generators), so every measured count and error below is reproducible bit for
bit on a given platform.
"""

import csv
import time

import numpy as np
import pytest

import acceptance_report
import oracles
from tvdeblur.blur import BoundaryCondition, StructuredBlurOperator, SymmetricPsf
from tvdeblur.harness import BenchmarkSpec, make_problem, run_sweep
from tvdeblur.krylov import KrylovConfig, pbicgstab, pcg
from tvdeblur.pipeline import (
    CONFIGURATIONS,
    StepSystem,
    el_residual,
    restore,
)
from tvdeblur.precond import assemble_preconditioner, project
from tvdeblur.transforms import TransformKind
from tvdeblur.tv import DiffusionOperator

SELECTOR_LABELS = (("I", "none"), ("D", "diag"), ("X", "x"),
                   ("D_X", "d_x"), ("X_D", "x_d"))

TREND_ALPHAS = (1e-1, 1e-3, 1e-6)
REMARK_ALPHAS = (1e-2, 1e-4, 1e-6)

#: benchmark table row used as the 5x anchor for X_D at alpha = 1e-6
XD_ANCHOR = {"R": 8.0, "AR+Sine+ZN": 14.0, "AR+Reblur+ZN": 4.0,
             "AR+Reblur+AR": 4.0}


def run_benchmark_cell(problem, config_label, alpha, selector, n,
                       max_iterations=20000, beta=0.1):
    psf, observed, u_true = problem
    config = BenchmarkSpec(inner_max=max_iterations) \
        .restoration_config(config_label, selector, alpha, beta)
    return restore(observed, psf, config, u_true=u_true)


@pytest.fixture(scope="module")
def benchmark_1d():
    spec = BenchmarkSpec(dimension=1, ns=(203,), nsr=0.01, seed=2023)
    return make_problem(spec, 203)


@pytest.fixture(scope="module")
def trend_table(benchmark_1d):
    """Restoration reports keyed by (alpha, configuration, selector label).

    Each report keeps ``avg_inner`` together with the per-step
    ``inner_iterations`` and ``fp_steps`` it averages.  Counts are only
    comparable between converged runs, so any cell that did not converge
    fails the fixture before a criterion compares it.
    """
    started = time.perf_counter()
    table = {}
    for alpha in TREND_ALPHAS:
        for label in CONFIGURATIONS:
            for sel_label, selector in SELECTOR_LABELS:
                table[(alpha, label, sel_label)] = run_benchmark_cell(
                    benchmark_1d, label, alpha, selector, 203)
    for alpha in (1e-2, 1e-4):
        for label in CONFIGURATIONS:
            table[(alpha, label, "X_D")] = run_benchmark_cell(
                benchmark_1d, label, alpha, "x_d", 203)
    unconverged = [
        f"{label} {sel} alpha={alpha:g}: fp_converged={rep.fp_converged} "
        f"inner_converged={rep.inner_converged} ({leg(rep)})"
        for (alpha, label, sel), rep in table.items()
        if not (rep.fp_converged and rep.inner_converged)
    ]
    if unconverged:
        pytest.fail("trend-table cells did not converge:\n"
                    + "\n".join(unconverged))
    table["elapsed"] = time.perf_counter() - started
    return table


def leg(rep):
    """Per-step inner iterations and fixed-point step count of one run."""
    return f"{rep.fp_steps} steps {rep.inner_iterations}"


def test_criterion_01_structural_oracles():
    """Blur vs dense oracle, fast path vs reference, AR similarity diagonal."""
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    psf = SymmetricPsf(np.full(5, 0.2))
    failures = []
    for n in (8, 16, 33):
        u = rng.standard_normal(n)
        for bc in BoundaryCondition:
            op = StructuredBlurOperator(psf, bc, n)
            dense = oracles.dense_blur_1d(psf.coefficients, bc.value, n)
            if np.abs(op.apply(u) - dense @ u).max() > 1e-12:
                failures.append(f"apply vs dense {bc.value} n={n}")
            if bc in (BoundaryCondition.REFLECTIVE,
                      BoundaryCondition.ANTI_REFLECTIVE):
                if np.abs(op.apply_fast(u) - op.apply(u)).max() > 1e-10:
                    failures.append(f"fast vs reference {bc.value} n={n}")
        a_ar = oracles.dense_blur_1d(psf.coefficients, "anti_reflective", n)
        t = oracles.dense_ar(n)
        sim = np.linalg.solve(t, a_ar @ t)
        if np.linalg.norm(sim - np.diag(np.diag(sim))) > 1e-8:
            failures.append(f"AR similarity not diagonal n={n}")
    elapsed = time.perf_counter() - started
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    acceptance_report.record(1, not failures, f"{elapsed:.1f}s")
    assert not failures, failures


def test_criterion_02_projection_optimality():
    """c, s, shat beat 100 in-algebra perturbations; linearity; SPD."""
    rng = np.random.default_rng(2)

    def member(kind, lam):
        n = len(lam)
        if kind is TransformKind.DCT:
            x = oracles.dense_dct(n)
            return x @ np.diag(lam) @ x.T
        x = oracles.dense_dst1(n) if kind is TransformKind.DST1 \
            else oracles.dense_sinehat(n)
        return x @ np.diag(lam) @ x

    def proj(kind, a):
        return project(kind, oracles.bands_of(a), a.shape[0])

    failures = []
    for kind in (TransformKind.DCT, TransformKind.DST1, TransformKind.SINE_HAT):
        for n in (6, 8):
            a = rng.standard_normal((n, n))
            lam = proj(kind, a)
            best = np.linalg.norm(member(kind, lam) - a)
            for _ in range(100):
                delta = rng.standard_normal(n) * rng.uniform(1e-3, 1.0)
                if np.linalg.norm(member(kind, lam + delta) - a) < best - 1e-12:
                    failures.append(f"{kind.value} n={n}: perturbation beat argmin")
                    break
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        lin = proj(kind, a + 2.5 * b) - (proj(kind, a) + 2.5 * proj(kind, b))
        if np.abs(lin).max() > 1e-12:
            failures.append(f"{kind.value}: linearity violated")
        m = rng.standard_normal((16, 16))
        spd = m @ m.T + 16 * np.eye(16)
        if np.min(proj(kind, spd)) <= 0:
            failures.append(f"{kind.value}: SPD not preserved")
    acceptance_report.record(2, not failures)
    assert not failures, failures


def test_criterion_03_ar_membership_and_round_trip():
    rng = np.random.default_rng(3)
    failures = []
    ar = TransformKind.ANTI_REFLECTIVE
    for n in (6, 8, 16):
        a = rng.standard_normal((n, n))
        lam = project(ar, oracles.bands_of(a), n)
        bordered = oracles.ar_bordered(lam[1:-1])
        residual = oracles.ar_membership_residual(bordered)
        if residual > 1e-8:
            failures.append(f"membership residual {residual:.2e} at n={n}")
        t = oracles.dense_ar(n)
        layout = np.abs(np.diag(np.linalg.solve(t, bordered @ t)) - lam).max()
        if layout > 1e-10:
            failures.append(f"diag(T^-1 M T) off the eigenvalues by "
                            f"{layout:.2e} at n={n}")
    psf = SymmetricPsf(np.full(3, 1 / 3.0))
    blur_dense = oracles.dense_blur_1d(psf.coefficients, "anti_reflective", 8)
    lam = project(ar, oracles.bands_of(blur_dense), 8)
    fixed = oracles.ar_bordered(lam[1:-1])
    err = np.abs(fixed - blur_dense).max()
    if err > 1e-10:
        failures.append(f"blur matrix not fixed ({err:.2e})")
    acceptance_report.record(3, not failures)
    assert not failures, failures


def test_criterion_04_solver_sanity():
    rng = np.random.default_rng(4)
    failures = []
    m = rng.standard_normal((8, 8))
    spd = m @ m.T + 8 * np.eye(8)
    b = rng.standard_normal(8)
    cfg = KrylovConfig(tol=1e-12, max_iterations=200)
    out = pcg(lambda x: spd @ x, None, b, np.zeros(8), cfg)
    if np.abs(out.solution - np.linalg.solve(spd, b)).max() > 1e-8:
        failures.append("pcg misses direct solve")
    nonsym = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    out = pbicgstab(lambda x: nonsym @ x, None, b, np.zeros(8), cfg)
    if np.abs(out.solution - np.linalg.solve(nonsym, b)).max() > 1e-8:
        failures.append("pbicgstab misses direct solve")
    d = np.arange(1.0, 9.0)
    for solver in (pcg, pbicgstab):
        out = solver(lambda x: d * x, lambda r: r / d, b, np.zeros(8), cfg)
        if out.iterations != 1:
            failures.append(f"{solver.__name__}: exact preconditioner took "
                            f"{out.iterations} iterations")
    acceptance_report.record(4, not failures)
    assert not failures, failures


def test_criterion_05_iteration_trend_table(trend_table):
    """Ordering I > D >= X >= min(D_X, X_D) per family and alpha, plus the
    anchored X_D counts at alpha = 1e-6 (<= 20 and within 5x of the
    benchmark row 8/14/4/4)."""
    failures = []
    for alpha in TREND_ALPHAS:
        for label in CONFIGURATIONS:
            reps = {sel: trend_table[(alpha, label, sel)]
                    for sel, _ in SELECTOR_LABELS}
            count = {sel: rep.avg_inner for sel, rep in reps.items()}
            best = min(("D_X", "X_D"), key=count.get)
            scaled_best = count[best]

            def violation(relation, *sels):
                legs = "; ".join(f"{sel}: {leg(reps[sel])}" for sel in sels)
                return f"{label} alpha={alpha:g}: {relation}  [{legs}]"

            if not count["I"] > count["D"]:
                failures.append(violation(
                    f"I={count['I']:.2f} !> D={count['D']:.2f}", "I", "D"))
            if not count["D"] >= count["X"]:
                failures.append(violation(
                    f"D={count['D']:.2f} !>= X={count['X']:.2f}", "D", "X"))
            if not count["X"] >= scaled_best:
                failures.append(violation(
                    f"X={count['X']:.2f} !>= "
                    f"min(D_X,X_D)={scaled_best:.2f}", "X", best))
    for label, anchor in XD_ANCHOR.items():
        rep = trend_table[(1e-6, label, "X_D")]
        xd = rep.avg_inner
        if xd > 20.0:
            failures.append(f"{label}: X_D(1e-6)={xd:.2f} > 20  [{leg(rep)}]")
        if xd > 5.0 * anchor:
            failures.append(f"{label}: X_D(1e-6)={xd:.2f} > 5x anchor "
                            f"{anchor}  [{leg(rep)}]")
    elapsed = trend_table["elapsed"]
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.0f}s > 600s")
    detail = f"{len(failures)} violation(s), {elapsed:.0f}s" if failures \
        else f"{elapsed:.0f}s"
    acceptance_report.record(5, not failures, detail, failures)
    assert not failures, "\n".join(failures)


def test_criterion_06_diminishing_alpha_trend(trend_table):
    """X_D inner iterations non-increasing through decreasing alpha.

    Measured on the first fixed-point step: the one solve whose operator
    L(v), right-hand side H* v and starting guess v are the same at every
    alpha, so alpha is the only thing that changes between the compared
    solves.  Any rise, even of one iteration, fails.

    Whole-run averages are reported but not asserted.  From step 2 on each
    alpha follows its own fixed-point path (for R on this benchmark, 6, 7
    and 19 steps at the three alphas) and starts warm from the previous
    iterate; the relative inner stopping rule then asks each step to cut an
    ever smaller lagged-diffusivity change by the same factor, so those
    counts track the trajectory, not the preconditioner.
    """
    failures = []
    step1, averages = [], []
    for label in CONFIGURATIONS:
        reps = [trend_table[(alpha, label, "X_D")] for alpha in REMARK_ALPHAS]
        step1.append(f"{label} "
                     + "/".join(str(rep.inner_iterations[0]) for rep in reps))
        averages.append(f"{label} "
                        + "/".join(f"{rep.avg_inner:.2f}" for rep in reps))
        for a0, a1, r0, r1 in zip(REMARK_ALPHAS, REMARK_ALPHAS[1:], reps,
                                  reps[1:]):
            c0, c1 = r0.inner_iterations[0], r1.inner_iterations[0]
            if c1 > c0:
                failures.append(
                    f"{label}: X_D step 1 rises {c0} -> {c1} "
                    f"(alpha {a0:g} -> {a1:g})  "
                    f"[{a0:g}: {leg(r0)}; {a1:g}: {leg(r1)}]")
    alphas = "/".join(f"{a:g}" for a in REMARK_ALPHAS)
    detail = (f"step-1 X_D at alpha {alphas}: {', '.join(step1)}; "
              f"whole-run avg (not asserted): {', '.join(averages)}")
    if failures:
        detail = f"{len(failures)} violation(s); {detail}"
    acceptance_report.record(6, not failures, detail, failures)
    assert not failures, "\n".join(failures)


def test_criterion_07_preconditioned_counts_scale(benchmark_1d):
    """D_X / X_D counts flat (within +-50% of mean) across n; unpreconditioned
    counts grow monotonically."""
    failures = []
    for label in CONFIGURATIONS:
        counts = {sel: [] for sel in ("I", "D_X", "X_D")}
        for n in (64, 128, 256, 512):
            spec = BenchmarkSpec(dimension=1, ns=(n,), nsr=0.01, seed=2023)
            problem = make_problem(spec, n)
            for sel_label, selector in (("I", "none"), ("D_X", "d_x"),
                                        ("X_D", "x_d")):
                rep = run_benchmark_cell(problem, label, 1e-3, selector, n)
                counts[sel_label].append(rep.avg_inner)
        for sel in ("D_X", "X_D"):
            mean = np.mean(counts[sel])
            if max(counts[sel]) > 1.5 * mean or min(counts[sel]) < 0.5 * mean:
                failures.append(f"{label} {sel}: counts {counts[sel]} vary "
                                f"beyond +-50% of mean {mean:.1f}")
        unprec = counts["I"]
        if not all(b > a for a, b in zip(unprec, unprec[1:])):
            failures.append(f"{label} I: counts {unprec} not growing")
    acceptance_report.record(7, not failures)
    assert not failures, "\n".join(failures)


def test_criterion_08_boundary_condition_quality(benchmark_1d):
    """Anti-reflective extension restores better and needs no more
    regularization than reflective on the sloped-boundary benchmark."""
    started = time.perf_counter()
    alphas = [10.0 ** e for e in np.arange(-6.0, -0.49, 0.5)]
    curves = {}
    for label in ("R", "AR+Sine+ZN"):
        rres = [run_benchmark_cell(benchmark_1d, label, alpha, "x_d", 203,
                                   max_iterations=5000).rre
                for alpha in alphas]
        curves[label] = rres
    failures = []
    best_r = int(np.argmin(curves["R"]))
    best_ar = int(np.argmin(curves["AR+Sine+ZN"]))
    min_r, min_ar = curves["R"][best_r], curves["AR+Sine+ZN"][best_ar]
    if not min_ar < min_r:
        failures.append(f"min RRE: AR {min_ar:.4f} !< reflective {min_r:.4f}")
    if not alphas[best_ar] <= alphas[best_r]:
        failures.append(
            f"alpha_opt: AR {alphas[best_ar]:.2e} > reflective "
            f"{alphas[best_r]:.2e}")
    elapsed = time.perf_counter() - started
    if elapsed > 900:
        failures.append(f"runtime {elapsed:.0f}s > 900s")
    detail = (f"rre AR {min_ar:.4f} vs R {min_r:.4f}, "
              f"alpha_opt {alphas[best_ar]:.0e} vs {alphas[best_r]:.0e}")
    acceptance_report.record(8, not failures, detail)
    assert not failures, "\n".join(failures)


def test_criterion_09_2d_smoke(tmp_path):
    """2D benchmark: the best X_D family is at least 3x cheaper than the
    unpreconditioned solve at alpha = 1e-2, every converged family at least
    2x, and failing cells surface as '*' rows, never as crashes."""
    started = time.perf_counter()
    spec = BenchmarkSpec(
        dimension=2, ns=(64,), alphas=(1.0, 1e-2), betas=(0.01,),
        configurations=tuple(CONFIGURATIONS), preconditioners=("none", "x_d"),
        nsr=0.001, seed=2023, fp_max=100, save_restored=False,
    )
    result = run_sweep(spec, out_dir=tmp_path)
    failures = []
    with open(tmp_path / "iterations.csv", newline="", encoding="ascii") as fh:
        header, *rows = csv.reader(fh)
    if len(rows) != len(result.cells):
        failures.append("CSV row count mismatch")
    starred = [row for row in rows if "*" in row]
    non_ok = [cell for cell in result.cells if not cell.ok]
    if len(starred) != len(non_ok):
        failures.append("non-convergent cells not all marked '*'")
    cells = {(c.config, c.preconditioner): c for c in result.cells
             if c.alpha == 1e-2}
    ratios = {}
    for label in CONFIGURATIONS:
        unprec, scaled = cells[label, "none"], cells[label, "x_d"]
        if unprec.ok and scaled.ok:
            ratios[label] = scaled.report.avg_inner / unprec.report.avg_inner
        else:
            failures.append(f"{label}: alpha=1e-2 cells did not converge")
    if ratios and min(ratios.values()) > 1.0 / 3.0:
        failures.append(f"best X_D ratio {min(ratios.values()):.3f} > 1/3")
    for label, ratio in ratios.items():
        if ratio > 0.5:
            failures.append(f"{label}: X_D ratio {ratio:.3f} > 1/2")
    elapsed = time.perf_counter() - started
    if elapsed > 1200:
        failures.append(f"runtime {elapsed:.0f}s > 1200s")
    detail = (f"ratios {' '.join(f'{k}:{v:.2f}' for k, v in ratios.items())}, "
              f"{len(starred)} starred, {elapsed:.0f}s")
    acceptance_report.record(9, not failures, detail)
    assert not failures, "\n".join(failures)


def test_criterion_10_scaled_equivalence():
    """The diagonally wrapped preconditioner on the unscaled system and the
    plain preconditioner on the scaled system produce the same iterate."""
    n = 64
    spec = BenchmarkSpec(dimension=1, ns=(n,), nsr=0.01, seed=2023)
    psf, observed, _ = make_problem(spec, n)
    alpha, beta = 1e-3, 0.1
    failures = []
    for label in ("R", "AR+Reblur+AR"):
        config = spec.restoration_config(label, "none", alpha, beta)
        base = CONFIGURATIONS[label][3]
        l_op = DiffusionOperator(observed, beta, config.bc_l)
        system = StepSystem(psf, config, observed)
        system.freeze(l_op)
        h_op = system.h_op
        solver = pbicgstab if config.formulation.value == "reblur" else pcg
        cfg = KrylovConfig(tol=1e-8, max_iterations=3000)

        wrapped = assemble_preconditioner(f"D_{base}", h_op, l_op, alpha)
        direct = solver(system.apply, wrapped.apply_inverse, system.rhs,
                        observed, cfg)

        apply_scaled, rhs, u0, _, unscale = system.scale(
            observed, el_residual(system, observed))
        plain = assemble_preconditioner(base, h_op, l_op, alpha)
        scaled = solver(apply_scaled, plain.apply_inverse, rhs, u0, cfg)
        diff = np.abs(direct.solution - unscale(scaled.solution)).max()
        if diff > 1e-7:
            failures.append(f"{label}: iterates differ by {diff:.2e}")
    acceptance_report.record(10, not failures)
    assert not failures, "\n".join(failures)
