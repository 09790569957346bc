"""Every metric the benchmark reports, with its unit and better direction.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
checks that the two agree.  End-to-end metrics come from an untraced run
(``--trace 0``), per-layer metrics from a traced run (``--trace 1``).
"""

from __future__ import annotations

#: (name, unit, better, bound: the share of the parent's median by which
#: the metric may worsen)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("ms_per_iter", "ms", "lower", 0.25),
    ("inner_iters", "count", "lower", 0.15),
    ("fp_steps", "count", "lower", 0.15),
    ("rre_max", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

TRANSFORM_SIZES = ("1d-203", "1d-4096", "2d-64", "2d-127", "2d-128",
                   "2d-129", "2d-256")
#: operator sizes, each with the workload whose problem spec (kernel rule,
#: NSR) gives its inputs
WORKLOAD_OF_SIZE = {"1d-203": "table1d", "2d-128": "img2d-ar128",
                    "2d-256": "img2d-ar128"}
OPERATOR_SIZES = tuple(WORKLOAD_OF_SIZE)

# Counts and self times of the traced pass over the workload's cells.
_TRACED = (
    ("transforms.calls", "count"),
    ("transforms.self_s", "s"),
    ("transforms.calls_per_iter", "calls/iter"),
    ("blur.fast.calls", "count"),
    ("blur.fast.self_s", "s"),
    ("blur.ref.calls", "count"),
    ("blur.ref.self_s", "s"),
    ("blur.calls_per_iter", "calls/iter"),
    ("tv.build.calls", "count"),
    ("tv.build.self_s", "s"),
    ("tv.apply.calls", "count"),
    ("tv.apply.self_s", "s"),
    ("tv.residual.self_s", "s"),
    ("precond.assemble.calls", "count"),
    ("precond.assemble.self_s", "s"),
    ("precond.solve.calls", "count"),
    ("precond.solve.self_s", "s"),
    ("precond.iters_per_assemble", "iter/assemble"),
    ("precond.clamped", "count"),
    ("krylov.solves", "count"),
    ("krylov.iters", "count"),
    ("krylov.self_s", "s"),
    ("krylov.matvecs", "count"),
    ("krylov.matvec_s", "s"),
    ("krylov.precond_solves", "count"),
    ("krylov.unconverged", "count"),
    ("krylov.errors", "count"),
    ("pipeline.self_s", "s"),
    ("harness.make_problem_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Best-of-k timings of single layer calls.
_ISOLATED = (
    tuple((f"transforms.{kind}_us.{size}", "us")
          for kind in ("dct", "dst1", "sine_hat", "ar")
          for size in TRANSFORM_SIZES)
    + tuple((f"blur.{path}_us.{bc}.{size}", "us")
            for path in ("fast", "ref") for bc in ("R", "AR")
            for size in OPERATOR_SIZES)
    + tuple((f"tv.apply_us.{size}", "us") for size in OPERATOR_SIZES)
    + tuple((f"precond.{what}.{kind}.{size}", unit)
            for what, unit in (("assemble_ms", "ms"), ("solve_us", "us"))
            for kind in ("R_D", "P_D") for size in OPERATOR_SIZES)
)

#: (name, unit, better); every per-layer metric is better lower
PER_LAYER = tuple((name, unit, "lower") for name, unit in _TRACED + _ISOLATED)
