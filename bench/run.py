#!/usr/bin/env python3
"""tvdeblur benchmark: one workload per run, end to end or traced per layer.

Run from the repository root::

    python3 bench/run.py --workload table1d --seed 2023 --seconds 35 --trace 0

The package is imported from ``src/`` of this checkout; there is nothing to
build.  BLAS and OpenMP threads are pinned to 1 and everything runs in one
process, apart from the set-up probes (``--trace 0`` only), which time
import and problem generation in fresh interpreters.

``--trace 0`` repeats the workload's cells, through ``harness.make_problem``
and then ``harness.run_cell``, while another pass fits in ``--seconds`` (at
least two passes) and reports the end-to-end metrics as medians over passes,
with times scaled to a reference machine speed (``SpeedProbe``).
``--trace 1`` runs one untraced and one traced pass and the isolated layer
timings, and reports the per-layer metrics.  Every cell goes through the
reference gate (``gate.py``); with a seed other than the default the gate
checks only that no cell is starred.

Standard output ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it print each metric by name and
unit, the seed and the environment.  The full result, and in traced runs
the spans, go to ``bench/out/``.  Exit codes: 0 all cells and checks pass,
1 a cell or check failed (the result is still printed), 2 the package
cannot be imported (nothing is printed).

``--write-reference`` runs every workload once at the default seed and
rewrites ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
from metrics import END_TO_END, PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed this many times in fresh interpreters, besides the run's
# own set-up, and reported as the median.
SETUP_PROBES = 4
# Passes of ``--trace 0`` at the least, even if they take longer than
# ``--seconds``.
MIN_PASSES = 2
TRANSFORM_SELECTORS = ("x", "d_x", "x_d")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def timed_setup(workload, seed: int):
    """Import ``tvdeblur`` and build the workload's inputs.

    Returns ``(inputs, import_s, make_problem_s)``, where ``inputs`` holds a
    ``(noise seed, spec, problem)`` triple per noise realization.  The
    interpreter must not have imported numpy yet for ``import_s`` to mean
    anything.
    """
    src = ROOT / "src"
    if not (src / "tvdeblur").is_dir():
        raise ImportError(f"no tvdeblur package under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import tvdeblur.harness  # noqa: F401
    t1 = perf_counter()
    inputs = make_inputs(workload, seed)
    return inputs, t1 - t0, perf_counter() - t1


def make_inputs(workload, seed: int) -> list:
    from tvdeblur import harness

    inputs = []
    for noise_seed in workload.noise_seeds(seed):
        spec = workload.spec(noise_seed)
        inputs.append((noise_seed, spec, harness.make_problem(spec, workload.n)))
    return inputs


def probe_setup(workload, seed: int) -> float:
    """``timed_setup`` in a fresh interpreter, in seconds at the reference
    speed (``setup_scale``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# On a shared host one core's speed changes by up to 2x within seconds (the
# same cells take 1.35 s and 2.56 s a few seconds apart, in CPU time as in
# wall time), so raw times of the same code spread past their bounds from
# run to run.  ``--trace 0`` therefore interleaves a fixed kernel with the
# timed code, about every PROBE_EVERY_S, and scales each pass's time by
# CALIBRATION_REF_S over the kernel's mean time in that pass: the times read
# as seconds on a machine where the kernel takes CALIBRATION_REF_S.  The
# kernel calls no tvdeblur code, so a change to the package cannot move it;
# the kernel's own time is left out of the timed cells, and the raw times
# are kept in the result's detail.
CALIBRATION_REF_S = 0.006  # about its median on a 2-vCPU Intel Xeon host
PROBE_EVERY_S = 0.1
SETUP_SAMPLES = 5  # kernel samples right after each timed set-up


class SpeedProbe:
    """Samples of the calibration kernel, taken between Krylov iterations.

    While ``installed``, each operator apply in ``pcg`` and ``pbicgstab``
    first runs a sample if PROBE_EVERY_S has passed since the last one
    ended.  ``spent_s`` adds up the samples' time, so that callers can leave
    it out of what they time.
    """

    def __init__(self) -> None:
        import numpy as np

        self._x = np.linspace(0.0, 1.0, 203)
        self._a = np.random.default_rng(0).standard_normal((126, 126))
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.sample()  # warm-up: first calls and transform plans
        self.samples.clear()
        self.spent_s = 0.0
        self._last = perf_counter()

    def sample(self) -> None:
        """One run of the kernel, in about equal parts: interpreted Python,
        small-vector numpy calls as in the 1D Krylov steps, and 2D
        transforms at the 2D workload's interior size."""
        import numpy as np
        import scipy.fft

        t0 = perf_counter()
        s = 0
        for i in range(15_000):
            s += i * i % 7
        x = self._x
        for _ in range(60):
            d = np.diff(np.pad(x, 1, mode="edge"))
            x = x + 1e-12 * (d[:-1] @ d[1:])
        scipy.fft.dstn(self._a, type=1)
        scipy.fft.dctn(self._a, type=2)
        self._last = perf_counter()
        self.samples.append(self._last - t0)
        self.spent_s += self._last - t0

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    @contextmanager
    def installed(self):
        """Wraps the Krylov solvers as ``restore`` looks them up, so that
        each operator apply may first run a sample."""
        from tvdeblur import pipeline

        solvers = {"pcg": pipeline.pcg, "pbicgstab": pipeline.pbicgstab}

        def probed(solver):
            def probed_solver(apply_a, *args, **kwargs):
                def probed_apply_a(w):
                    self.maybe_sample()
                    return apply_a(w)

                return solver(probed_apply_a, *args, **kwargs)

            return probed_solver

        for name, solver in solvers.items():
            setattr(pipeline, name, probed(solver))
        try:
            yield self
        finally:
            for name, solver in solvers.items():
                setattr(pipeline, name, solver)

    @staticmethod
    def scale(samples) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return CALIBRATION_REF_S / statistics.fmean(samples)


def setup_scale() -> float:
    """``SpeedProbe.scale`` of samples taken right after a set-up."""
    probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    return probe.scale(probe.samples)


# ---------------------------------------------------------------------------
# passes over the workload's cells
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    cells: list
    failures: list
    #: calibration kernel samples taken during the pass
    speed_samples: list = field(default_factory=list)

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * SpeedProbe.scale(self.speed_samples)

    @property
    def inner_iters(self) -> int:
        return sum(sum(c.inner) for c in self.cells)

    @property
    def fp_steps(self) -> int:
        return sum(c.fp_steps for c in self.cells)

    @property
    def rre_max(self) -> float:
        return max((c.rre for c in self.cells if c.rre is not None),
                   default=float("nan"))

    @property
    def failed(self) -> int:
        return sum(f is not None for f in self.failures)


def run_pass(workload, inputs, reference, run_cell,
             probe: SpeedProbe | None = None) -> Pass:
    """Every cell on every realization once; only ``run_cell`` is timed,
    less the time of ``probe``'s samples, if it is installed."""
    wall = 0.0
    cells = []
    first_sample = len(probe.samples) if probe else 0
    for noise_seed, spec, problem in inputs:
        for config, selector, alpha, beta in workload.cells:
            probed = probe.spent_s if probe else 0.0
            t0 = perf_counter()
            cell = run_cell(spec, config, alpha, beta, workload.n, selector,
                            problem=problem)
            wall += perf_counter() - t0
            if probe:
                wall -= probe.spent_s - probed
            cells.append(gate.CellResult.from_sweep_cell(noise_seed, cell))
    samples = probe.samples[first_sample:] if probe else []
    return Pass(wall, cells, gate.check_cells(cells, reference), samples)


def timed_passes(workload, inputs, reference, seconds: float) -> list[Pass]:
    """At least MIN_PASSES passes, then more while the next one is expected
    to end within ``seconds``; the speed probe runs throughout."""
    from tvdeblur import harness

    probe = SpeedProbe()
    passes = []
    started = perf_counter()
    with probe.installed():
        while True:
            passes.append(run_pass(workload, inputs, reference,
                                   harness.run_cell, probe))
            elapsed = perf_counter() - started
            if (len(passes) >= MIN_PASSES
                    and elapsed + elapsed / len(passes) > seconds):
                return passes


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict
    attempted: int
    failed: int
    failures: list
    detail: dict


def end_to_end_run(workload, seed, inputs, setup_s, reference,
                   seconds) -> RunResult:
    setups = [setup_s] + [probe_setup(workload, seed)
                          for _ in range(SETUP_PROBES)]
    passes = timed_passes(workload, inputs, reference, seconds)
    wall_s = statistics.median(p.scaled_wall_s for p in passes)
    inner_iters = statistics.median(p.inner_iters for p in passes)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "ms_per_iter": 1e3 * wall_s / inner_iters,
        "inner_iters": inner_iters,
        "fp_steps": statistics.median(p.fp_steps for p in passes),
        "rre_max": statistics.median(p.rre_max for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(p.failed for p in passes)
    failures = _cell_failures(passes)
    detail = {"passes": [p.scaled_wall_s for p in passes],
              "raw_passes": [p.wall_s for p in passes],
              "speed_scales": [SpeedProbe.scale(p.speed_samples)
                               for p in passes],
              "speed_samples": [len(p.speed_samples) for p in passes],
              "setups": setups,
              "failed_frac": failed / attempted}
    return RunResult(metrics, attempted, failed, failures, detail)


class _ClampCounter(logging.Handler):
    """Counts the preconditioner's eigenvalue-clamp warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "clamped" in record.getMessage():
            self.count += 1


def traced_run(workload, seed, inputs, make_problem_s, reference) -> RunResult:
    import numpy as np

    import layers
    from spans import Tracer, totals
    from tvdeblur import harness

    untraced = run_pass(workload, inputs, reference, harness.run_cell)

    clamps = _ClampCounter()
    precond_log = logging.getLogger("tvdeblur.precond")
    precond_log.addHandler(clamps)
    tracer = Tracer()
    try:
        with tracer.installed():
            traced = run_pass(workload, inputs, reference,
                              tracer.wrap("harness.run_cell", harness.run_cell))
    finally:
        precond_log.removeHandler(clamps)
    spans = tracer.spans()
    t = totals(spans, tracer.names)

    failures = _cell_failures([untraced, traced])
    iters = sum(s.iterations for s in tracer.solves)
    if iters != traced.inner_iters:
        failures.append(f"traced solves saw {iters} iterations, the cells "
                        f"report {traced.inner_iters}")
    restore_s = t.total_s.get("pipeline.restore", 0.0)
    layers_s = {layer: t.layer_self(layer) for layer in (
        "pipeline", "krylov", "precond", "tv", "blur", "transforms")}
    if abs(sum(layers_s.values()) - restore_s) > 1e-6 * max(1.0, restore_s):
        failures.append(f"layer self times add up to "
                        f"{sum(layers_s.values())!r} s, restore took "
                        f"{restore_s!r} s")
    assembled_iters = sum(sum(c.inner) for c in traced.cells
                          if c.precond in TRANSFORM_SELECTORS)
    assembles = t.calls_of("precond.assemble")
    transform_calls = t.calls_of("transforms.apply_1d",
                                 "transforms.tensor_apply_2d")
    blur_calls = t.calls_of("blur.fast", "blur.ref")
    metrics = {
        "transforms.calls": transform_calls,
        "transforms.self_s": layers_s["transforms"],
        "transforms.calls_per_iter": transform_calls / iters,
        "blur.fast.calls": t.calls_of("blur.fast"),
        "blur.fast.self_s": t.self_of("blur.fast"),
        "blur.ref.calls": t.calls_of("blur.ref"),
        "blur.ref.self_s": t.self_of("blur.ref"),
        "blur.calls_per_iter": blur_calls / iters,
        "tv.build.calls": t.calls_of("tv.build"),
        "tv.build.self_s": t.self_of("tv.build"),
        "tv.apply.calls": t.calls_of("tv.apply"),
        "tv.apply.self_s": t.self_of("tv.apply"),
        "tv.residual.self_s": t.self_of("tv.residual"),
        "precond.assemble.calls": assembles,
        "precond.assemble.self_s": t.self_of("precond.assemble"),
        "precond.solve.calls": t.calls_of("precond.solve"),
        "precond.solve.self_s": t.self_of("precond.solve"),
        "precond.iters_per_assemble": assembled_iters / assembles if assembles else 0.0,
        "precond.clamped": clamps.count,
        "krylov.solves": len(tracer.solves),
        "krylov.iters": iters,
        "krylov.self_s": layers_s["krylov"],
        "krylov.matvecs": t.calls_of("krylov.matvec"),
        "krylov.matvec_s": t.total_s.get("krylov.matvec", 0.0),
        "krylov.precond_solves": t.calls_of("krylov.precond"),
        "krylov.unconverged": sum(not s.converged and not s.failed
                                  for s in tracer.solves),
        "krylov.errors": sum(s.failed for s in tracer.solves),
        "pipeline.self_s": layers_s["pipeline"],
        "harness.make_problem_s": make_problem_s,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }

    timings = layers.all_timings(seed)
    for timing in timings:
        metrics[timing.name] = timing.best
        if timing.failure:
            failures.append(f"{timing.name}: {timing.failure}")

    OUT_DIR.mkdir(exist_ok=True)
    np.save(OUT_DIR / f"spans-{workload.name}.npy", spans)
    attempted = len(untraced.cells) + len(traced.cells) + len(timings)
    failed = (untraced.failed + traced.failed
              + sum(x.failure is not None for x in timings))
    detail = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "layer_self_s": layers_s,
        "span_names": tracer.names,
        "span_count": int(spans.size),
        "spans_file": f"spans-{workload.name}.npy",
        "timing_spread": {x.name: x.spread for x in timings},
    }
    return RunResult(metrics, attempted, failed, failures, detail)


def _cell_failures(passes: list[Pass]) -> list[str]:
    return [f"{c.config}/{c.precond} alpha={c.alpha!r} noise seed {c.seed}: "
            f"{reason}"
            for p in passes for c, reason in zip(p.cells, p.failures)
            if reason is not None]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="tvdeblur benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from one pass of every "
                             "workload at the default seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"the reference is made at seed {DEFAULT_SEED}")
    return args


def write_reference() -> int:
    from tvdeblur import harness

    results = {}
    for workload in WORKLOADS.values():
        one = run_pass(workload, make_inputs(workload, DEFAULT_SEED), None,
                       harness.run_cell)
        bad = _cell_failures([one])
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        results[workload.name] = one.cells
        print(f"{workload.name}: {len(one.cells)} cells, {one.wall_s:.2f} s")
    gate.write_reference(DEFAULT_SEED, results)
    return 0


def report(workload, args, result: RunResult, env: dict) -> bool:
    """Print every metric by name and unit, then the JSON result line."""
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    correct = result.failed == 0 and not result.failures
    print(f"# workload {workload.name}  seed {args.seed}  trace {args.trace}"
          f"  reference gate {'on' if args.seed == DEFAULT_SEED else 'off'}")
    print("# env " + json.dumps(env, sort_keys=True))
    if "speed_scales" in result.detail:
        d = result.detail
        for raw, scale, n in zip(d["raw_passes"], d["speed_scales"],
                                 d["speed_samples"]):
            print(f"# pass: raw {raw:.4f} s, speed scale {scale:.4f} from "
                  f"{n} kernel samples")
    spreads = result.detail.get("timing_spread", {})
    for name in names:
        spread = f"  spread {spreads[name]:.3f}" if name in spreads else ""
        print(f"{name:40s} {result.metrics[name]:>16.6g} {units[name]}{spread}")
    print(f"{'failed_frac':40s} {result.failed / result.attempted:>16.6g} "
          f"ratio")
    for failure in result.failures:
        print(f"# FAILED {failure}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "env": env, "correct": correct,
                   "attempted": result.attempted, "failed": result.failed,
                   "failures": result.failures, "metrics": result.metrics,
                   "detail": result.detail}, fh, indent=1)
    line = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": units[name]}
                    for name in names},
    }
    print(json.dumps(line), flush=True)
    return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workload = WORKLOADS[args.workload or "table1d"]
    try:
        inputs, import_s, make_problem_s = timed_setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import tvdeblur from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr((import_s + make_problem_s) * setup_scale()))
        return 0
    if args.write_reference:
        return write_reference()

    reference = (gate.load_reference(workload.name)
                 if args.seed == DEFAULT_SEED else None)
    if args.trace:
        result = traced_run(workload, args.seed, inputs, make_problem_s,
                            reference)
    else:
        setup_s = (import_s + make_problem_s) * setup_scale()
        result = end_to_end_run(workload, args.seed, inputs, setup_s,
                                reference, args.seconds)
    return 0 if report(workload, args, result, fingerprint()) else 1


if __name__ == "__main__":
    sys.exit(main())
