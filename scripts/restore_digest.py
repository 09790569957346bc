#!/usr/bin/env python3
"""Fingerprint a fixed grid of restorations as JSON, for byte-identity checks.

Runs the 4 configurations x 5 preconditioner selectors at 1D n=203
(alpha 1e-1 and 1e-3, beta 0.1) and at 2D n=64 (alpha 1e-2, beta 0.01), and
the cell of the benchmark workload ``img2d-ar128``: 2D n=128,
``AR+Reblur+AR`` with ``x_d``, alpha 1e-2, beta 0.01, NSR 1e-3.  Seventeen
capped cells stop the fixed-point loop after ``CAPPED_STEPS`` = 2 steps,
each with ``x_d``, alpha 1e-2 and beta 0.01: the 4 configurations at 2D
n=150 and n=256 and ``AR+Sine+ZN`` at 2D n=128 (NSR 1e-3), and the 4
configurations at 1D n=400 and n=1024 (NSR 0.01).  They reach the branches
that no uncapped cell runs: the 2D FFT path of the diagonalized applies
and of the batched band forms (n > 144), the 1D FFT band forms (n > 384),
and a 2D ``M``-family step at n=128.  Their labels end in ``fp_max=2``,
which no configuration of a sweep does.  All run at noise seed 2023, with the BLAS and OpenMP thread variables set to 1 before
numpy loads, as ``bench/run.py`` sets them, so that a threaded dot product
cannot change a cell's bytes from one host to another.  Ten more cells
reach the data terms that the sweep's separable Gaussian and its fast blur
BCs never take:

* the reference data term: zero and periodic blur at 1D n=203, normal
  form with the zero-Neumann diffusion BC, selectors ``none`` and
  ``diag``, alpha 1e-1 and 1e-3, beta 0.1 (labels ``zero+ZN`` and
  ``periodic+ZN``);
* the 2D tensor-transform data term: the sweep's 2D n=64 data restored
  with the non-separable disk PSF of half-width 8 (``i^2 + j^2 <= 64``,
  normalized), ``R`` and ``AR+Reblur+AR`` with ``x_d``, alpha 1e-2, beta
  0.01 (labels ``R+disk8`` and ``AR+Reblur+AR+disk8``).

No label of these cells is a configuration of the sweep, so their keys
cannot collide with its cells.  Twelve spectra records follow: ``tvdeblur
spectra`` at 1D n=48 for the 4 configurations x ``x``, ``d_x``, ``x_d``
(its defaults otherwise), run through ``cli.main`` into a temporary
directory.  Each holds the sha256 of ``spectrum.csv``, of
``spectrum_histogram.txt`` and of the printed line with the directory cut
out; their labels, ``spectra <configuration>``, name no restore cell.
That makes 100 records in all.

It prints one record per restore cell: the sha256 of
``restored.tobytes()``, the per-step inner iterations, the fixed-point
steps, the RRE, the per-step and final gradient norms, or the failure of
a starred cell.  Two checkouts restore identically when their outputs are
equal:

    PYTHONPATH=src python3 scripts/restore_digest.py > digest.json

``--compare PARENT.json CHANGE.json`` prints one line for each cell whose
record differs: a failure; else the fixed-point steps or, with equal
steps, the inner iterations (total, and the largest move on one step),
each with the RRE's relative change; else the RRE alone, the restored
bytes only, or the gradient norms only.  For a spectra record it names
the outputs that differ.  It exits 0 when every cell is
identical and 1 otherwise:

    python3 scripts/restore_digest.py --compare parent.json change.json
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SELECTORS = ("none", "diag", "x", "d_x", "x_d")
KEY = ("dim", "n", "config", "alpha", "selector")
#: set to 1 before numpy loads, as bench/run.py sets them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: field of a spectra record -> the output it fingerprints
SPECTRA_OUTPUTS = {"spectrum": "spectrum.csv",
                   "histogram": "spectrum_histogram.txt",
                   "line": "printed line"}
#: fixed-point steps of the capped cells
CAPPED_STEPS = 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _label(config: str, spec) -> str:
    """A cell's configuration label, marked with the cap of a capped cell,
    so that its key cannot collide with an uncapped cell's."""
    return f"{config} fp_max={CAPPED_STEPS}" if spec.fp_max == CAPPED_STEPS \
        else config


def _record(key: tuple, report, failure: str | None) -> dict:
    """The record of one cell, keyed by ``KEY``: a report's fingerprint, or
    the failure of a starred cell, which has no report."""
    record = dict(zip(KEY, key))
    if report is None:
        record["failure"] = failure
    else:
        record.update(
            sha256=_sha256(report.restored.tobytes()),
            inner_iterations=report.inner_iterations,
            fp_steps=report.fp_steps, rre=report.rre,
            gradient_norms=report.gradient_norms,
            final_gradient_norm=report.final_gradient_norm)
    return record


def _spectra_record(config: str, selector: str) -> dict:
    """The record of ``tvdeblur spectra`` at 1D n=48 for one configuration
    and selector, run through ``cli.main`` into a temporary directory."""
    from tvdeblur.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "spectra"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            main(["spectra", "--n", "48", "--config", config, "--precond",
                  selector, "--out-dir", str(out)])
        record = dict(zip(KEY, (1, 48, f"spectra {config}", 1e-3, selector)))
        record.update(
            spectrum=_sha256((out / "spectrum.csv").read_bytes()),
            histogram=_sha256((out / "spectrum_histogram.txt").read_bytes()),
            line=_sha256(printed.getvalue().replace(str(out), "").encode()))
    return record


def digest() -> list:
    # imported here, so that --compare runs without the package on the path
    # and BLAS reads the thread variables when numpy loads it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np

    from tvdeblur.blur import BoundaryCondition, SymmetricPsf
    from tvdeblur.harness import BenchmarkSpec, make_problem, run_sweep
    from tvdeblur.krylov import NumericalFailure
    from tvdeblur.pipeline import CONFIGURATIONS, restore

    def x_d_spec(dimension, ns, configurations=tuple(CONFIGURATIONS), **kw):
        return BenchmarkSpec(dimension=dimension, ns=ns, alphas=(1e-2,),
                             betas=(0.01,), configurations=configurations,
                             preconditioners=("x_d",), **kw)

    spec_1d = BenchmarkSpec(dimension=1, ns=(203,), nsr=0.01,
                            alphas=(1e-1, 1e-3), betas=(0.1,),
                            configurations=tuple(CONFIGURATIONS),
                            preconditioners=SELECTORS)
    spec_2d = BenchmarkSpec(dimension=2, ns=(64,), nsr=1e-3, alphas=(1e-2,),
                            betas=(0.01,),
                            configurations=tuple(CONFIGURATIONS),
                            preconditioners=SELECTORS)
    specs = (spec_1d, spec_2d,
             x_d_spec(2, (128,), ("AR+Reblur+AR",), nsr=1e-3),
             x_d_spec(2, (150, 256), nsr=1e-3, fp_max=CAPPED_STEPS),
             x_d_spec(2, (128,), ("AR+Sine+ZN",), nsr=1e-3,
                      fp_max=CAPPED_STEPS),
             x_d_spec(1, (400, 1024), nsr=0.01, fp_max=CAPPED_STEPS))
    records = [_record((spec.dimension, cell.n, _label(cell.config, spec),
                        cell.alpha, cell.preconditioner),
                       cell.report, cell.failure)
               for spec in specs for cell in run_sweep(spec).cells]

    def run(key, problem, config):
        psf, observed, u_true = problem
        try:
            report = restore(observed, psf, config, u_true=u_true)
        except NumericalFailure as exc:
            return _record(key, None, str(exc))
        return _record(key, report, None)

    problem = make_problem(spec_1d, 203)
    for bc in (BoundaryCondition.ZERO_DIRICHLET, BoundaryCondition.PERIODIC):
        for selector in ("none", "diag"):
            for alpha in spec_1d.alphas:
                config = dataclasses.replace(spec_1d.restoration_config(
                    "R", selector, alpha, 0.1), bc_h=bc)
                records.append(run((1, 203, f"{bc.value}+ZN", alpha,
                                    selector), problem, config))

    i = np.arange(-8, 9)
    disk = (i[:, None] ** 2 + i[None, :] ** 2 <= 64).astype(float)
    _, observed, u_true = make_problem(spec_2d, 64)
    problem = SymmetricPsf(disk / disk.sum()), observed, u_true
    for label in ("R", "AR+Reblur+AR"):
        config = spec_2d.restoration_config(label, "x_d", 1e-2, 0.01)
        records.append(run((2, 64, f"{label}+disk8", 1e-2, "x_d"), problem,
                           config))
    records += [_spectra_record(label, selector)
                for label in CONFIGURATIONS for selector in ("x", "d_x", "x_d")]
    return records


def _relative(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


def describe(old: dict, new: dict) -> str | None:
    """How the record ``new`` of one cell differs from ``old``, or None."""
    if old == new:
        return None
    if "line" in old:
        return "spectra " + ", ".join(
            output for field, output in SPECTRA_OUTPUTS.items()
            if old[field] != new[field])
    if "failure" in old or "failure" in new:
        return f"failure {old.get('failure')!r} -> {new.get('failure')!r}"
    parts = []
    before, after = old["inner_iterations"], new["inner_iterations"]
    if old["fp_steps"] != new["fp_steps"]:
        parts.append(f"fp_steps {old['fp_steps']} -> {new['fp_steps']}")
    elif before != after:
        step = max(abs(b - a) for a, b in zip(before, after))
        parts.append(f"iterations {sum(before)} -> {sum(after)} "
                     f"(largest per-step move {step})")
    if old["rre"] != new["rre"]:
        parts.append(f"rre {_relative(old['rre'], new['rre']):.2e} relative")
    if parts:
        return "; ".join(parts)
    if old["sha256"] != new["sha256"]:
        return "bytes only"
    norms = [*old["gradient_norms"], old["final_gradient_norm"]]
    moved = [*new["gradient_norms"], new["final_gradient_norm"]]
    change = max(_relative(a, b) for a, b in zip(norms, moved))
    return f"gradient norms only ({change:.2e} relative)"


def compare(parent: list, change: list) -> list[str]:
    """One line per cell that differs, in the parent's order; cells present
    on one side only are named too."""
    def keyed(records):
        return {tuple(r[k] for k in KEY): r for r in records}

    old, new = keyed(parent), keyed(change)
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        label = "{}D n={} {} alpha={} {}".format(*key)
        if key not in new:
            lines.append(f"{label}: missing from the change")
        elif key not in old:
            lines.append(f"{label}: missing from the parent")
        else:
            what = describe(old[key], new[key])
            if what:
                lines.append(f"{label}: {what}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two digests instead of printing one")
    args = parser.parse_args(argv)
    if args.compare is None:
        print(json.dumps(digest(), indent=1))
        return 0
    parent, change = (json.loads(Path(path).read_text(encoding="utf-8"))
                      for path in args.compare)
    lines = compare(parent, change)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(parent)} cells differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
