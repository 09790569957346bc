#!/usr/bin/env python3
"""Fingerprint a fixed grid of restorations as JSON, for byte-identity checks.

Runs the 4 configurations x 5 preconditioner selectors at 1D n=203
(alpha 1e-1 and 1e-3, beta 0.1) and at 2D n=64 (alpha 1e-2, beta 0.01), all
at noise seed 2023, and prints one record per cell: the sha256 of
``restored.tobytes()``, the per-step inner iterations, the fixed-point
steps, the RRE, the per-step and final gradient norms, or the failure of
a starred cell.  Two checkouts restore identically when their outputs are
equal:

    PYTHONPATH=src python3 scripts/restore_digest.py > digest.json
"""

import hashlib
import json

from tvdeblur.harness import BenchmarkSpec, run_sweep
from tvdeblur.pipeline import CONFIGURATIONS

SELECTORS = ("none", "diag", "x", "d_x", "x_d")
SPECS = (
    BenchmarkSpec(dimension=1, ns=(203,), nsr=0.01, alphas=(1e-1, 1e-3),
                  betas=(0.1,), configurations=tuple(CONFIGURATIONS),
                  preconditioners=SELECTORS),
    BenchmarkSpec(dimension=2, ns=(64,), nsr=1e-3, alphas=(1e-2,),
                  betas=(0.01,), configurations=tuple(CONFIGURATIONS),
                  preconditioners=SELECTORS),
)


def main() -> None:
    records = []
    for spec in SPECS:
        for cell in run_sweep(spec).cells:
            record = {"dim": spec.dimension, "n": cell.n,
                      "config": cell.config, "alpha": cell.alpha,
                      "selector": cell.preconditioner}
            report = cell.report
            if report is None:
                record["failure"] = cell.failure
            else:
                record.update(
                    sha256=hashlib.sha256(report.restored.tobytes()).hexdigest(),
                    inner_iterations=report.inner_iterations,
                    fp_steps=report.fp_steps, rre=report.rre,
                    gradient_norms=report.gradient_norms,
                    final_gradient_norm=report.final_gradient_norm)
            records.append(record)
    print(json.dumps(records, indent=1))


if __name__ == "__main__":
    main()
