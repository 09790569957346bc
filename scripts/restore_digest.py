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

``--compare PARENT.json CHANGE.json`` prints one line for each cell whose
record differs: a failure; else the fixed-point steps or, with equal
steps, the inner iterations (total, and the largest move on one step),
each with the RRE's relative change; else the RRE alone, the restored
bytes only, or the gradient norms only.  It exits 0 when every cell is
identical and 1 otherwise:

    python3 scripts/restore_digest.py --compare parent.json change.json
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

SELECTORS = ("none", "diag", "x", "d_x", "x_d")
KEY = ("dim", "n", "config", "alpha", "selector")


def digest() -> list:
    # imported here, so that --compare runs without the package on the path
    from tvdeblur.harness import BenchmarkSpec, run_sweep
    from tvdeblur.pipeline import CONFIGURATIONS

    specs = (
        BenchmarkSpec(dimension=1, ns=(203,), nsr=0.01, alphas=(1e-1, 1e-3),
                      betas=(0.1,), configurations=tuple(CONFIGURATIONS),
                      preconditioners=SELECTORS),
        BenchmarkSpec(dimension=2, ns=(64,), nsr=1e-3, alphas=(1e-2,),
                      betas=(0.01,), configurations=tuple(CONFIGURATIONS),
                      preconditioners=SELECTORS),
    )
    records = []
    for spec in specs:
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
    return records


def _relative(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


def describe(old: dict, new: dict) -> str | None:
    """How the record ``new`` of one cell differs from ``old``, or None."""
    if old == new:
        return None
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
