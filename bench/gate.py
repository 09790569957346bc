"""Reference gate: compare each restored cell with the committed reference.

``reference.json`` holds, for the default workload seed, every cell's
(noise seed, configuration, preconditioner, alpha, beta) fixed-point
step count, per-step inner iteration counts and RRE.  A cell fails if it is
starred (a numerical failure or no convergence), if ``fp_steps`` differs,
if any step's inner iterations differ by more than ``ITER_SLACK``, or if its
RRE differs by more than ``RRE_RTOL`` relative.  With any other seed there
is no reference, and only the first rule applies.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

ITER_SLACK = 1
# Cells that differ only by seed rounding agree to about 1e-8.
RRE_RTOL = 1e-6


@dataclass(frozen=True)
class CellResult:
    seed: int
    config: str
    precond: str
    alpha: float
    beta: float
    ok: bool
    fp_steps: int
    inner: tuple[int, ...]
    rre: float | None
    failure: str | None = None

    @classmethod
    def from_sweep_cell(cls, seed: int, cell) -> "CellResult":
        """``cell`` is a ``harness.SweepCell`` run on noise seed ``seed``."""
        head = (seed, cell.config, cell.preconditioner, cell.alpha, cell.beta)
        rep = cell.report
        if rep is None:
            return cls(*head, False, 0, (), None, cell.failure or "no report")
        return cls(*head, cell.ok, rep.fp_steps, tuple(rep.inner_iterations),
                   rep.rre, None if cell.ok else "did not converge")

    @property
    def key(self) -> tuple:
        return (self.seed, self.config, self.precond, self.alpha, self.beta)


def check_cell(cell: CellResult, ref: dict | None) -> str | None:
    """Why ``cell`` fails the gate, or None when it passes."""
    if not cell.ok:
        return f"starred: {cell.failure}"
    if ref is None:
        return None
    if ref["fp_steps"] != cell.fp_steps:
        return f"fp_steps {cell.fp_steps} != reference {ref['fp_steps']}"
    for step, (got, want) in enumerate(zip(cell.inner, ref["inner"]), 1):
        if abs(got - want) > ITER_SLACK:
            return f"step {step}: {got} inner iterations, reference {want}"
    if cell.rre is None or abs(cell.rre - ref["rre"]) > RRE_RTOL * abs(ref["rre"]):
        return f"rre {cell.rre!r} != reference {ref['rre']!r}"
    return None


def load_reference(workload: str, path: Path = REFERENCE_PATH) -> dict[tuple, dict]:
    """Reference cells of one workload keyed like :attr:`CellResult.key`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {(c["seed"], c["config"], c["precond"], c["alpha"], c["beta"]): c
            for c in data["workloads"][workload]}


def check_cells(cells: list[CellResult], reference: dict[tuple, dict] | None
                ) -> list[str | None]:
    """Gate every cell; with a reference, a cell missing from it fails."""
    reasons = []
    for cell in cells:
        if reference is not None and cell.key not in reference:
            reasons.append("no reference cell")
        else:
            reasons.append(check_cell(
                cell, None if reference is None else reference[cell.key]))
    return reasons


def write_reference(seed: int, results: dict[str, list[CellResult]],
                    path: Path = REFERENCE_PATH) -> None:
    """Write one cell per line, so a reference change reads as a short diff."""
    blocks = []
    for name, cells in results.items():
        rows = ",\n".join(
            "  " + json.dumps({k: v for k, v in asdict(c).items()
                               if k not in ("ok", "failure")})
            for c in cells)
        blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {seed}, "workloads": {{\n')
        fh.write(",\n".join(blocks))
        fh.write("\n}}\n")
