"""Smoke test of ``scripts/transform_crossover.py``, which reads and sets
private names of ``transforms``."""

import importlib.util
import sys
from pathlib import Path

from tvdeblur import transforms
from tvdeblur.transforms import TransformKind

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "transform_crossover.py"
_spec = importlib.util.spec_from_file_location("transform_crossover", SCRIPT)
transform_crossover = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(transform_crossover)


def _table(lines, first_time):
    """(kind, n) of each row of the table whose header names the columns
    kind, n and ``first_time``, up to the first blank line or the end."""
    start = lines.index(next(line for line in lines
                             if line.split()[:3] == ["kind", "n", first_time]))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        kind, n, *times = line.split()
        assert len(times) == 3 and all(float(t) > 0 for t in times), line
        rows.append((kind, int(n)))
    return rows


def test_main_prints_both_tables_and_restores_the_cutoff(monkeypatch, capsys):
    cutoff = transforms._GEMM_MAX_N
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", "8",
                                      "--repeats", "1"])
    transform_crossover.main()
    lines = capsys.readouterr().out.splitlines()

    transform_rows = _table(lines, "per-axis")
    assert transform_rows == [(kind.value, 8) for kind in TransformKind]
    # the assembly table keeps its own grid sides, which a PSF of
    # half-width 16 needs
    assembly_rows = _table(lines, "fft")
    assert assembly_rows == [
        (kind, n) for kind in transform_crossover.ASSEMBLY_KINDS
        for n in transform_crossover.ASSEMBLY_SIZES]
    assert transforms._GEMM_MAX_N == cutoff == 144
