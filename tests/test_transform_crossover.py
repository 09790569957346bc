"""Smoke test of ``scripts/transform_crossover.py``, which reads private
names of ``transforms`` and swaps ``precond.band_form`` for each path."""

import importlib.util
import sys
from pathlib import Path

from tvdeblur import precond, transforms
from tvdeblur.blur import FAST_TRANSFORMS
from tvdeblur.pipeline import DATA_TERMS
from tvdeblur.transforms import TransformKind

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "transform_crossover.py"
_spec = importlib.util.spec_from_file_location("transform_crossover", SCRIPT)
transform_crossover = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(transform_crossover)


def _table(lines, first_time):
    """(kind, n) of each row of the table whose header names the columns
    kind, n and ``first_time``, up to the first blank line or the end;
    every row has a positive number under each of the other columns."""
    header = next(line.split() for line in lines
                  if line.split()[:3] == ["kind", "n", first_time])
    start = lines.index(next(line for line in lines
                             if line.split() == header))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        kind, n, *times = line.split()
        assert len(times) == len(header) - 2, line
        assert all(float(t) > 0 for t in times), line
        rows.append((kind, int(n)))
    return rows


def test_main_prints_every_table_and_restores_the_band_form(monkeypatch,
                                                           capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", "8",
                                      "--repeats", "1"])
    transform_crossover.main()
    lines = capsys.readouterr().out.splitlines()
    # the bounds the rule reads, for one vector and for a batch
    assert (f"products up to n = {transforms._VECTOR_MAX_N} for one vector, "
            f"n = {transforms._BATCH_MAX_N} for a batch or a 2D grid") in lines

    # per-axis FFTs, the dense product and the parity blocks, with the ratio
    assert "kind n per-axis matrix parity ratio".split() in [
        line.split() for line in lines]
    transform_rows = _table(lines, "per-axis")
    assert transform_rows == [(kind.value, 8) for kind in TransformKind]
    # --sizes drives every table, each with the harness PSF of its side
    assembly_rows = _table(lines, "fft")
    assert assembly_rows == [
        (kind, 8) for kind in transform_crossover.ASSEMBLY_KINDS]
    # the vector band forms of the two orthogonal kinds
    band_rows = _table(lines, "band-fft")
    assert band_rows == [(TransformKind.DCT.value, 8),
                         (TransformKind.DST1.value, 8)]
    data_term_rows = _table(lines, "operator")
    assert data_term_rows == [
        (f"{bc.value}/{formulation.value}", 8)
        for bc, formulation in DATA_TERMS]
    assert len(data_term_rows) == 5
    # the 1D table has one row per fast-BC data term and requested size
    data_term_1d_rows = _table(lines, "composed")
    assert data_term_1d_rows == [
        (f"{bc.value}/{formulation.value}", 8)
        for bc, formulation in DATA_TERMS if bc in FAST_TRANSFORMS]
    assert len(data_term_1d_rows) == 3
    assert precond.band_form is transforms.band_form
