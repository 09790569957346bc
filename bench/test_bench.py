"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
from metrics import END_TO_END, PER_LAYER
from spans import NO_PARENT, Tracer, self_times, totals
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_on_synthetic_tree():
    #        0 root [0, 10]
    #        1  child [1, 4]       2  child [3, 6] (overlaps 1)
    #        3  grandchild of 1 [2, 3]
    #        4  child [8, 12] (runs past the root's end)
    #        5  second root [20, 21], no children
    parent = [NO_PARENT, 0, 0, 1, 0, NO_PARENT]
    start = [0.0, 1.0, 3.0, 2.0, 8.0, 20.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    got = self_times(parent, start, end)
    # root: 10 minus the union [1, 6] + [8, 10]
    np.testing.assert_allclose(got, [3.0, 2.0, 3.0, 1.0, 4.0, 1.0], atol=1e-9)


def test_self_times_of_a_nested_tree_add_up_to_its_root():
    rng = np.random.default_rng(5)
    parent, start, end = [NO_PARENT], [0.0], [100.0]

    def split(node, lo, hi, depth):
        if depth == 0:
            return
        cuts = np.sort(rng.uniform(lo, hi, 4))
        for a, b in ((cuts[0], cuts[1]), (cuts[2], cuts[3])):
            parent.append(node)
            start.append(a)
            end.append(b)
            split(len(parent) - 1, a, b, depth - 1)

    split(0, 0.0, 100.0, 6)
    got = self_times(parent, start, end)
    assert np.all(got >= 0)
    assert got.sum() == pytest.approx(100.0, abs=1e-6)


def test_tracer_nests_spans_and_totals_by_name():
    tracer = Tracer()
    leaf = tracer.wrap("b.leaf", lambda: sum(range(1000)))

    def middle():
        leaf()
        leaf()

    root = tracer.wrap("a.root", tracer.wrap("a.middle", middle))
    root()
    spans = tracer.spans()
    assert list(spans["parent"]) == [NO_PARENT, 0, 1, 1]
    t = totals(spans, tracer.names)
    assert t.calls == {"b.leaf": 2, "a.middle": 1, "a.root": 1}
    root_s = float(spans["end"][0] - spans["start"][0])
    assert t.layer_self("a") + t.layer_self("b") == pytest.approx(root_s, abs=1e-8)


def test_traced_restore_layers_add_up_and_originals_come_back():
    from tvdeblur import blur, harness, pipeline

    originals = (harness.restore, pipeline.pbicgstab,
                 blur.StructuredBlurOperator.__dict__["apply_fast"])
    spec = harness.BenchmarkSpec(dimension=1, ns=(64,), seed=3)
    problem = harness.make_problem(spec, 64)
    tracer = Tracer()
    with tracer.installed():
        cell = harness.run_cell(spec, "AR+Reblur+AR", 1e-2, 0.1, 64, "x_d",
                                problem=problem)
    assert (harness.restore, pipeline.pbicgstab,
            blur.StructuredBlurOperator.__dict__["apply_fast"]) == originals
    assert cell.ok
    t = totals(tracer.spans(), tracer.names)
    assert sum(s.iterations for s in tracer.solves) == sum(
        cell.report.inner_iterations)
    assert t.calls_of("precond.assemble") == cell.report.fp_steps
    layers = ("pipeline", "krylov", "precond", "tv", "blur", "transforms")
    assert sum(t.layer_self(x) for x in layers) == pytest.approx(
        t.total_s["pipeline.restore"], abs=1e-6)


# -- reference gate --------------------------------------------------------


REF = {"seed": 7, "config": "R", "precond": "x_d", "alpha": 0.01, "beta": 0.01,
       "fp_steps": 3, "inner": [10, 8, 7], "rre": 0.25}


def _cell(**changes) -> gate.CellResult:
    fields = dict(seed=7, config="R", precond="x_d", alpha=0.01, beta=0.01, ok=True,
                  fp_steps=3, inner=(10, 8, 7), rre=0.25)
    fields.update(changes)
    return gate.CellResult(**fields)


def test_gate_accepts_the_reference_and_rounding():
    assert gate.check_cell(_cell(), REF) is None
    assert gate.check_cell(_cell(inner=(11, 7, 7)), REF) is None
    assert gate.check_cell(_cell(rre=0.25 * (1 + 1e-8)), REF) is None


@pytest.mark.parametrize("changes", [
    {"inner": (10, 10, 7)},
    {"inner": (10, 8, 5)},
    {"rre": 0.25 * (1 + 1e-5)},
    {"fp_steps": 4, "inner": (10, 8, 7, 1)},
    {"ok": False, "failure": "did not converge"},
])
def test_gate_rejects_perturbed_cells(changes):
    assert gate.check_cell(_cell(**changes), REF) is not None


def test_gate_without_reference_checks_only_convergence():
    assert gate.check_cell(_cell(inner=(99, 1, 1), rre=9.0), None) is None
    assert gate.check_cell(_cell(ok=False, failure="x"), None) is not None


def test_gate_rejects_a_perturbed_reference_file(tmp_path):
    data = json.loads(gate.REFERENCE_PATH.read_text())
    entry = data["workloads"]["img2d-ar128"][0]
    entry["inner"][0] += 2
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(data))
    reference = gate.load_reference("img2d-ar128", path)
    good = gate.load_reference("img2d-ar128")
    (key, ref), = good.items()
    cell = gate.CellResult(*key, ok=True, fp_steps=ref["fp_steps"],
                           inner=tuple(ref["inner"]), rre=ref["rre"])
    assert gate.check_cells([cell], good) == [None]
    assert gate.check_cells([cell], reference)[0] is not None


def test_reference_covers_every_workload_cell():
    for name, workload in WORKLOADS.items():
        reference = gate.load_reference(name)
        keys = [(seed, *cell) for seed in workload.noise_seeds(2023)
                for cell in workload.cells]
        assert sorted(reference) == sorted(keys)


# -- metric names and BENCHMARK.json ----------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    for _, unit, better, *_ in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    assert len(PER_LAYER) <= 128


def test_benchmark_json_matches_the_metric_tables():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert data["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END]
    assert data["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    assert data["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()]


# -- machine speed -------------------------------------------------------------


def test_speed_probe_samples_between_iterations_and_scales_to_the_reference():
    import run
    from tvdeblur import pipeline

    probe = run.SpeedProbe()
    assert probe.samples == [] and probe.spent_s == 0.0
    solver = pipeline.pcg
    applies = []

    def apply_a(w):
        applies.append(w)
        if len(applies) == 1:
            probe._last -= run.PROBE_EVERY_S  # due at the next apply only
        return 2.0 * w

    with probe.installed():
        assert pipeline.pcg is not solver
        outcome = pipeline.pcg(apply_a, None, np.ones(4), np.zeros(4))
    assert pipeline.pcg is solver
    np.testing.assert_allclose(outcome.solution, 0.5)
    assert len(applies) >= 2
    assert len(probe.samples) == 1
    assert probe.spent_s == probe.samples[0]
    assert run.SpeedProbe.scale([1.0, 2.0, 6.0]) == run.CALIBRATION_REF_S / 3.0
