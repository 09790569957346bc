import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "restore_digest.py"
_spec = importlib.util.spec_from_file_location("restore_digest", SCRIPT)
restore_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(restore_digest)


def record(selector="x", **changes):
    cell = {"dim": 2, "n": 64, "config": "R", "alpha": 0.01,
            "selector": selector, "sha256": "aa",
            "inner_iterations": [10, 20, 30], "fp_steps": 3, "rre": 0.1,
            "gradient_norms": [1.0, 0.5, 0.25], "final_gradient_norm": 0.125}
    cell.update(changes)
    return cell


@pytest.mark.parametrize("changes,line", [
    ({}, None),
    ({"sha256": "bb"}, "bytes only"),
    ({"sha256": "bb", "rre": 0.1 * (1 + 2e-9)}, "rre 2.00e-09 relative"),
    ({"sha256": "bb", "inner_iterations": [10, 23, 29]},
     "iterations 60 -> 62 (largest per-step move 3)"),
    ({"sha256": "bb", "inner_iterations": [10, 23, 29], "rre": 0.1 * 0.99},
     "iterations 60 -> 62 (largest per-step move 3); rre 1.00e-02 relative"),
    ({"sha256": "bb", "inner_iterations": [10, 20, 30, 5], "fp_steps": 4},
     "fp_steps 3 -> 4"),
    ({"final_gradient_norm": 0.125 * (1 + 4e-12)},
     "gradient norms only (4.00e-12 relative)"),
])
def test_describe_names_the_largest_difference(changes, line):
    assert restore_digest.describe(record(), record(**changes)) == line


def test_describe_failure():
    starred = {k: v for k, v in record().items() if k in restore_digest.KEY}
    starred["failure"] = "indefinite"
    assert restore_digest.describe(record(), starred) == \
        "failure None -> 'indefinite'"


def test_compare_exit_code_and_lines(tmp_path, capsys):
    parent = [record("x"), record("d_x"), record("none")]
    change = [record("x"), record("d_x", sha256="bb"), record("diag")]
    paths = []
    for name, records in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(records), encoding="utf-8")
    assert restore_digest.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2D n=64 R alpha=0.01 d_x: bytes only",
        "2D n=64 R alpha=0.01 none: missing from the change",
        "2D n=64 R alpha=0.01 diag: missing from the parent",
        "3 of 3 cells differ",
    ]
    assert restore_digest.main(["--compare", str(paths[0]),
                                str(paths[0])]) == 0
    assert capsys.readouterr().out == "0 of 3 cells differ\n"


def spectra_record(**changes):
    cell = {"dim": 1, "n": 48, "config": "spectra R", "alpha": 0.001,
            "selector": "x", "spectrum": "aa", "histogram": "bb",
            "line": "cc"}
    cell.update(changes)
    return cell


@pytest.mark.parametrize("changes,line", [
    ({}, None),
    ({"histogram": "dd"}, "spectra spectrum_histogram.txt"),
    ({"spectrum": "dd", "line": "dd"}, "spectra spectrum.csv, printed line"),
])
def test_describe_names_the_spectra_outputs_that_differ(changes, line):
    assert restore_digest.describe(spectra_record(),
                                   spectra_record(**changes)) == line
