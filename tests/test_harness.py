import csv
import dataclasses
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import convolve2d

from tvdeblur import cli, harness, transforms, tv
from tvdeblur.cli import main as cli_main
from tvdeblur.krylov import ConfigurationError
from tvdeblur.pipeline import CONFIGURATIONS
from tvdeblur.harness import (
    BenchmarkSpec,
    TABLE_HEADER,
    blur_and_observe,
    gen_image_2d,
    gen_psf,
    gen_signal_1d,
    parse_sweep_config,
    run_sweep,
    write_csv,
    write_pgm,
)
from tvdeblur.tv import InvalidScalingError


# -- generators -----------------------------------------------------------------


def test_signal_shape_and_fov_arithmetic():
    n, m = 203, 11
    u, fov = gen_signal_1d(n, m)
    assert len(u) == n + 2 * m
    assert len(u[fov]) == n
    assert fov == slice(m, m + n)


def test_signal_boundaries_nonzero_and_sloped():
    u, fov = gen_signal_1d(128, 8)
    assert abs(u[0]) > 0.1 and abs(u[-1]) > 0.1
    # nonzero slope at both ends distinguishes reflection from anti-reflection
    assert abs(u[1] - u[0]) > 1e-4
    assert abs(u[-1] - u[-2]) > 1e-4


def test_signal_has_jumps_and_ramp():
    u, fov = gen_signal_1d(203, 11)
    inner = u[fov]
    jumps = np.abs(np.diff(inner)) > 0.3
    assert jumps.sum() >= 2
    # the ramp: a stretch of nearly constant positive slope
    d = np.diff(inner)
    ramp = (d > 0.01) & (d < 0.1)
    assert ramp.sum() > 20


def test_signal_deterministic():
    a, _ = gen_signal_1d(100, 5)
    b, _ = gen_signal_1d(100, 5)
    np.testing.assert_array_equal(a, b)


def test_signal_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_signal_1d(16, 2)
    with pytest.raises(ValueError):
        gen_signal_1d(100, 30)


@pytest.mark.parametrize("gen", [gen_signal_1d, gen_image_2d])
@pytest.mark.parametrize("n,m,message", [
    (16, 2, "n must be at least 32, got 16"),
    (64, -1, "half-width m must be nonnegative, got -1"),
    (64, 16, "half-width m=16 must be below n/4 = 16 for n=64"),
])
def test_generators_name_the_grid_bound_that_failed(gen, n, m, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen(n, m)


def test_image_borders_nonzero():
    img, fov = gen_image_2d(64, 8)
    assert img.shape == (80, 80)
    for border in (img[0], img[-1], img[:, 0], img[:, -1]):
        assert np.all(np.abs(border) > 0.05)


def test_gen_psf_out_of_focus_strict_inequality():
    psf = gen_psf("out_of_focus", 2)
    np.testing.assert_allclose(psf.coefficients, [0, 1 / 3, 1 / 3, 1 / 3, 0],
                               atol=1e-15)


def test_gen_psf_gaussian_matches_formula():
    m, sigma = 2, 1.0
    psf = gen_psf("gaussian", m, sigma)
    idx = np.arange(-m, m + 1)
    raw = np.exp(-(idx[:, None] ** 2 + idx[None, :] ** 2) / (2 * sigma ** 2))
    np.testing.assert_allclose(psf.coefficients, raw / raw.sum(), atol=1e-15)


def test_gen_psf_gaussian_small_sigma_is_identity_like():
    psf = gen_psf("gaussian", 3, 1e-3)
    assert psf.coefficients[3, 3] > 1.0 - 1e-12


def test_gen_psf_gaussian_width_whose_square_underflows():
    """1e-160, whose ``1 / (2 sigma^2)`` overflows, gives the one-tap
    kernel; 1e-170, whose square underflows to 0, is rejected.  Neither
    warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(
            gen_psf("gaussian", 2, 1e-160).coefficients, np.pad([[1.0]], 2))
        with pytest.raises(ValueError, match=r"^gaussian psf sigma 1e-170 "
                                             r"is too small"):
            gen_psf("gaussian", 2, 1e-170)


def test_gen_psf_errors():
    with pytest.raises(ValueError):
        gen_psf("out_of_focus", 0)
    with pytest.raises(ValueError):
        gen_psf("gaussian", 2)
    with pytest.raises(ValueError):
        gen_psf("motion", 2)
    # an infinite sigma would give a flat box kernel, a nan one a nan kernel
    for sigma in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=rf"^gaussian psf sigma must be "
                                             rf"finite and positive, got {sigma}$"):
            gen_psf("gaussian", 2, sigma)


# -- observation ------------------------------------------------------------------


def test_observe_noiseless_is_exact_convolution(rng):
    n, m = 64, 4
    u, _ = gen_signal_1d(n, m)
    psf = gen_psf("out_of_focus", m)
    v = blur_and_observe(u, psf, n, nsr=0.0, seed=0)
    expected = np.convolve(u, psf.coefficients, mode="valid")
    np.testing.assert_allclose(v, expected, atol=1e-15)
    img, _ = gen_image_2d(n, m)
    psf2 = gen_psf("gaussian", m, 2.0)
    v2 = blur_and_observe(img, psf2, n, nsr=0.0, seed=0)
    np.testing.assert_allclose(v2, convolve2d(img, psf2.coefficients, "valid"),
                               atol=1e-15)


def test_observe_seed_reproducibility():
    u, _ = gen_signal_1d(64, 4)
    psf = gen_psf("out_of_focus", 4)
    a = blur_and_observe(u, psf, 64, nsr=0.01, seed=7)
    b = blur_and_observe(u, psf, 64, nsr=0.01, seed=7)
    np.testing.assert_array_equal(a, b)
    c = blur_and_observe(u, psf, 64, nsr=0.01, seed=8)
    assert np.any(a != c)


@pytest.mark.parametrize("nsr", [-0.01, float("nan"), float("inf")])
def test_observe_rejects_bad_noise_ratio(nsr):
    u, _ = gen_signal_1d(64, 4)
    with pytest.raises(ValueError, match=r"noise-to-signal ratio must be "
                                         rf"finite and nonnegative, got {nsr!r}"):
        blur_and_observe(u, gen_psf("out_of_focus", 4), 64, nsr=nsr, seed=3)


def test_observe_rejects_a_noise_ratio_that_overflows():
    u, _ = gen_signal_1d(64, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^noise-to-signal ratio 1e\+308 "
                                             r"overflows the noisy data$"):
            blur_and_observe(u, gen_psf("out_of_focus", 4), 64, nsr=1e308,
                             seed=3)


@given(nsr=st.floats(1e-6, 0.5))
def test_observe_noise_ratio_is_exact(nsr):
    u, _ = gen_signal_1d(64, 4)
    psf = gen_psf("out_of_focus", 4)
    clean = blur_and_observe(u, psf, 64, nsr=0.0, seed=3)
    noisy = blur_and_observe(u, psf, 64, nsr=nsr, seed=3)
    ratio = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
    assert abs(ratio - nsr) < 1e-12


# -- file formats -----------------------------------------------------------------


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def test_pgm_bytes(tmp_path, rng):
    img = rng.uniform(-1.0, 3.0, size=(17, 17))
    path = tmp_path / "img.pgm"
    write_pgm(path, img, lo=-1.0, hi=3.0)
    payload = np.round((img + 1.0) / 4.0 * 255.0).astype(np.uint8)
    assert path.read_bytes() == b"P5\n17 17\n255\n" + payload.tobytes()
    write_pgm(tmp_path / "again.pgm", payload.astype(float), lo=0.0, hi=255.0)
    assert (tmp_path / "again.pgm").read_bytes() == path.read_bytes()


def test_pgm_clipping(tmp_path):
    img = np.array([[-10.0, 0.0], [1.0, 10.0]])
    path = tmp_path / "clip.pgm"
    write_pgm(path, img, lo=0.0, hi=1.0)
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 0, 255, 255])


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    # numpy scalars are written as the plain numbers
    write_csv(path, ("a", "b"),
              [(1, 0.5), ("*", 2.0), (np.int64(1), np.float64(0.5))])
    text = path.read_text()
    assert text == "a,b\n1,0.5\n*,2.0\n1,0.5\n"
    assert read_rows(path) == [["a", "b"], ["1", "0.5"], ["*", "2.0"],
                               ["1", "0.5"]]


# -- sweeps ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sweep_spec():
    return BenchmarkSpec(
        dimension=1, ns=(64,), alphas=(1e-3, 1e-2), betas=(0.1,),
        configurations=("R", "AR+Reblur+AR"), preconditioners=("x_d",),
        nsr=0.01, seed=11,
    )


def test_sweep_rows_and_files(tiny_sweep_spec, tmp_path):
    result = run_sweep(tiny_sweep_spec, out_dir=tmp_path)
    assert len(result.cells) == 4
    header, *rows = read_rows(tmp_path / "iterations.csv")
    assert tuple(header) == TABLE_HEADER
    assert len(rows) == 4
    assert "R" in result.alpha_opt and "AR+Reblur+AR" in result.alpha_opt
    restored = sorted(p.name for p in tmp_path.glob("restored_*.csv"))
    assert len(restored) == 4
    header2, *rows2 = read_rows(tmp_path / restored[0])
    assert header2 == ["x", "u"] and len(rows2) == 64
    lines = (tmp_path / "cells.jsonl").read_text(encoding="ascii").splitlines()
    for cell, record in zip(result.cells, map(json.loads, lines), strict=True):
        assert record["status"] == "ok" and record["reason"] is None
        assert record["inner_iterations"] == cell.report.inner_iterations
        assert record["fp_steps"] == cell.report.fp_steps
        assert record["rre"] == cell.report.rre


def test_sweep_deterministic_bytes(tiny_sweep_spec, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_sweep(tiny_sweep_spec, out_dir=a_dir)
    run_sweep(tiny_sweep_spec, out_dir=b_dir)
    for name in ("iterations.csv", "rre_vs_alpha.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_sweep_marks_nonconvergent_cells_with_star(tmp_path):
    spec = BenchmarkSpec(
        dimension=1, ns=(64,), alphas=(1e-3,), betas=(0.1,),
        configurations=("R",), preconditioners=("none",),
        nsr=0.01, seed=11, inner_max=1,  # starve the inner solver
    )
    result = run_sweep(spec, out_dir=tmp_path)
    assert not result.cells[0].ok
    _, *rows = read_rows(tmp_path / "iterations.csv")
    assert rows[0][4:] == ["*", "*", "*"]


def test_sweep_cells_log_keeps_each_star_reason(tmp_path):
    """cells.jsonl says why a cell is starred: here an inner solve starved
    at one iteration, and P_D indefinite for anti-reflective diffusion at a
    large alpha (raised at the first step, before any solve)."""
    spec = BenchmarkSpec(
        dimension=1, ns=(64,), alphas=(100.0,), betas=(0.1,),
        configurations=("R", "AR+Reblur+AR"), preconditioners=("x_d",),
        nsr=0.01, seed=11, inner_max=1, save_restored=False,
    )
    result = run_sweep(spec, out_dir=tmp_path)
    lines = (tmp_path / "cells.jsonl").read_text(encoding="ascii").splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == len(result.cells) == 2
    starved, indefinite = records
    assert {k: starved[k] for k in ("config", "selector", "alpha", "beta", "n",
                                    "status")} == {
        "config": "R", "selector": "x_d", "alpha": 100.0, "beta": 0.1,
        "n": 64, "status": "unconverged"}
    assert starved["reason"] == "an inner solve stopped at its iteration limit 1"
    assert starved["fp_steps"] == len(starved["inner_iterations"]) >= 1
    assert set(starved["inner_iterations"]) == {1}
    assert indefinite["status"] == "starred"
    assert indefinite["reason"].startswith(
        "preconditioner 'P_D' is indefinite at alpha=100.0")
    assert indefinite["fp_steps"] == 0 and indefinite["inner_iterations"] == []
    assert all(r["wall_time"] > 0 for r in records)
    _, *rows = read_rows(tmp_path / "iterations.csv")
    assert [row[4:] for row in rows] == [["*", "*", "*"]] * 2


def test_sweep_over_numpy_alphas_writes_plain_numbers(tmp_path):
    """np.float64 is a float subclass whose repr reads "np.float64(0.01)";
    CSV cells and file names carry the plain float instead."""
    spec = BenchmarkSpec(
        dimension=1, ns=(64,), alphas=tuple(np.logspace(-2, -1, 2)),
        betas=(0.1,), configurations=("R",), preconditioners=("x_d",),
        nsr=0.01, seed=11,
    )
    run_sweep(spec, out_dir=tmp_path)
    for name in ("iterations.csv", "rre_vs_alpha.csv"):
        header, *rows = read_rows(tmp_path / name)
        column = header.index("alpha")
        assert [float(row[column]) for row in rows] == [0.01, 0.1]
        assert "np." not in (tmp_path / name).read_text(encoding="ascii")
    names = sorted(p.name for p in tmp_path.glob("restored_*"))
    assert names == ["restored_R_a0.01_b0.1_n64_x_d.csv",
                     "restored_R_a0.1_b0.1_n64_x_d.csv"]


def test_sweep_2d_writes_pgm(tmp_path):
    spec = BenchmarkSpec(
        dimension=2, ns=(32,), alphas=(1e-2,), betas=(0.01,),
        configurations=("R",), preconditioners=("x_d",),
        nsr=0.001, seed=5, psf_half_width=3, psf_sigma=1.5,
    )
    assert spec.psf_kind == "gaussian"
    result = run_sweep(spec, out_dir=tmp_path)
    assert result.cells[0].ok
    pgms = list(tmp_path.glob("restored_*.pgm"))
    assert [p.name for p in pgms] == ["restored_R_a0.01_b0.01_n32_x_d.pgm"]
    data = pgms[0].read_bytes()
    assert data.startswith(b"P5\n32 32\n255\n")
    assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchmarkSpec(dimension=3)
    # every label is checked, not only the first
    with pytest.raises(ValueError, match=r"^unknown configuration label "
                                         r"'bogus'; the known labels are "):
        BenchmarkSpec(configurations=("R", "bogus"))
    with pytest.raises(ValueError):
        BenchmarkSpec(preconditioners=("bogus",))
    # a beta whose square underflows is rejected, naming beta and the bound
    with pytest.raises(ValueError, match=r"beta must be at least "
                                         r"sqrt\(finfo\(float\)\.tiny\) = "
                                         r"1\.49\d*e-154, .* got 1e-300"):
        BenchmarkSpec(betas=(0.1, 1e-300))
    # the solver settings name themselves, before any problem is generated
    for settings, message in (
            (dict(inner_tol=-1.0), r"inner_tol must be finite and positive, "
                                   r"got -1\.0"),
            (dict(inner_max=0), r"inner_max must be at least 1, got 0"),
            (dict(fp_tol=float("nan")), r"fp_tol must be finite and positive, "
                                        r"got nan"),
            (dict(fp_max=0), r"fp_max must be at least 1, got 0")):
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec(**settings)
    # the kernel follows the dimension unless given
    assert BenchmarkSpec(dimension=1).psf_kind == "out_of_focus"
    assert BenchmarkSpec(dimension=2).psf_kind == "gaussian"
    # make_problem runs each dimension's own kernel, and no other
    for dimension, kind in ((1, "gaussian"), (2, "banana")):
        with pytest.raises(ValueError, match=rf"psf kind '{kind}' does not "
                                             rf"fit dimension {dimension}"):
            BenchmarkSpec(dimension=dimension, psf_kind=kind)


@pytest.mark.parametrize("settings,fp_tol,inner", [
    (dict(dimension=1), 1e-3, (1e-6, 1000)),
    (dict(dimension=2), 1e-4, (1e-5, 2000)),
    (dict(dimension=2, fp_tol=1e-2, fp_max=7, inner_tol=1e-3, inner_max=9),
     1e-2, (1e-3, 9)),
])
def test_restoration_config_takes_the_spec_settings(settings, fp_tol, inner):
    spec = BenchmarkSpec(**settings)
    config = spec.restoration_config("AR+Reblur+AR", "d_x", 1e-2, 0.3)
    assert (config.bc_h, config.bc_l, config.formulation) == \
        CONFIGURATIONS["AR+Reblur+AR"][:3]
    assert config.preconditioner.value == "d_x"
    assert (config.alpha, config.beta) == (1e-2, 0.3)
    assert (config.fp_tol, config.fp_max) == (fp_tol, spec.fp_max)
    assert (config.inner.tol, config.inner.max_iterations) == inner


def test_restoration_config_rejects_an_unknown_label():
    with pytest.raises(ConfigurationError,
                       match=r"^unknown configuration label 'AR'; the known "
                             r"labels are R, AR\+Sine\+ZN, AR\+Reblur\+ZN, "
                             r"AR\+Reblur\+AR$"):
        BenchmarkSpec().restoration_config("AR", "x", 1e-2, 0.1)


@pytest.mark.parametrize("settings,message", [
    (dict(alphas=(1e-2, 0)), r"alpha must be finite and positive, got 0\.0"),
    (dict(betas=(0.1, -0.1)), r"beta must be finite and positive, got -0\.1"),
    (dict(alphas=(float("nan"),)), r"alpha must be finite and positive, got nan"),
    (dict(alphas=(float("inf"),)), r"alpha must be finite and positive, got inf"),
    (dict(betas=(float("inf"),)), r"beta must be finite and positive, got inf"),
    (dict(nsr=float("nan")), r"nsr must be finite and nonnegative, got nan"),
    (dict(nsr=float("inf")), r"nsr must be finite and nonnegative, got inf"),
    (dict(nsr=-0.01), r"nsr must be finite and nonnegative, got -0\.01"),
    (dict(ns=()), r"sweep axis 'ns' is empty"),
    (dict(alphas=()), r"sweep axis 'alphas' is empty"),
    (dict(betas=()), r"sweep axis 'betas' is empty"),
    (dict(configurations=()), r"sweep axis 'configurations' is empty"),
    (dict(preconditioners=()), r"sweep axis 'preconditioners' is empty"),
    (dict(dimension=2, psf_sigma=float("inf")),
     r"psf_sigma must be finite and positive, got inf"),
    (dict(dimension=2, psf_sigma=float("nan")),
     r"psf_sigma must be finite and positive, got nan"),
    (dict(dimension=2, psf_sigma=0.0),
     r"psf_sigma must be finite and positive, got 0\.0"),
    (dict(dimension=1, psf_sigma=5.0),
     r"psf_sigma is the width of the 2D gaussian psf"),
    (dict(psf_sigma=float("nan")),
     r"psf_sigma is the width of the 2D gaussian psf"),
    pytest.param(dict(nsr=10 ** 400),
                 rf"^nsr must be finite and nonnegative, got {10 ** 400}$",
                 id="nsr-int-beyond-float"),
    pytest.param(dict(alphas=(10 ** 400,)),
                 rf"^alpha must be finite and positive, got {10 ** 400}$",
                 id="alpha-int-beyond-float"),
    pytest.param(dict(dimension=2, ns=(64,), psf_sigma=10 ** 400),
                 rf"^psf_sigma must be finite and positive, got {10 ** 400}$",
                 id="psf_sigma-int-beyond-float"),
])
def test_spec_rejects_bad_settings(settings, message):
    """A bad setting fails before any cell runs, naming the field; an
    integer beyond float range is not finite."""
    with pytest.raises(ValueError, match=message):
        BenchmarkSpec(**settings)


@pytest.mark.parametrize("settings,message", [
    (dict(fp_max=2.5), r"^fp_max must be an integer, got 2\.5$"),
    (dict(inner_max=2.5), r"^inner_max must be an integer, got 2\.5$"),
    (dict(ns=(64.0,)), r"^n must be an integer, got 64\.0$"),
    (dict(psf_half_width=2.5), r"^psf_half_width must be an integer, got 2\.5$"),
    (dict(seed=1.5), r"^seed must be an integer, got 1\.5$"),
    (dict(dimension=1.0), r"^dimension must be an integer, got 1\.0$"),
    (dict(ns=(True,)), r"^n must be an integer, got True$"),
    (dict(seed=False), r"^seed must be an integer, got False$"),
    (dict(dimension=True), r"^dimension must be an integer, got True$"),
    (dict(psf_half_width=True), r"^psf_half_width must be an integer, got True$"),
    (dict(inner_max=True), r"^inner_max must be an integer, got True$"),
    (dict(fp_max=True), r"^fp_max must be an integer, got True$"),
])
def test_spec_counts_must_be_integers(settings, message):
    """A count or size that is not an integer, or is a bool (an Integral to
    Python), fails at construction, naming the field and the value, before
    any problem is generated."""
    with pytest.raises(ValueError, match=message):
        BenchmarkSpec(**settings)


@pytest.mark.parametrize("settings,message", [
    (dict(nsr="0.01"), r"^nsr must be a real number, got '0\.01'$"),
    (dict(inner_tol="1e-6"), r"^inner_tol must be a real number, got '1e-6'$"),
    (dict(dimension=2, ns=(64,), psf_sigma="8"),
     r"^psf_sigma must be a real number, got '8'$"),
    (dict(alphas=("1e-3",)), r"^alpha must be a real number, got '1e-3'$"),
    (dict(betas=(True,)), r"^beta must be a real number, got True$"),
    (dict(fp_tol="1e-3"), r"^fp_tol must be a real number, got '1e-3'$"),
])
def test_spec_settings_must_be_real_numbers(settings, message):
    """A string or a bool fails at construction, naming the field and the
    value, rather than as a TypeError or read as a number."""
    with pytest.raises(ValueError, match=message):
        BenchmarkSpec(**settings)


def test_spec_is_frozen():
    """A field cannot change after the spec has checked itself: a sweep
    would otherwise meet the bad value only after generating problems."""
    spec = BenchmarkSpec(ns=(64,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.alphas = (-1.0,)
    assert spec.alphas == (1e-3,)
    assert spec.inner_tol == harness.DIMENSION_DEFAULTS[1]["inner_tol"]


def test_parse_sweep_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        """
        # benchmark sweep
        dimension = 1
        n = 64, 128
        alpha = 1e-3, 1e-2
        beta = 0.1
        config = R, AR+Sine+ZN
        precond = none, x_d
        nsr = 0.01
        seed = 7
        fp_max = 50
        inner_tol = 1e-6
        save_restored = false
        """
    )
    spec = parse_sweep_config(cfg)
    assert spec.ns == (64, 128)
    assert spec.alphas == (1e-3, 1e-2)
    assert spec.configurations == ("R", "AR+Sine+ZN")
    assert spec.preconditioners == ("none", "x_d")
    assert spec.seed == 7 and spec.fp_max == 50
    assert spec.save_restored is False
    bad = tmp_path / "bad.cfg"
    bad.write_text("dimension 1\n")
    with pytest.raises(ValueError):
        parse_sweep_config(bad)
    typo = tmp_path / "typo.cfg"
    typo.write_text("n = 64\nalpah = 1e-2\n")
    with pytest.raises(ValueError, match=r"typo\.cfg:2: unknown key 'alpah'"):
        parse_sweep_config(typo)
    value = tmp_path / "value.cfg"
    value.write_text("n = 64\n\nalpha = 1e-2, abc\n")
    with pytest.raises(ValueError, match=r"value\.cfg:3: bad value for 'alpha': "
                                         r"could not convert string to float: 'abc'"):
        parse_sweep_config(value)
    flag = tmp_path / "flag.cfg"
    flag.write_text("n = 64\nsave_restored = ture\n")
    with pytest.raises(ValueError, match=r"flag\.cfg:2: bad value for "
                                         r"'save_restored': .*got 'ture'"):
        parse_sweep_config(flag)
    for text, value in (("ON", True), ("yes", True), ("0", False),
                        ("Off", False)):
        flag.write_text(f"save_restored = {text}\n")
        assert parse_sweep_config(flag).save_restored is value
    # the kernel follows the dimension: there is no key to name it
    kernel = tmp_path / "kernel.cfg"
    kernel.write_text("dimension = 1\nn = 64\npsf = out_of_focus\n")
    with pytest.raises(ValueError, match=r"kernel\.cfg:3: unknown key 'psf'"):
        parse_sweep_config(kernel)
    empty = tmp_path / "empty.cfg"
    empty.write_text("n = 64\nalpha =\n")
    with pytest.raises(ValueError, match=r"sweep axis 'alphas' is empty"):
        parse_sweep_config(empty)


REPO = Path(__file__).resolve().parents[1]
ALL_CONFIGURATIONS = tuple(CONFIGURATIONS)


def test_committed_sweep_files():
    """The experiment grids live in scripts/*.cfg; each parses to exactly
    the spec its experiment runs, the 23-point RRE alpha grid included."""
    want = {
        "benchmark_1d": BenchmarkSpec(
            dimension=1, ns=(203,), alphas=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
            betas=(0.1,), configurations=ALL_CONFIGURATIONS,
            preconditioners=("none", "diag", "x", "d_x", "x_d"), nsr=0.01,
            seed=2023, inner_max=20000, save_restored=False),
        "rre_curves_1d": BenchmarkSpec(
            dimension=1, ns=(203,),
            alphas=tuple(10.0 ** e for e in np.arange(-6.0, -0.49, 0.25)),
            betas=(0.1,), configurations=ALL_CONFIGURATIONS,
            preconditioners=("x_d",), nsr=0.01, seed=2023, save_restored=False),
        "smoke_2d": BenchmarkSpec(
            dimension=2, ns=(64,), alphas=(1e-1, 1e-2, 1e-3), betas=(0.01,),
            configurations=ALL_CONFIGURATIONS, preconditioners=("none", "x_d"),
            nsr=0.001, seed=2023),
    }
    files = sorted(p.stem for p in (REPO / "scripts").glob("*.cfg"))
    assert files == sorted(want)
    for name, spec in want.items():
        got = parse_sweep_config(REPO / "scripts" / f"{name}.cfg")
        assert got == spec, name
        assert all(type(a) is float for a in got.alphas), name
    assert len(want["rre_curves_1d"].alphas) == 23


def test_readme_lists_every_sweep_key():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The keys\s+are (.*?);", text, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(harness._SWEEP_KEYS)


# -- CLI ----------------------------------------------------------------------------


def test_cli_gen_and_restore(tmp_path):
    out = tmp_path / "gen"
    code = cli_main(["gen", "--n", "64", "--out-dir", str(out)])
    assert code == 0
    assert (out / "true.csv").exists()
    assert (out / "observed.csv").exists()
    # psf.txt: the half-width m, then the 2m + 1 coefficients
    tokens = (out / "psf.txt").read_text(encoding="ascii").split()
    assert tokens[0] == "4" and len(tokens) == 1 + 9
    np.testing.assert_array_equal([float(t) for t in tokens[1:]],
                                  gen_psf("out_of_focus", 4).coefficients)

    out2 = tmp_path / "run"
    code = cli_main([
        "restore", "--n", "64", "--config", "R", "--precond", "x_d",
        "--alpha", "1e-3", "--beta", "0.1", "--out-dir", str(out2),
    ])
    assert code == 0
    assert (out2 / "restored.csv").exists()
    report = (out2 / "report.txt").read_text()
    assert "rre:" in report and "fp_steps:" in report


RESTORE_ARGS = ["restore", "--n", "64", "--alpha", "1e-3", "--beta", "0.1"]


def test_cli_restore_takes_a_configuration_label(capsys):
    """``restore`` names its configuration by a ``CONFIGURATIONS`` label,
    and takes none of the per-field flags."""
    with pytest.raises(SystemExit) as done:
        cli_main(["restore", "--help"])
    assert done.value.code == 0
    options = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert "--config" in options
    assert not options & {"--bc", "--l-bc", "--formulation"}
    with pytest.raises(SystemExit) as done:
        cli_main([*RESTORE_ARGS, "--config", "reflective"])
    assert done.value.code == 2
    assert "invalid choice: 'reflective'" in capsys.readouterr().err


@pytest.mark.parametrize("label", list(CONFIGURATIONS))
def test_cli_restore_runs_the_configuration_it_names(tmp_path, label):
    """``restore --config`` restores as the sweep's cell of that label."""
    code = cli_main([*RESTORE_ARGS, "--config", label, "--precond", "x_d",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert report[0] == f"config: {label} precond=x_d alpha=0.001 beta=0.1 n=64"
    spec = BenchmarkSpec(ns=(64,))
    cell = harness.run_cell(spec, label, 1e-3, 0.1, 64, "x_d",
                            harness.make_problem(spec, 64))
    assert f"rre: {cell.report.rre!r}" in report


@pytest.mark.parametrize("flags,message", [
    (["--alpha", "nan"], "alpha must be finite and positive, got nan"),
    (["--beta", "inf"], "beta must be finite and positive, got inf"),
    (["--beta", "1e-300"], "beta must be at least sqrt(finfo(float).tiny)"),
    (["--nsr", "nan"], "nsr must be finite and nonnegative, got nan"),
    (["--dim", "2", "--n", "32", "--psf-sigma", "inf"],
     "psf_sigma must be finite and positive, got inf"),
    (["--dim", "2", "--n", "32", "--psf-sigma", "nan"],
     "psf_sigma must be finite and positive, got nan"),
    (["--dim", "1", "--psf-sigma", "5"],
     "psf_sigma is the width of the 2D gaussian psf"),
    (["--psf-m", "-1"], "psf_half_width must be at least 1, got -1"),
    (["--dim", "2", "--n", "32", "--psf-m", "0"],
     "psf_half_width must be at least 1, got 0"),
    (["--seed", "-1"], "seed must be nonnegative, got -1"),
    (["--fp-max", "0"], "fp_max must be at least 1, got 0"),
    (["--nsr", "1e308"], "noise-to-signal ratio 1e+308 overflows"),
    (["--dim", "2", "--n", "32", "--psf-sigma", "1e-170"],
     "gaussian psf sigma 1e-170 is too small: its square underflows"),
])
def test_cli_exit_code_on_configuration_error(tmp_path, capsys, flags,
                                              message):
    code = cli_main([
        "restore", "--n", "64", "--config", "R", "--alpha", "1e-3",
        "--beta", "0.1", "--out-dir", str(tmp_path), *flags,
    ])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--dim", "1", "--n", "64", "--psf-sigma", "5"],
     "psf_sigma is the width of the 2D gaussian psf"),
    (["--n", "64", "--nsr", "1e308"], "noise-to-signal ratio 1e+308"),
    (["--dim", "2", "--n", "32", "--psf-sigma", "1e-170"],
     "gaussian psf sigma 1e-170 is too small"),
], ids=["1d-psf-sigma", "nsr-overflow", "sigma-underflow"])
def test_cli_gen_writes_nothing_on_a_bad_setting(tmp_path, capsys, flags,
                                                  message):
    out = tmp_path / "gen"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["gen", *flags, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_code_on_nonconvergence(tmp_path, capsys):
    code = cli_main([
        "restore", "--n", "64", "--config", "R", "--alpha", "1e-3",
        "--beta", "0.1", "--fp-max", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 3
    assert "fp_steps: 1\n" in (tmp_path / "report.txt").read_text()
    assert capsys.readouterr().err == (
        "warning: run did not converge: fixed-point loop did not reach "
        "tolerance 0.001 in 1 steps\n")


@pytest.mark.parametrize("command", ["gen", "restore", "sweep", "spectra"])
def test_cli_out_dir_that_cannot_be_created(tmp_path, capsys, monkeypatch,
                                            command):
    """An output directory below a file is a configuration error, found
    before any restore or diagnostic runs."""
    def not_reached(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")
    for module, name in ((cli, "restore"), (harness, "restore"),
                         (cli, "StepSystem")):
        monkeypatch.setattr(module, name, not_reached)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n = 64\nalpha = 1e-3\nbeta = 0.1\n")
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    argv = {"gen": ["gen", "--n", "64"], "restore": RESTORE_ARGS,
            "sweep": ["sweep", str(cfg)], "spectra": ["spectra", "--n", "48"]}
    assert cli_main([*argv[command], "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: {out}: Not a directory\n"


def test_cli_lets_a_plain_value_error_propagate(tmp_path, monkeypatch):
    """A ValueError that is no ConfigurationError is a bug, not a bad input:
    the CLI does not report it as one."""
    def broken(*args, **kwargs):
        raise ValueError("a bug inside numpy")
    monkeypatch.setattr(cli, "restore", broken)
    with pytest.raises(ValueError, match="a bug inside numpy"):
        cli_main([*RESTORE_ARGS, "--out-dir", str(tmp_path)])


def test_cli_reports_invalid_scaling_as_a_numerical_failure(tmp_path, capsys,
                                                           monkeypatch):
    def unscalable(*args, **kwargs):
        raise InvalidScalingError("D = I + alpha diag L has nonpositive entries")
    monkeypatch.setattr(cli, "restore", unscalable)
    assert cli_main([*RESTORE_ARGS, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: D = I + alpha diag L has nonpositive entries\n")


@pytest.mark.parametrize("name,content,problem", [
    ("missing.cfg", None, ": No such file or directory"),
    ("folder.cfg", "directory", ": Is a directory"),
    ("binary.cfg", b"n = 64\nalpha = 1e-3\xff\n",
     ":2: 'ascii' codec can't decode byte 0xff in position 12"),
], ids=["missing", "directory", "not-ascii"])
def test_cli_sweep_names_a_file_it_cannot_read(tmp_path, capsys, name, content,
                                               problem):
    cfg = tmp_path / name
    if content == "directory":
        cfg.mkdir()
    elif content is not None:
        cfg.write_bytes(content)
    assert cli_main(["sweep", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: {cfg}{problem}")
    assert not (tmp_path / "out").exists()


def test_cli_sweep_and_spectra(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "dimension = 1\nn = 64\nalpha = 1e-3\nbeta = 0.1\n"
        "config = R\nprecond = x_d\nseed = 3\nsave_restored = false\n"
    )
    out = tmp_path / "sweep"
    assert cli_main(["sweep", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "iterations.csv").exists()
    # a nonpositive alpha stops the sweep before its first cell
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + "alpha = 1e-3, 0\n")
    assert cli_main(["sweep", str(bad), "--out-dir", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()
    # so does an empty axis
    empty = tmp_path / "empty.cfg"
    empty.write_text(cfg.read_text() + "alpha =\n")
    assert cli_main(["sweep", str(empty), "--out-dir",
                     str(tmp_path / "empty")]) == 2
    assert not (tmp_path / "empty").exists()

    # and so does a gaussian width that is not finite
    wide = tmp_path / "wide.cfg"
    wide.write_text("dimension = 2\nn = 32\nalpha = 1e-2\nbeta = 0.01\n"
                    "config = R\nprecond = x_d\npsf_sigma = inf\n")
    assert cli_main(["sweep", str(wide), "--out-dir",
                     str(tmp_path / "wide")]) == 2
    assert not (tmp_path / "wide").exists()
    # and a gaussian width in a 1D sweep, whose kernel takes none
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text(cfg.read_text() + "psf_sigma = 5\n")
    assert cli_main(["sweep", str(narrow), "--out-dir",
                     str(tmp_path / "narrow")]) == 2
    assert not (tmp_path / "narrow").exists()

    out2 = tmp_path / "spectra"
    assert cli_main(["spectra", "--n", "48", "--out-dir", str(out2)]) == 0
    header, *rows = read_rows(out2 / "spectrum.csv")
    assert header == ["real", "imag"] and len(rows) == 48
    assert (out2 / "spectrum_histogram.txt").read_text().count("\n") == 20


def test_cli_spectra_x_d_probes_the_scaled_system(tmp_path, capsys):
    """x_d preconditions D^{-1/2} A D^{-1/2}; on the unscaled A the same
    preconditioner clusters 68.8% of the eigenvalues."""
    out = tmp_path / "spectra"
    assert cli_main(["spectra", "--n", "64", "--config", "R", "--precond",
                     "x_d", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == (
        "preconditioner R_D: 75.0% of eigenvalues within 0.1 of 1; "
        f"histogram -> {out / 'spectrum_histogram.txt'}\n"
    )


@pytest.mark.parametrize("flags,message", [
    (["--alpha", "-1"], "alpha must be finite and positive, got -1.0"),
    (["--beta", "nan"], "beta must be finite and positive, got nan"),
])
def test_cli_spectra_names_a_bad_setting(tmp_path, capsys, flags, message):
    out = tmp_path / "spectra"
    assert cli_main(["spectra", "--n", "48", *flags,
                     "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["restore", "--n", "0", "--alpha", "1e-3", "--beta", "0.1"],
    ["restore", "--dim", "2", "--n", "0", "--alpha", "1e-3", "--beta", "0.1"],
    ["gen", "--n", "0"],
    ["spectra", "--n", "0"],
])
def test_cli_names_n_below_the_smallest_grid(tmp_path, capsys, argv):
    """n = 0 implies half-width 0; the error names n, not the psf."""
    out = tmp_path / "out"
    assert cli_main([*argv, "--out-dir", str(out)]) == 2
    assert "n must be at least 32, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("psf_m = -1", "psf_half_width must be at least 1, got -1"),
    ("seed = -1", "seed must be nonnegative, got -1"),
    ("inner_tol = -1", "inner_tol must be finite and positive, got -1.0"),
    ("inner_max = 0", "inner_max must be at least 1, got 0"),
    ("fp_tol = -1", "fp_tol must be finite and positive, got -1.0"),
    ("fp_max = 0", "fp_max must be at least 1, got 0"),
])
def test_cli_sweep_names_a_negative_setting(tmp_path, capsys, line, message):
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("dimension = 1\nn = 64\nalpha = 1e-2\nbeta = 0.1\n"
                   f"config = R\nprecond = none\n{line}\n")
    out = tmp_path / "out"
    assert cli_main(["sweep", str(cfg), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_names_n_below_the_smallest_grid(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("dimension = 1\nn = 0\nalpha = 1e-2\nbeta = 0.1\n"
                   "config = R\nprecond = none\n")
    out = tmp_path / "out"
    assert cli_main(["sweep", str(cfg), "--out-dir", str(out)]) == 2
    assert "n must be at least 32, got 0" in capsys.readouterr().err
    assert not out.exists()


# modules the package uses none of; each is a large share of a cold start
_UNUSED_AT_IMPORT = ("scipy.signal", "scipy.stats", "scipy.fft",
                     "scipy.sparse", "scipy.special", "numpy.f2py")

#: the two scipy extension modules the package loads from their files
_BINDINGS = (transforms._BINDING_NAME, tv._BINDING_NAME)

# after the import, one spectra run (its arguments are the script's): the
# exit code, then every scipy module loaded but the two bindings
_IMPORT_CLI = f"""
import contextlib, io, sys
import tvdeblur.cli
print(" ".join(m for m in {_UNUSED_AT_IMPORT!r} if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    print(tvdeblur.cli.main(sys.argv[1:]), file=sys.stderr)
print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"
               and m not in {_BINDINGS!r}))
"""


def test_cli_import_leaves_out_unused_scipy_and_numpy_packages(tmp_path):
    """scipy.signal (which loads scipy.stats), the scipy.fft package
    (scipy.special, numpy.f2py) and the scipy.sparse package would be most
    of a cold start's import time; the package convolves in numpy and
    loads pocketfft's and sparsetools' bindings from their files instead.  A spectra run adds no scipy module either: its
    eigenvalues come from numpy, not ``scipy.linalg``."""
    argv = ["spectra", "--n", "48", "--out-dir", str(tmp_path / "spectra")]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0\n"
    assert proc.stdout.splitlines() == ["", ""]


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tvdeblur.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
