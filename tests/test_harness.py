import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import convolve2d

from tvdeblur import harness
from tvdeblur.blur import load_psf
from tvdeblur.cli import main as cli_main
from tvdeblur.harness import (
    BenchmarkSpec,
    TABLE_HEADER,
    blur_and_observe,
    gen_image_2d,
    gen_psf,
    gen_signal_1d,
    parse_sweep_config,
    read_csv,
    read_pgm,
    run_sweep,
    write_csv,
    write_pgm,
)


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


def test_gen_psf_errors():
    with pytest.raises(ValueError):
        gen_psf("out_of_focus", 0)
    with pytest.raises(ValueError):
        gen_psf("gaussian", 2)
    with pytest.raises(ValueError):
        gen_psf("motion", 2)


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


@given(nsr=st.floats(1e-6, 0.5))
def test_observe_noise_ratio_is_exact(nsr):
    u, _ = gen_signal_1d(64, 4)
    psf = gen_psf("out_of_focus", 4)
    clean = blur_and_observe(u, psf, 64, nsr=0.0, seed=3)
    noisy = blur_and_observe(u, psf, 64, nsr=nsr, seed=3)
    ratio = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
    assert abs(ratio - nsr) < 1e-12


# -- file formats -----------------------------------------------------------------


def test_pgm_round_trip(tmp_path, rng):
    img = rng.uniform(-1.0, 3.0, size=(17, 17))
    path = tmp_path / "img.pgm"
    write_pgm(path, img, lo=-1.0, hi=3.0)
    data = read_pgm(path)
    assert data.dtype == np.uint8 and data.shape == (17, 17)
    write_pgm(tmp_path / "again.pgm", data.astype(float), lo=0.0, hi=255.0)
    np.testing.assert_array_equal(read_pgm(tmp_path / "again.pgm"), data)


def test_pgm_clipping(tmp_path):
    img = np.array([[-10.0, 0.0], [1.0, 10.0]])
    path = tmp_path / "clip.pgm"
    write_pgm(path, img, lo=0.0, hi=1.0)
    np.testing.assert_array_equal(read_pgm(path),
                                  [[0, 0], [255, 255]])


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), ("*", 2.0)])
    text = path.read_text()
    assert text == "a,b\n1,0.5\n*,2.0\n"
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows == [["1", "0.5"], ["*", "2.0"]]


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
    header, rows = read_csv(tmp_path / "iterations.csv")
    assert tuple(header) == TABLE_HEADER
    assert len(rows) == 4
    assert "R" in result.alpha_opt and "AR+Reblur+AR" in result.alpha_opt
    restored = sorted(p.name for p in tmp_path.glob("restored_*.csv"))
    assert len(restored) == 4
    header2, rows2 = read_csv(tmp_path / restored[0])
    assert header2 == ["x", "u"] and len(rows2) == 64


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
    header, rows = read_csv(tmp_path / "iterations.csv")
    assert rows[0][4:] == ["*", "*", "*"]


def test_sweep_2d_writes_pgm(tmp_path):
    spec = BenchmarkSpec(
        dimension=2, ns=(32,), alphas=(1e-2,), betas=(0.01,),
        configurations=("R",), preconditioners=("x_d",),
        nsr=0.001, seed=5, psf_kind="gaussian", psf_half_width=3,
        psf_sigma=1.5,
    )
    result = run_sweep(spec, out_dir=tmp_path)
    assert result.cells[0].ok
    pgms = list(tmp_path.glob("restored_*.pgm"))
    assert len(pgms) == 1
    assert read_pgm(pgms[0]).shape == (32, 32)


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchmarkSpec(dimension=3)
    with pytest.raises(ValueError):
        BenchmarkSpec(configurations=("bogus",))
    with pytest.raises(ValueError):
        BenchmarkSpec(preconditioners=("bogus",))
    with pytest.raises(ValueError):
        BenchmarkSpec(dimension=2)  # 2D needs the gaussian psf


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


# -- CLI ----------------------------------------------------------------------------


def test_cli_gen_and_restore(tmp_path):
    out = tmp_path / "gen"
    code = cli_main(["gen", "--n", "64", "--out-dir", str(out)])
    assert code == 0
    assert (out / "true.csv").exists()
    assert (out / "observed.csv").exists()
    assert load_psf(out / "psf.txt").half_width == 4

    out2 = tmp_path / "run"
    code = cli_main([
        "restore", "--n", "64", "--bc", "reflective", "--precond", "x_d",
        "--alpha", "1e-3", "--beta", "0.1", "--out-dir", str(out2),
    ])
    assert code == 0
    assert (out2 / "restored.csv").exists()
    report = (out2 / "report.txt").read_text()
    assert "rre:" in report and "fp_steps:" in report


def test_cli_exit_code_on_configuration_error(tmp_path):
    code = cli_main([
        "restore", "--n", "64", "--bc", "reflective", "--formulation",
        "reblur", "--alpha", "1e-3", "--beta", "0.1",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2


def test_cli_exit_code_on_nonconvergence(tmp_path):
    code = cli_main([
        "restore", "--n", "64", "--bc", "reflective", "--alpha", "1e-3",
        "--beta", "0.1", "--fp-max", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 3


def test_cli_sweep_and_spectra(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "dimension = 1\nn = 64\nalpha = 1e-3\nbeta = 0.1\n"
        "config = R\nprecond = x_d\nseed = 3\nsave_restored = false\n"
    )
    out = tmp_path / "sweep"
    assert cli_main(["sweep", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "iterations.csv").exists()

    out2 = tmp_path / "spectra"
    assert cli_main(["spectra", "--n", "48", "--out-dir", str(out2)]) == 0
    header, rows = read_csv(out2 / "spectrum.csv")
    assert header == ["real", "imag"] and len(rows) == 48
    assert (out2 / "spectrum_histogram.txt").read_text().count("\n") >= 10


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tvdeblur.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
