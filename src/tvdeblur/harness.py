"""Benchmark harness: test-problem generation, parameter sweeps, file output.

The harness reproduces a deblurring benchmark protocol at desk scale:

1. generate a deterministic piecewise test signal (or synthetic image) on an
   extended grid, so the observed data comes from *real* out-of-domain
   samples rather than from any boundary assumption;
2. blur it with an out-of-focus or Gaussian kernel (exact convolution of the
   extended truth, cropped to the field of view) and add seeded Gaussian
   noise with a prescribed noise-to-signal ratio;
3. run restorations over a grid of (configuration, alpha, beta, n,
   preconditioner) cells and emit CSV tables, RRE-versus-alpha curves, a
   per-cell JSON-lines log, and restored outputs (two-column CSV in 1D,
   8-bit PGM in 2D).

Noise uses ``numpy.random.Generator(PCG64(seed))`` with
``standard_normal`` -- a named, portable 64-bit generator whose streams are
stable across platforms -- so a fixed seed reproduces observations bit for
bit.  Cells that fail to converge (or raise a ``NumericalFailure``) are
recorded as ``*`` in the tables, with their reason in ``cells.jsonl``, and
never abort a sweep.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blur import SymmetricPsf, convolve_valid
from .krylov import (ConfigurationError, KrylovConfig, NumericalFailure,
                     check_settings)
from .pipeline import (CONFIGURATIONS, PrecondSelector, RestorationConfig,
                       RestorationReport, restore, unconverged_reason)

TABLE_HEADER = ("config", "alpha", "beta", "n", "fp_steps", "avg_inner", "rre")

#: dimension -> the benchmark kernel of that dimension
PSF_KINDS = {1: "out_of_focus", 2: "gaussian"}

#: dimension -> the value of each ``BenchmarkSpec`` setting left None
DIMENSION_DEFAULTS = {
    1: dict(psf_kind=PSF_KINDS[1], fp_tol=1e-3, inner_tol=1e-6, inner_max=1000),
    2: dict(psf_kind=PSF_KINDS[2], fp_tol=1e-4, inner_tol=1e-5, inner_max=2000),
}


def default_half_width(n: int, dimension: int = 1) -> int:
    """Kernel half-width scaling with the grid.

    1D out-of-focus blur uses ceil(n / 20); the 2D Gaussian benchmark uses
    the wider ceil(n / 8) (its default width sigma = m / 2 keeps the kernel
    well resolved).
    """
    return math.ceil(n / 20) if dimension == 1 else math.ceil(n / 8)


# ---------------------------------------------------------------------------
# benchmark inputs
# ---------------------------------------------------------------------------


def _check_grid(n: int, m: int) -> None:
    """The generators' bounds on the grid n and the kernel half-width m."""
    if n < 32:
        raise ConfigurationError(f"n must be at least 32, got {n}")
    check_settings(("half-width m", m, "integer >= 0"))
    if m >= n / 4:
        raise ConfigurationError(f"half-width m={m} must be below n/4 = "
                                 f"{n / 4:g} for n={n}")


def gen_signal_1d(n: int, m: int) -> tuple[np.ndarray, slice]:
    """Deterministic piecewise test signal sampled on an extended grid.

    The underlying function on [0, 1] rises linearly from 0.2 to 0.65 over
    [0, 0.15), carries a box of height 1.5 on [0.2, 0.35) (a jump up and a
    jump down), a linear ramp from 0.2 to 1.2 on [0.45, 0.7), and falls
    linearly from 1.3 to 0.5 over [0.8, 1], with linear interpolation
    between segments.  Both boundary values are nonzero and both boundary
    segments have strong nonzero slope: value differences separate the
    zero-padding extensions from the mirroring ones, slope differences
    separate plain reflection (which kinks the signal) from anti-reflection
    (exact on linear data).

    Returns the extended signal of length ``n + 2 m`` (sampled at cell
    midpoints) and the field-of-view slice of length ``n``.
    """
    _check_grid(n, m)
    total = n + 2 * m
    x = (np.arange(1, total + 1) - 0.5) / total
    baseline_x = np.array([0.0, 0.15, 0.45, 0.70, 0.80, 1.0])
    baseline_y = np.array([0.2, 0.65, 0.2, 1.2, 1.3, 0.5])
    u = np.interp(x, baseline_x, baseline_y)
    box = (x >= 0.2) & (x < 0.35)
    u[box] = 1.5
    return u, slice(m, m + n)


def gen_image_2d(n: int, m: int) -> tuple[np.ndarray, tuple[slice, slice]]:
    """Deterministic synthetic image: gradient background, bright disk,
    rectangle.  Nonzero along every border.  Returns the extended
    ``(n + 2m) x (n + 2m)`` image and the field-of-view slices.
    """
    _check_grid(n, m)
    total = n + 2 * m
    coord = (np.arange(1, total + 1) - 0.5) / total
    yy, xx = np.meshgrid(coord, coord, indexing="ij")
    img = 0.25 + 0.45 * xx + 0.20 * yy
    disk = (xx - 0.35) ** 2 + (yy - 0.40) ** 2 <= 0.18 ** 2
    img[disk] = 1.4
    rect = (xx >= 0.55) & (xx <= 0.85) & (yy >= 0.55) & (yy <= 0.80)
    img[rect] = 1.0
    fov = slice(m, m + n)
    return img, (fov, fov)


def gen_psf(kind: str, m: int, sigma: float | None = None) -> SymmetricPsf:
    """Named benchmark kernels.

    ``out_of_focus``: constant on ``|i| < m`` and zero at ``|i| = m`` (the
    strict inequality leaves zero end taps), normalized.  ``gaussian``:
    ``exp(-(i^2 + j^2) / (2 sigma^2))`` truncated to ``[-m, m]^2``,
    normalized; a sigma whose square underflows to 0 is rejected, and one
    whose ``1 / (2 sigma^2)`` overflows gives the one-tap kernel.
    """
    check_settings(("psf half-width", m, "integer >= 1"))
    if kind == "out_of_focus":
        idx = np.arange(-m, m + 1)
        h = np.where(np.abs(idx) < m, 1.0, 0.0)
        return SymmetricPsf(h / h.sum())
    if kind == "gaussian":
        check_settings(("gaussian psf sigma", sigma, "real > 0"))
        idx = np.arange(-m, m + 1, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g = np.exp(-(idx[:, None] ** 2 + idx[None, :] ** 2)
                       / (2.0 * sigma * sigma))
        if not np.all(np.isfinite(g)):
            raise ConfigurationError(f"gaussian psf sigma {float(sigma)!r} is "
                                     "too small: its square underflows")
        return SymmetricPsf(g / g.sum())
    raise ConfigurationError(f"unknown psf kind {kind!r}")


def blur_and_observe(u_extended: np.ndarray, psf: SymmetricPsf, n: int,
                     nsr: float, seed: int) -> np.ndarray:
    """Exact blur of the extended truth plus seeded noise at the given NSR.

    The clean observation is the valid convolution of the extended signal,
    so no boundary model enters the data; ``convolve_valid`` runs it by the
    kernel's two axis factors when the kernel is separable, as the
    Gaussian is.  Noise is white Gaussian rescaled to
    ``||noise|| = nsr * ||clean||`` exactly; a ratio so large that the
    noisy data overflow is rejected.
    """
    check_settings(("noise-to-signal ratio", nsr, "real >= 0"))
    u_extended = np.asarray(u_extended, dtype=float)
    clean = convolve_valid(u_extended, psf.coefficients)
    expected = (n,) * psf.ndim
    if clean.shape != expected:
        raise ConfigurationError(
            f"extended input of shape {u_extended.shape} does not crop to "
            f"{expected} under half-width {psf.half_width}"
        )
    if nsr == 0:
        return clean
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal(clean.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        noise = g * (nsr * np.linalg.norm(clean.ravel())
                     / np.linalg.norm(g.ravel()))
        observed = clean + noise
    if not np.all(np.isfinite(observed)):
        raise ConfigurationError(f"noise-to-signal ratio {float(nsr)!r} "
                                 "overflows the noisy data")
    return observed


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSpec:
    """One sweep: the cross product of the listed axes, in listed order.

    A setting left None takes ``DIMENSION_DEFAULTS``.  The frozen spec checks
    its own fields, and the ``RestorationConfig`` it builds for each (alpha,
    beta) pair checks alpha, beta, fp_tol and fp_max."""

    dimension: int = 1
    ns: tuple[int, ...] = (203,)
    alphas: tuple[float, ...] = (1e-3,)
    betas: tuple[float, ...] = (0.1,)
    configurations: tuple[str, ...] = ("R",)
    preconditioners: tuple[str, ...] = ("x_d",)
    nsr: float = 0.01
    seed: int = 2023
    psf_kind: str | None = None
    psf_half_width: int | None = None  # None: default_half_width(n, dimension)
    psf_sigma: float | None = None
    fp_tol: float | None = None
    fp_max: int = 100
    inner_tol: float | None = None
    inner_max: int | None = None
    save_restored: bool = True

    def __post_init__(self) -> None:
        check_settings(("dimension", self.dimension, "integer"))
        if self.dimension not in (1, 2):
            raise ConfigurationError("dimension must be 1 or 2")
        for name, default in DIMENSION_DEFAULTS[self.dimension].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        check_settings(*[("n", n, "integer") for n in self.ns],
                       ("seed", self.seed, "integer >= 0"),
                       ("inner_max", self.inner_max, "integer >= 1"),
                       ("nsr", self.nsr, "real >= 0"),
                       ("inner_tol", self.inner_tol, "real > 0"))
        if self.psf_half_width is not None:
            check_settings(("psf_half_width", self.psf_half_width, "integer >= 1"))
        for axis in ("ns", "alphas", "betas", "configurations", "preconditioners"):
            if not getattr(self, axis):
                raise ConfigurationError(f"sweep axis {axis!r} is empty")
        selectors = {s.value for s in PrecondSelector}
        unknown = [p for p in self.preconditioners if p not in selectors]
        if unknown:
            raise ConfigurationError(f"unknown preconditioner selectors: {unknown}")
        if self.psf_kind != PSF_KINDS[self.dimension]:
            raise ConfigurationError(
                f"psf kind {self.psf_kind!r} does not fit dimension "
                f"{self.dimension}: {self.dimension}D sweeps use the "
                f"{PSF_KINDS[self.dimension]!r} psf"
            )
        if self.psf_sigma is not None:
            if self.dimension == 1:
                raise ConfigurationError(
                    f"psf_sigma is the width of the 2D gaussian psf; 1D sweeps "
                    f"use the {PSF_KINDS[1]!r} psf, which takes none")
            check_settings(("psf_sigma", self.psf_sigma, "real > 0"))
        for label, alpha, beta in itertools.product(self.configurations,
                                                    self.alphas, self.betas):
            self.restoration_config(label, self.preconditioners[0], alpha, beta)

    def resolve_half_width(self, n: int) -> int:
        return self.psf_half_width if self.psf_half_width is not None \
            else default_half_width(n, self.dimension)

    def restoration_config(self, config_label: str, selector: str,
                           alpha: float, beta: float) -> RestorationConfig:
        """The restore settings of one cell, with this spec's tolerances:
        the one place that resolves a ``CONFIGURATIONS`` label."""
        if config_label not in CONFIGURATIONS:
            raise ConfigurationError(
                f"unknown configuration label {config_label!r}; the known "
                f"labels are {', '.join(CONFIGURATIONS)}")
        bc_h, bc_l, formulation, _ = CONFIGURATIONS[config_label]
        return RestorationConfig(
            bc_h=bc_h,
            bc_l=bc_l,
            formulation=formulation,
            preconditioner=PrecondSelector(selector),
            alpha=alpha,
            beta=beta,
            fp_tol=self.fp_tol,
            fp_max=self.fp_max,
            inner=KrylovConfig(tol=self.inner_tol, max_iterations=self.inner_max),
        )


@dataclass
class SweepCell:
    config: str
    alpha: float
    beta: float
    n: int
    preconditioner: str
    report: RestorationReport | None
    failure: str | None = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return (self.report is not None and self.report.fp_converged
                and self.report.inner_converged)

    @property
    def status(self) -> str:
        """``ok``; ``unconverged`` (a report, not converged); ``starred``
        (a numerical failure, no report)."""
        if self.report is None:
            return "starred"
        return "ok" if self.ok else "unconverged"

    def record(self) -> dict:
        """The cell as one JSON-ready record, failure reason included."""
        rep = self.report
        return {
            "config": self.config, "selector": self.preconditioner,
            "alpha": self.alpha, "beta": self.beta, "n": self.n,
            "status": self.status, "reason": self.failure,
            "fp_steps": rep.fp_steps if rep else 0,
            "inner_iterations": rep.inner_iterations if rep else [],
            "rre": rep.rre if rep else None,
            "wall_time": self.wall_time,
        }

    def row(self) -> tuple:
        label = f"{self.config}/{self.preconditioner}"
        if not self.ok:
            return (label, self.alpha, self.beta, self.n, "*", "*", "*")
        rep = self.report
        return (label, self.alpha, self.beta, self.n, rep.fp_steps,
                rep.avg_inner, rep.rre)


@dataclass
class SweepResult:
    spec: BenchmarkSpec
    cells: list[SweepCell]
    alpha_opt: dict[str, float] = field(default_factory=dict)
    min_rre: dict[str, float] = field(default_factory=dict)


def make_problem(spec: BenchmarkSpec, n: int):
    """(psf, observed data, true field-of-view data) for one grid size.

    The data come first, so that a grid size below the generators' minimum
    is reported as such and not as the half-width it implies.
    """
    m = spec.resolve_half_width(n)
    if spec.dimension == 1:
        extended, fov = gen_signal_1d(n, m)
        psf = gen_psf(spec.psf_kind, m)
    else:
        extended, fov = gen_image_2d(n, m)
        sigma = spec.psf_sigma if spec.psf_sigma is not None else max(m / 2.0, 1.0)
        psf = gen_psf(spec.psf_kind, m, sigma)
    u_true = extended[fov]
    observed = blur_and_observe(extended, psf, n, spec.nsr, spec.seed)
    return psf, observed, u_true


def run_cell(spec: BenchmarkSpec, config_label: str, alpha: float, beta: float,
             n: int, selector_label: str, problem) -> SweepCell:
    """Run one cell on ``make_problem(spec, n)``; numerical failures are starred."""
    psf, observed, u_true = problem
    config = spec.restoration_config(config_label, selector_label, alpha, beta)
    started = time.perf_counter()
    try:
        report = restore(observed, psf, config, u_true=u_true)
    except NumericalFailure as exc:
        return SweepCell(config_label, alpha, beta, n, selector_label,
                         report=None, failure=str(exc),
                         wall_time=time.perf_counter() - started)
    return SweepCell(config_label, alpha, beta, n, selector_label,
                     report=report, failure=unconverged_reason(report, config),
                     wall_time=time.perf_counter() - started)


def run_sweep(spec: BenchmarkSpec, out_dir=None) -> SweepResult:
    """Run every cell of the sweep and (optionally) write result files.

    Cells run in spec order and the CSV rows follow that order, so a fixed
    spec and seed give byte-identical outputs.
    """
    cells: list[SweepCell] = []
    problems = {n: make_problem(spec, n) for n in spec.ns}
    if out_dir is not None:
        out_dir = make_out_dir(out_dir)
    for config_label in spec.configurations:
        for n in spec.ns:
            for beta in spec.betas:
                for alpha in spec.alphas:
                    for selector in spec.preconditioners:
                        cells.append(run_cell(
                            spec, config_label, alpha, beta, n, selector,
                            problem=problems[n],
                        ))
    result = SweepResult(spec=spec, cells=cells)

    # RRE-versus-alpha summary per configuration: the best RRE over every
    # n, beta and selector of it
    for config_label in spec.configurations:
        best_alpha, best_rre = None, None
        for cell in cells:
            if cell.config != config_label or not cell.ok:
                continue
            if cell.report.rre is not None and \
                    (best_rre is None or cell.report.rre < best_rre):
                best_alpha, best_rre = cell.alpha, cell.report.rre
        if best_alpha is not None:
            result.alpha_opt[config_label] = best_alpha
            result.min_rre[config_label] = best_rre

    if out_dir is not None:
        _write_sweep_files(spec, result, problems, out_dir)
    return result


def _cell_stem(cell: SweepCell) -> str:
    config = cell.config.replace("+", "_")
    alpha, beta = float(cell.alpha), float(cell.beta)
    return (f"restored_{config}_a{alpha!r}_b{beta!r}_n{cell.n}"
            f"_{cell.preconditioner}")


def _write_sweep_files(spec: BenchmarkSpec, result: SweepResult, problems,
                       out_dir: Path) -> None:
    table = out_dir / "iterations.csv"
    write_csv(table, TABLE_HEADER, [cell.row() for cell in result.cells])

    curve = out_dir / "rre_vs_alpha.csv"
    rows = [
        (cell.config, cell.preconditioner, cell.alpha, cell.beta, cell.n,
         cell.report.rre if cell.ok else "*")
        for cell in result.cells
    ]
    write_csv(curve, ("config", "preconditioner", "alpha", "beta", "n", "rre"),
              rows)

    with open(out_dir / "cells.jsonl", "w", encoding="ascii") as fh:
        for cell in result.cells:
            fh.write(json.dumps(cell.record()) + "\n")

    if spec.save_restored:
        for cell in result.cells:
            if cell.ok:
                write_field(out_dir / _cell_stem(cell), cell.report.restored,
                            problems[cell.n][2])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def make_out_dir(path) -> Path:
    """Create the output directory ``path`` and its parents, before any
    work that writes there; one that cannot be created raises
    ``ConfigurationError`` ``<path>: <reason>``."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror}") from None
    return path


def write_csv(path, header, rows) -> None:
    """RFC-4180-style CSV with '.' decimals and \\n line endings."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_field(x) for x in row])


def write_field(stem, u: np.ndarray, u_true: np.ndarray,
                column: str = "u") -> None:
    """Write a 1D field to ``stem.csv`` as (x, column) rows at the cell
    midpoints, a 2D one to ``stem.pgm`` scaled from ``u_true``'s range."""
    if u.ndim == 1:
        x = (np.arange(u.shape[0]) + 0.5) / u.shape[0]
        write_csv(f"{stem}.csv", ("x", column), list(zip(x, u)))
    else:
        write_pgm(f"{stem}.pgm", u, lo=float(u_true.min()),
                  hi=float(u_true.max()))


def _format_field(x):
    # np.float64 is a float subclass whose repr is "np.float64(...)"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return int(x)
    return x


def write_pgm(path, image: np.ndarray, lo: float, hi: float) -> None:
    """8-bit binary PGM; values affinely mapped from [lo, hi] and clipped."""
    image = np.asarray(image, dtype=float)
    if hi <= lo:
        raise ConfigurationError("affine scaling needs hi > lo")
    scaled = np.clip((image - lo) / (hi - lo) * 255.0, 0.0, 255.0)
    data = np.round(scaled).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# sweep config files (key = value, comma-separated lists)
# ---------------------------------------------------------------------------

_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _flag(text: str) -> bool:
    try:
        return _FLAGS[text.lower()]
    except KeyError:
        raise ConfigurationError(f"expected one of {'/'.join(_FLAGS)}, "
                                 f"got {text!r}") from None


def _items(parse):
    return lambda text: tuple(parse(item.strip()) for item in text.split(",")
                              if item.strip())


#: sweep file key -> (BenchmarkSpec field, value parser)
_SWEEP_KEYS = {
    "dimension": ("dimension", int),
    "n": ("ns", _items(int)),
    "alpha": ("alphas", _items(float)),
    "beta": ("betas", _items(float)),
    "config": ("configurations", _items(str)),
    "precond": ("preconditioners", _items(str)),
    "nsr": ("nsr", float),
    "seed": ("seed", int),
    "psf_m": ("psf_half_width", int),
    "psf_sigma": ("psf_sigma", float),
    "fp_tol": ("fp_tol", float),
    "fp_max": ("fp_max", int),
    "inner_tol": ("inner_tol", float),
    "inner_max": ("inner_max", int),
    "save_restored": ("save_restored", _flag),
}


def parse_sweep_config(path) -> BenchmarkSpec:
    """Parse the plain-text sweep format: ``key = value`` lines.

    Lists are comma separated; ``#`` starts a comment; a repeated key keeps
    its last value.  A key missing from ``_SWEEP_KEYS`` is an error.
    """
    try:
        lines = Path(path).read_bytes().splitlines()
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror}") from None
    kwargs = {}
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("ascii").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        name, parse = _SWEEP_KEYS[key]
        try:
            kwargs[name] = parse(value.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: bad value for {key!r}: {exc}"
            ) from exc
    return BenchmarkSpec(**kwargs)
