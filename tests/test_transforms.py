import importlib.machinery
import importlib.util
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    dense_ar,
    dense_dct,
    dense_dst1,
    dense_sinehat,
    dense_transform,
    kron_apply_2d,
    parity_layout,
    scipy_apply_1d,
)
from tvdeblur import transforms, tv
from tvdeblur.transforms import (
    TransformKind,
    apply_1d,
    tensor_apply_2d,
)

DCT, DST1 = TransformKind.DCT, TransformKind.DST1
AR, SINE_HAT = TransformKind.ANTI_REFLECTIVE, TransformKind.SINE_HAT

SIZES = (4, 8, 16, 33, 64)

finite_vectors = arrays(
    float, st.integers(min_value=3, max_value=40),
    elements=st.floats(-1e3, 1e3, allow_nan=False),
)


def test_dst1_zero_vector():
    assert np.all(apply_1d(DST1, np.zeros(7)) == 0.0)


def test_dst1_n2_frozen():
    # dense S_2 = [[1/sqrt2, 1/sqrt2], [1/sqrt2, -1/sqrt2]]
    out = apply_1d(DST1, np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [np.sqrt(2.0), 0.0], atol=1e-14)


def test_dst1_basis_column():
    e1 = np.zeros(8)
    e1[0] = 1.0
    np.testing.assert_allclose(apply_1d(DST1, e1), dense_dst1(8)[:, 0], atol=1e-14)


def test_dct_first_basis_vector():
    for n in (5, 12):
        e1 = np.zeros(n)
        e1[0] = 1.0
        np.testing.assert_allclose(apply_1d(DCT, e1), np.full(n, np.sqrt(1.0 / n)),
                                   atol=1e-14)


def test_dct_round_trip(rng):
    v = rng.standard_normal(16)
    np.testing.assert_allclose(apply_1d(DCT, apply_1d(DCT, v), inverse=True), v,
                               atol=1e-12)
    assert np.all(apply_1d(DCT, np.zeros(9)) == 0.0)


def test_ar_first_column_is_linear_ramp():
    n = 10
    e1 = np.zeros(n)
    e1[0] = 1.0
    expected = np.zeros(n)
    expected[0] = 1.0
    expected[1:-1] = 1.0 - np.arange(1, n - 1) / (n - 1)
    np.testing.assert_allclose(apply_1d(AR, e1), expected, atol=1e-12)


def test_ar_last_column_mirrors_first():
    n = 9
    en = np.zeros(n)
    en[-1] = 1.0
    np.testing.assert_allclose(apply_1d(AR, en), dense_ar(n)[:, -1], atol=1e-12)


def test_ar_round_trip(rng):
    v = rng.standard_normal(16)
    np.testing.assert_allclose(apply_1d(AR, apply_1d(AR, v), inverse=True), v,
                               atol=1e-10)


@pytest.mark.parametrize("n", [3, 4, 8, 16, 33, 64])
def test_dense_rebuild_identities(n):
    s = dense_dst1(n)
    c = dense_dct(n)
    assert np.linalg.norm(s @ s - np.eye(n)) < 1e-10
    assert np.linalg.norm(c @ c.T - np.eye(n)) < 1e-10
    t = dense_ar(n)
    assert np.linalg.norm(t @ np.linalg.inv(t) - np.eye(n)) < 1e-10


@pytest.mark.parametrize("n", SIZES)
def test_fast_applies_match_dense(n, rng):
    v = rng.standard_normal(n)
    scale = np.linalg.norm(v)
    np.testing.assert_allclose(apply_1d(DST1, v), dense_dst1(n) @ v,
                               atol=1e-10 * scale)
    c = dense_dct(n)
    np.testing.assert_allclose(apply_1d(DCT, v), c @ v, atol=1e-10 * scale)
    np.testing.assert_allclose(apply_1d(DCT, v, inverse=True), c.T @ v,
                               atol=1e-10 * scale)
    t = dense_ar(n)
    t_inv = np.linalg.inv(t)
    np.testing.assert_allclose(apply_1d(AR, v), t @ v, atol=1e-10 * scale)
    np.testing.assert_allclose(apply_1d(AR, v, inverse=True), t_inv @ v,
                               atol=1e-10 * scale)
    np.testing.assert_allclose(apply_1d(AR, v, transpose=True), t.T @ v,
                               atol=1e-10 * scale)
    np.testing.assert_allclose(apply_1d(AR, v, inverse=True, transpose=True),
                               t_inv.T @ v, atol=1e-10 * scale)
    np.testing.assert_allclose(apply_1d(SINE_HAT, v), dense_sinehat(n) @ v,
                               atol=1e-10 * scale)


def test_tensor_zero_grid():
    for kind in TransformKind:
        assert np.all(tensor_apply_2d(kind, np.zeros((6, 6))) == 0.0)


def test_tensor_rank_one(rng):
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    for kind in TransformKind:
        got = tensor_apply_2d(kind, np.outer(a, b))
        expected = np.outer(apply_1d(kind, a), apply_1d(kind, b))
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_tensor_dst1_involution(rng):
    g = rng.standard_normal((8, 8))
    np.testing.assert_allclose(
        tensor_apply_2d(TransformKind.DST1, tensor_apply_2d(TransformKind.DST1, g)),
        g, atol=1e-12)


def test_tensor_ar_round_trip(rng):
    g = rng.standard_normal((9, 9))
    kind = TransformKind.ANTI_REFLECTIVE
    np.testing.assert_allclose(
        tensor_apply_2d(kind, tensor_apply_2d(kind, g), inverse=True), g,
        atol=1e-10)


# both sides of the 2D product bound n = 144, the smallest legal sizes and
# the prime-adjacent lengths around 128
TENSOR_SIZES = (3, 4, 5, 64, 127, 128, 129, 144, 145)
FLAGS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("n", TENSOR_SIZES)
def test_tensor_apply_matches_per_axis_and_kronecker(n, rng):
    g = rng.standard_normal((n, n))

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    for kind in TransformKind:
        for inverse, transpose in FLAGS:
            got = tensor_apply_2d(kind, g, inverse=inverse, transpose=transpose)
            per_axis = apply_1d(kind, apply_1d(kind, g.T, inverse, transpose).T,
                                inverse, transpose)
            x = dense_transform(kind, n, inverse, transpose)
            # the explicit Kronecker product costs n^4; past n = 64 use the
            # identity (X kron X) vec(G) = vec(X G X^T) on the oracle matrix
            oracle = kron_apply_2d(x, g) if n <= 64 else x @ g @ x.T
            what = f"{kind.name} inverse={inverse} transpose={transpose} n={n}"
            assert rel(got, per_axis) < 1e-13, what
            assert rel(got, oracle) < 1e-13, what


@pytest.mark.parametrize("n", TENSOR_SIZES)
def test_parity_apply_matches_the_dense_transforms(n, rng):
    """The half-size blocks, in the parity layout, are the oracle's dense
    transform: an analysis gives ``R (X G X^T) R^T`` and a synthesis of
    ``Y`` gives ``X (R^T Y R) X^T``, with ``R`` the oracle's parity map."""
    g = rng.standard_normal((n, n))

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    for kind in TransformKind:
        r = parity_layout(kind, n)
        for inverse, transpose in FLAGS:
            x = dense_transform(kind, n, inverse, transpose)
            got = transforms.parity_apply_2d(kind, g, inverse, transpose)
            if inverse == transpose:  # a synthesis: g is a parity spectrum
                want = x @ (r.T @ g @ r) @ x.T
            else:
                want = r @ (x @ g @ x.T) @ r.T
            assert rel(got, want) < 1e-13, \
                f"{kind.name} inverse={inverse} transpose={transpose} n={n}"


@pytest.mark.parametrize("n", [5, 128, 144])
def test_2d_applies_take_no_dense_product(n, rng):
    """In the product regime the 2D applies read the cached half-size
    blocks, never the n x n matrix of ``_matrix_1d``."""
    g = rng.standard_normal((n, n))
    lam = rng.uniform(0.5, 2.0, (n, n))
    calls = []
    for kind in TransformKind:
        for inverse, transpose in FLAGS:
            calls.append(lambda x, k=kind, i=inverse, t=transpose:
                         tensor_apply_2d(k, x, i, t))
        for transpose in (False, True):
            calls.append(transforms.tensor_diagonalized(kind, lam, transpose))
    for call in calls:
        call(g)  # fill the caches
    before = transforms._matrix_1d.cache_info()
    for call in calls:
        call(g)
    after = transforms._matrix_1d.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


# the smallest legal sizes, the prime-adjacent lengths around 128 and 256,
# the table1d length 203 with its anti-reflective interior 201, and a long
# smooth length
ORACLE_SIZES = (3, 4, 5, 126, 127, 128, 201, 203, 256, 257, 4096)


def _layouts(n, rng):
    """One vector, a (k, n) batch, and the transposed batch that the
    per-axis 2D path passes (strided, last axis not contiguous)."""
    yield "vector", rng.standard_normal(n)
    yield "batch", rng.standard_normal((5, n))
    yield "transposed batch", rng.standard_normal((n, 5)).T


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_apply_1d_keeps_the_bytes_of_scipy_fft(n, kind, inverse, transpose,
                                                rng):
    """The direct pocketfft calls give exactly the public scipy.fft result,
    and write nothing into the caller's array."""
    for layout, v in _layouts(n, rng):
        before = v.copy()
        got = apply_1d(kind, v, inverse=inverse, transpose=transpose)
        want = scipy_apply_1d(kind, v, inverse=inverse, transpose=transpose)
        assert np.array_equal(v, before), f"{layout}: input was written"
        assert got.dtype == np.float64 and got.shape == v.shape, layout
        assert np.array_equal(got, want), layout


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("n", (3, 4, 5, 126, 201, 203))
@pytest.mark.parametrize("rows", [None, 3], ids=["vector", "batch"])
def test_in_place_body_keeps_the_bytes_of_scipy_fft(rows, n, kind, inverse,
                                                    transpose, rng):
    """Each body, run in place on an offset view of a larger buffer (as
    the blur and preconditioner applies run it), gives exactly the public
    scipy.fft result and writes nothing outside the view."""
    lead = () if rows is None else (rows,)
    buffer = rng.standard_normal(lead + (n + 3,))
    view = buffer[..., 2:2 + n]
    v, outside = view.copy(), np.delete(buffer, np.s_[2:2 + n], axis=-1)
    out = transforms.body_1d(kind, inverse, transpose, n)(view, view)
    assert np.shares_memory(out, buffer) and out.shape == v.shape
    want = scipy_apply_1d(kind, v, inverse=inverse, transpose=transpose)
    assert np.array_equal(view, want)
    assert np.array_equal(np.delete(buffer, np.s_[2:2 + n], axis=-1),
                          outside)


@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("n", (5, 203))
def test_apply_1d_converts_input_as_scipy_fft_does(n, kind, rng, monkeypatch):
    """Unaligned, big-endian and integer input is converted to aligned
    native float64 before the C routine reads it."""
    binding = transforms._pocketfft

    def checked(transform):
        def call(x, *args):
            # some CPUs read unaligned memory without complaint, so a
            # missing copy would not show in the result
            assert x.dtype == np.float64 and x.dtype.isnative
            assert x.flags.aligned
            return transform(x, *args)
        return call

    monkeypatch.setattr(transforms, "_pocketfft", SimpleNamespace(
        dst=checked(binding.dst), dct=checked(binding.dct)))
    v = rng.standard_normal(n)
    raw = bytes(1) + v.tobytes()
    unaligned = np.frombuffer(raw, dtype=np.float64, count=n, offset=1)
    assert not unaligned.flags.aligned
    inputs = {
        "unaligned": unaligned,
        "big-endian": v.astype(">f8"),
        "integer": rng.integers(-50, 50, size=(3, n)),
    }
    for what, x in inputs.items():
        before = x.copy()
        for inverse, transpose in FLAGS:
            got = apply_1d(kind, x, inverse=inverse, transpose=transpose)
            want = scipy_apply_1d(kind, np.array(x, dtype=float),
                                  inverse=inverse, transpose=transpose)
            assert got.dtype == np.float64 and got.dtype.isnative, what
            assert np.array_equal(got, want), what
            assert np.array_equal(x, before), f"{what}: input was written"


_BINDING_ORDER = """
import sys
import numpy as np
if sys.argv[1] == "scipy.fft first":
    import scipy.fft
from tvdeblur import transforms
from tvdeblur.transforms import TransformKind, apply_1d
import scipy.fft
x = np.random.default_rng(5).standard_normal((4, 203))
pairs = {
    "dst": (apply_1d(TransformKind.DST1, x),
            scipy.fft.dst(x, type=1, norm="ortho")),
    "dct": (apply_1d(TransformKind.DCT, x),
            scipy.fft.idct(x, type=2, norm="ortho")),
    "idct": (apply_1d(TransformKind.DCT, x, inverse=True),
             scipy.fft.dct(x, type=2, norm="ortho")),
    "rfft": (transforms._rfft(x), scipy.fft.rfft(x, axis=-1)),
}
print(" ".join(k for k, (a, b) in pairs.items() if a.tobytes() != b.tobytes()))
"""


@pytest.mark.parametrize("order", ["scipy.fft first", "tvdeblur first"])
def test_binding_keeps_the_bytes_of_scipy_fft_in_either_import_order(order):
    """The binding loaded from its file and the one scipy.fft imports give
    the same bytes, whichever a fresh interpreter imports first."""
    proc = subprocess.run([sys.executable, "-c", _BINDING_ORDER, order],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("name", [transforms._BINDING_NAME, tv._BINDING_NAME])
@pytest.mark.parametrize("scipy_found", [False, True])
def test_loader_names_the_binding_it_cannot_find(scipy_found, name, tmp_path,
                                                 monkeypatch):
    """No scipy at all, or a scipy directory whose binding folder is empty:
    either way the ImportError names the binding, pocketfft's or
    sparsetools'."""
    spec = None
    if scipy_found:
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        tmp_path.joinpath(*name.split(".")[1:-1]).mkdir(parents=True)
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, package=None: spec)
    with pytest.raises(ImportError, match=name.rpartition(".")[2]) as err:
        transforms.load_scipy_binding(name)
    assert err.value.name == name


def test_rule_picks_products_by_length_and_batch():
    """One vector band takes products at the table1d lengths and the FFT
    above the vector bound; a batch or a 2D grid takes the FFT above 144."""
    assert transforms._takes_products(203, batched=False)
    assert transforms._takes_products(201, batched=False)
    assert not transforms._takes_products(512, batched=False)
    assert not transforms._takes_products(4096, batched=False)
    assert transforms._takes_products(144, batched=True)
    assert not transforms._takes_products(150, batched=True)
    # band_form follows it: a vector band at n = 203 reads a cached matrix
    before = transforms._band_products.cache_info()
    transforms.band_form(DCT, np.ones(202), 1, 203)
    after = transforms._band_products.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


def test_tensor_matrix_cache_is_read_only():
    for kind in TransformKind:
        for cached in (transforms._matrix_1d(kind, True, False, 8),
                       transforms._parity_blocks(kind, True, False, 8),
                       transforms.parity_order(kind, 8)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[(0,) * cached.ndim] = 1
    out = tensor_apply_2d(TransformKind.DCT, np.eye(8))
    assert out.flags.writeable and not np.shares_memory(
        out, transforms._matrix_1d(TransformKind.DCT, False, False, 8))


def test_per_size_caches_stay_bounded():
    """A sweep over many lengths keeps at most 16 sizes of correction
    columns, of dense matrices and of parity blocks and orders, and the
    columns stay read-only."""
    for n in range(3, 43):
        apply_1d(AR, np.ones(n))
        transforms._matrix_1d(DCT, False, False, n)
        transforms._parity_blocks(DCT, False, False, n)
        transforms.parity_order(DCT, n)
    for cache in (transforms._ar_corrections, transforms._matrix_1d,
                  transforms._parity_blocks, transforms.parity_order):
        assert cache.cache_info().currsize == 16
    assert not any(q.flags.writeable for q in transforms._ar_corrections(5))


def test_body_cache_stays_bounded():
    """The bodies hold their lengths' correction columns; a sweep over
    many lengths keeps 64 of them, four flag pairs for each of 16 sizes."""
    for n in range(3, 43):
        for inverse in (False, True):
            for transpose in (False, True):
                apply_1d(AR, np.ones(n), inverse, transpose)
    info = transforms.body_1d.cache_info()
    assert info.maxsize == info.currsize == 64


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("inverse", [False, True])
def test_shared_anti_reflective_body_is_thread_safe(inverse, transpose, rng):
    """One cached body, applied from three threads to their own arrays
    (two vectors and a batch), gives each thread the bytes of a one-thread
    run: the body keeps no work buffer between calls."""
    n, calls = 203, 200
    body = transforms.body_1d(AR, inverse, transpose, n)
    inputs = (rng.standard_normal(n), rng.standard_normal(n),
              rng.standard_normal((3, n)))
    want = [body(v, v.copy()).tobytes() for v in inputs]
    got = ([], [], [])

    def run(i):
        for _ in range(calls):
            got[i].append(body(inputs[i], inputs[i].copy()).tobytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(3):
        assert got[i] == [want[i]] * calls


def test_rejects_empty_and_tiny():
    with pytest.raises(ValueError):
        apply_1d(DST1, np.array([]))
    with pytest.raises(ValueError):
        apply_1d(DCT, np.array([]))
    tensor_applies = (tensor_apply_2d, transforms.parity_apply_2d)
    for n in (1, 2):
        with pytest.raises(ValueError):
            apply_1d(AR, np.ones(n))
        with pytest.raises(ValueError):
            apply_1d(SINE_HAT, np.ones(n))
        for apply in tensor_applies:
            with pytest.raises(ValueError,
                               match=f"T_n requires length >= 3, got {n}"):
                apply(TransformKind.ANTI_REFLECTIVE, np.ones((n, n)))
            with pytest.raises(ValueError,
                               match=f"Shat_n requires length >= 3, got {n}"):
                apply(TransformKind.SINE_HAT, np.ones((n, n)))
    for kind in TransformKind:
        for apply in tensor_applies:
            for shape in ((3, 4), (145, 144), (4,), (2, 2, 2)):
                with pytest.raises(ValueError, match="needs a square grid"):
                    apply(kind, np.ones(shape))
            with pytest.raises(ValueError):
                apply(kind, np.ones((0, 0)))
    with pytest.raises(ValueError, match="unknown transform kind: 'dct'"):
        apply_1d("dct", np.ones(4))


@given(v=finite_vectors, c=st.floats(-10, 10, allow_nan=False))
def test_linearity(v, c):
    for kind in TransformKind:
        lhs = apply_1d(kind, c * v)
        rhs = c * apply_1d(kind, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + np.abs(rhs).max()))


@given(v=finite_vectors)
def test_ar_factorization_round_trip_property(v):
    back = apply_1d(AR, apply_1d(AR, v), inverse=True)
    np.testing.assert_allclose(back, v, atol=1e-9 * (1 + np.abs(v).max()))


@pytest.mark.slow
def test_apply_cost_is_quasilinear():
    """Doubling n costs < 2.5x at a size >= 2^14 (quasi-linear contract).

    Base sizes are chosen per transform so the underlying FFT lengths stay
    mixed-radix friendly at both n and 2n; arbitrary lengths would measure
    factorization luck instead of the complexity class.
    """
    import time

    def best_times(kind, args, repeats=30):
        # the sizes take turns inside one loop, so load from other processes
        # that comes and goes during the test slows both sizes alike
        best = [np.inf] * len(args)
        for _ in range(repeats):
            for i, arg in enumerate(args):
                t0 = time.perf_counter()
                apply_1d(kind, arg)
                apply_1d(kind, arg)
                best[i] = min(best[i], time.perf_counter() - t0)
        return best

    rng = np.random.default_rng(0)
    cases = [(DCT, 1 << 14), (DST1, 3 << 13), (AR, (1 << 14) + 2048)]
    for kind, n in cases:
        small = rng.standard_normal(n)
        big = rng.standard_normal(2 * n)
        apply_1d(kind, small), apply_1d(kind, big)  # warm caches
        t_small, t_big = best_times(kind, (small, big))
        ratio = t_big / t_small
        assert ratio < 2.5, f"{kind.name}: doubling ratio {ratio:.2f} at n={n}"
