import ctypes
import io
import math
import mmap
import os
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptrain import _native
from mptrain import binary16 as b16
from mptrain import tensor as T

import helpers
import oracles


def test_zeros_and_full():
    z = T.zeros([2, 3], T.DType.F16)
    assert z.shape == (2, 3)
    assert (z.data == 0).all()

    tiny = helpers.full([1], T.DType.F16, 1e-9)
    assert tiny.data[0] == 0x0000  # underflows on store

    v = helpers.from_values([2], T.DType.F32, [1.5, -2.0])
    assert v.data.tolist() == [1.5, -2.0]


def test_from_values_length_mismatch():
    with pytest.raises(ValueError):
        helpers.from_values([3], T.DType.F32, [1.0, 2.0])


def test_bad_shape():
    with pytest.raises(ValueError):
        T.zeros([0, 2], T.DType.F32)


def test_cast_roundtrip_and_boundaries():
    x = helpers.from_values([3], T.DType.F16, [1.0, -2.5, 0.1])
    wide = T.cast(x, T.DType.F32)
    back = T.cast(wide, T.DType.F16)
    assert helpers.bits_equal(x, back)

    edges = helpers.from_values([2], T.DType.F32, [65536.0, 2.0**-26])
    assert list(T.cast(edges, T.DType.F16).data) == [oracles.HALF_POS_INF, 0x0000]


def test_store_then_read_identity():
    rng = np.random.default_rng(0)
    vals = rng.normal(0, 4, (13, 7)).astype(np.float32)
    t = T.store(vals, T.DType.F16)
    again = T.Tensor(t.data.copy(), T.DType.F16)
    assert helpers.bits_equal(t, again)
    assert t.data.flags.writeable is False


def test_matmul_ones_accumulation():
    ones_row = helpers.full([1, 4096], T.DType.F16, 1.0)
    ones_col = helpers.full([4096, 1], T.DType.F16, 1.0)

    acc16 = T.store(T.matmul(ones_row, ones_col, T.AccumMode.ACC16), T.DType.F16)
    assert helpers.item(acc16) == 2048.0

    acc32 = T.store(T.matmul(ones_row, ones_col, T.AccumMode.ACC32), T.DType.F16)
    assert helpers.item(acc32) == 4096.0


def test_matmul_1x1_equals_h_mul():
    rng = np.random.default_rng(1)
    vals = rng.normal(0, 3, 50).astype(np.float32)
    for a, b in zip(vals[0::2], vals[1::2]):
        ta = helpers.from_values([1, 1], T.DType.F16, [float(a)])
        tb = helpers.from_values([1, 1], T.DType.F16, [float(b)])
        got = T.store(T.matmul(ta, tb, T.AccumMode.ACC16), T.DType.F16)
        assert got.data[0, 0] == oracles.half_mul(int(ta.data[0, 0]),
                                                   int(tb.data[0, 0]))


def _scalar_acc16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent scalar-loop model: f16 accumulator, exact f32 product,
    f32 add, round to f16 after every step, k in order."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.uint16)
    for i in range(m):
        for j in range(n):
            acc = 0x0000
            for p in range(k):
                prod = (oracles.half_value(int(a[i, p]))
                        * oracles.half_value(int(b[p, j])))
                acc_f32 = np.float32(oracles.half_value(acc) + prod)
                acc = oracles.half_from_float(float(acc_f32))
            out[i, j] = acc
    return out


def _scalar_acc32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0)
            for p in range(k):
                prod = np.float32(np.float32(oracles.half_value(int(a[i, p])))
                                  * np.float32(oracles.half_value(int(b[p, j]))))
                acc = np.float32(acc + prod)
            out[i, j] = acc
    return out


def test_matmul_acc16_matches_scalar_loop():
    rng = np.random.default_rng(2)
    a = T.store(rng.normal(0, 2, (3, 17)).astype(np.float32), T.DType.F16)
    b = T.store(rng.normal(0, 2, (17, 4)).astype(np.float32), T.DType.F16)
    got = T.store(T.matmul(a, b, T.AccumMode.ACC16), T.DType.F16)
    ref = _scalar_acc16(a.data, b.data)
    assert np.array_equal(got.data, ref)


def test_matmul_acc32_matches_scalar_loop():
    rng = np.random.default_rng(3)
    a = T.store(rng.normal(0, 2, (4, 23)).astype(np.float32), T.DType.F16)
    b = T.store(rng.normal(0, 2, (23, 5)).astype(np.float32), T.DType.F16)
    got = T.store(T.matmul(a, b, T.AccumMode.ACC32), T.DType.F32)
    ref = _scalar_acc32(a.data, b.data)
    assert np.array_equal(got.data.view(np.uint32), ref.view(np.uint32))


def test_matmul_acc16_equals_hmul_hadd_chain_on_exact_products():
    # with power-of-two operands every product is exact in f16, so the
    # fused model and a chain of correctly rounded binary16 multiplies
    # and adds coincide bit for bit
    rng = np.random.default_rng(4)
    choices = np.array([0.25, 0.5, 1.0, 2.0, 4.0, -0.5, -1.0, -2.0], dtype=np.float32)
    a = T.store(rng.choice(choices, (2, 9)), T.DType.F16)
    b = T.store(rng.choice(choices, (9, 3)), T.DType.F16)
    got = T.store(T.matmul(a, b, T.AccumMode.ACC16), T.DType.F16)
    for i in range(2):
        for j in range(3):
            acc = 0x0000
            for p in range(9):
                acc = oracles.half_add(
                    acc, oracles.half_mul(int(a.data[i, p]), int(b.data[p, j])))
            assert got.data[i, j] == acc


def test_matmul_acc32_matches_exact_rational_oracle():
    # operands on the binary16 grid with magnitudes that keep every
    # product and partial sum exactly representable in f32
    rng = np.random.default_rng(5)
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0, -2.5], dtype=np.float32)
    for _ in range(20):
        m, k, n = rng.integers(1, 9, 3)
        a = T.store(rng.choice(grid, (m, k)), T.DType.F16)
        b = T.store(rng.choice(grid, (k, n)), T.DType.F16)
        got = T.store(T.matmul(a, b, T.AccumMode.ACC32), T.DType.F32)
        aw, bw = a.widen(), b.widen()
        for i in range(m):
            for j in range(n):
                exact = oracles.exact_dot(
                    [float(x) for x in aw[i]], [float(y) for y in bw[:, j]])
                assert Fraction(float(got.data[i, j])) == exact


def test_matmul_shape_and_dtype_errors():
    a = T.zeros([2, 3], T.DType.F16)
    b = T.zeros([4, 2], T.DType.F16)
    with pytest.raises(ValueError):
        T.matmul(a, b)
    c = T.zeros([3, 2], T.DType.F32)
    with pytest.raises(ValueError):
        T.matmul(a, c)
    with pytest.raises(ValueError):
        T.matmul(c, T.zeros([2, 2], T.DType.F32), T.AccumMode.ACC16)


def test_matmul_nonfinite_propagates():
    a = helpers.from_values([1, 2], T.DType.F16, [65504.0, 65504.0])
    b = helpers.from_values([2, 1], T.DType.F16, [65504.0, 65504.0])
    out = T.store(T.matmul(a, b, T.AccumMode.ACC32), T.DType.F16)
    assert out.data[0, 0] == oracles.HALF_POS_INF

    # ACC16 with an F32 result: inf + -inf is the canonical f32 NaN
    a = helpers.from_values([1, 2], T.DType.F16, [np.inf, -np.inf])
    b = helpers.from_values([2, 1], T.DType.F16, [1.0, 1.0])
    out = T.store(T.matmul(a, b, T.AccumMode.ACC16), T.DType.F32)
    assert out.data.view(np.uint32)[0, 0] == 0x7FC00000

    # subnormal products (2^-24 kept, a later 2^-26 lost to the f16
    # accumulator) and -0 operands: the F32 result is the F16 one widened
    a = helpers.from_values([2, 3], T.DType.F16,
                      [2.0**-12, 2.0**-14, -0.0, -0.0, 2.0**-13, 2.0**-24])
    b = helpers.from_values([3, 2], T.DType.F16,
                      [2.0**-12, -1.0, 2.0**-12, -0.0, 3.0, 2.0**-10])
    wide = T.store(T.matmul(a, b, T.AccumMode.ACC16), T.DType.F32)
    half = T.store(T.matmul(a, b, T.AccumMode.ACC16), T.DType.F16)
    assert helpers.bits_equal(wide, T.cast(half, T.DType.F32))
    assert wide.data[0, 0] == np.float32(2.0**-24)


def _f32_tensor(shape, bits):
    return T.Tensor(np.array(bits, dtype=np.uint32).view(np.float32).reshape(shape),
                    T.DType.F32)


_INF, _NEG_INF, _ONE, _ZERO = 0x7F800000, 0xFF800000, 0x3F800000, 0x00000000


@pytest.mark.parametrize("a_bits,b_bits", [
    ([_INF, _ONE], [_ZERO, _ONE]),            # inf*0 is the default NaN, 0xFFC00000 on x86
    ([_INF, _NEG_INF], [_ONE, _ONE]),         # inf + -inf
    ([0xFFC00001, _ONE], [_ONE, _ONE]),       # a NaN operand with sign and payload
])
def test_matmul_acc32_f32_result_nan_is_canonical(a_bits, b_bits):
    a, b = _f32_tensor((1, 2), a_bits), _f32_tensor((2, 1), b_bits)
    for out in (T.matmul(a, b, T.AccumMode.ACC32), _numpy_mm(a, b, T.AccumMode.ACC32)):
        assert T.store(out, T.DType.F32).data.view(np.uint32)[0, 0] == 0x7FC00000


def _numpy_mm(a, b, mode):
    """`T.matmul` on checked operands through the numpy twin of `mm`."""
    return _native.NUMPY.mm(a.data, b.data, mode is T.AccumMode.ACC16)


_F16_SPECIAL = [0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0xFE00, 0x7C01, 0xFFFF,
                0x7D55, 0x0001, 0x8001, 0x03FF, 0x83FF, 0x7BFF, 0xFBFF]
_F32_SPECIAL = [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000,
                0xFFC00000, 0x7F800001, 0xFFC00001, 0x7FABCDEF, 0x00000001,
                0x80000001, 0x007FFFFF, 0x477FE000, 0xC77FE000, 0x33800000]


def _adversarial(rng, shape, dtype, special_rate):
    """Normal values over a random scale, with a share of ±0, ±inf, NaNs
    with payloads, subnormals and ±65504 mixed in."""
    scale = 2.0 ** rng.integers(-20, 12)
    values = T.store(rng.normal(0, scale, shape).astype(np.float32), dtype)
    bits = values.data.view(np.uint16 if dtype is T.DType.F16 else np.uint32).copy()
    special = _F16_SPECIAL if dtype is T.DType.F16 else _F32_SPECIAL
    mask = rng.random(shape) < special_rate
    bits[mask] = rng.choice(np.array(special, dtype=bits.dtype), int(mask.sum()))
    return T.Tensor(bits if dtype is T.DType.F16 else bits.view(np.float32), dtype)


def test_matmul_kernel_matches_numpy_loop_bit_for_bit():
    rng = np.random.default_rng(1710)
    paths = [(T.DType.F32, T.AccumMode.ACC32), (T.DType.F16, T.AccumMode.ACC32),
             (T.DType.F16, T.AccumMode.ACC16)]
    for case in range(320):
        dtype, mode = paths[case % 3]
        k = int(rng.choice([1, 2, 3, 7, 64, 300, 3000], p=[.1, .1, .1, .2, .3, .15, .05]))
        m, n = (int(rng.choice([1, rng.integers(2, 12)])) for _ in range(2))
        rate = float(rng.choice([0.0, 0.5 / k, 0.05]))
        a = _adversarial(rng, (m, k), dtype, rate)
        b = _adversarial(rng, (k, n), dtype, rate)
        got = T.matmul(a, b, mode)
        assert helpers.bits_equal(got, _numpy_mm(a, b, mode)), \
            (case, dtype, mode, (m, k, n))


def _at_offset(values, offset):
    """A copy of the array `values` whose data starts `offset` bytes past
    a 32-byte boundary."""
    buf = np.empty(values.nbytes + 32, dtype=np.uint8)
    start = (offset - buf.ctypes.data) % 32
    out = buf[start:start + values.nbytes].view(values.dtype).reshape(values.shape)
    out[...] = values
    return out


def test_matmul_takes_stored_operands_at_any_offset(monkeypatch):
    # the compiled mm reads each tensor's buffer where numpy put it: F32
    # operands at every 4-byte offset mod 32 and F16 patterns at every
    # 2-byte offset give the bits of the numpy loop in all three paths,
    # and no F16 product widens an operand in Python
    helpers.bind_loops(monkeypatch, "avx2")
    widened = []
    to_f32 = b16.to_f32_array
    monkeypatch.setattr(b16, "to_f32_array",
                        lambda bits: widened.append(bits.shape) or to_f32(bits))
    rng = np.random.default_rng(1714)
    paths = [(T.DType.F32, T.AccumMode.ACC32, 4), (T.DType.F16, T.AccumMode.ACC32, 2),
             (T.DType.F16, T.AccumMode.ACC16, 2)]
    for m, k, n in [(3, 5, 7), (64, 256, 72), (128, 256, 10), (9, 300, 8)]:
        for dtype, mode, step in paths:
            a0, b0 = (_adversarial(rng, shape, dtype, 0.01).data for shape in [(m, k), (k, n)])
            for offset in range(0, 32, step):
                a, b = (T.Tensor(_at_offset(x, at), dtype)
                        for x, at in [(a0, offset), (b0, -offset % 32)])
                assert (a.data.ctypes.data - offset) % 32 == (b.data.ctypes.data + offset) % 32 == 0
                assert helpers.bits_equal(T.matmul(a, b, mode), _numpy_mm(a, b, mode)), \
                    ((m, k, n), dtype, mode, offset)
    assert widened == []


def test_matmul_without_kernel_warns_once_and_keeps_the_bits(monkeypatch):
    rng = np.random.default_rng(12)
    a = T.store(rng.normal(0, 2, (5, 40)).astype(np.float32), T.DType.F16)
    b = T.store(rng.normal(0, 2, (40, 3)).astype(np.float32), T.DType.F16)
    helpers.reload_kernel(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [T.matmul(a, b, mode)
               for mode in (T.AccumMode.ACC16, T.AccumMode.ACC32)]
    assert [str(w.message).count("numpy loop") for w in caught] == [1]
    for loop in ("matmul", "binary16 store and widen", "seq_sum fold"):
        assert loop in str(caught[0].message)
    assert _native.lib() is _native.NUMPY
    monkeypatch.undo()
    for out, mode in zip(got, (T.AccumMode.ACC16, T.AccumMode.ACC32)):
        assert helpers.bits_equal(out, T.matmul(a, b, mode))


def _as(monkeypatch, variant, fn):
    """fn() with every compiled loop run as `variant` ("numpy": every
    loop runs its numpy twin)."""
    helpers.bind_loops(monkeypatch, variant)
    return fn()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_matmul_kernel_compiles_without_warnings(tmp_path):
    proc = subprocess.run(["cc", *_native._FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "native.so"), str(_native._SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_native_build_removes_only_stale_libraries(tmp_path, monkeypatch):
    # Earlier sources' matmul-*.so and core-*.so go once they are old; a
    # fresh one (an older checkout may be about to load it), another
    # key's library and another process's half-written tmp*.so stay.
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = tmp_path / ".cache" / "mptrain"
    cache.mkdir(parents=True)
    old = time.time() - _native._STALE_AFTER_S - 60
    kept = ["native-0000000000000000.so", "tmpk3x9q2ab.so", "core-0f1e2d3c4b5a6978.so"]
    for name in ["matmul-564a75fe4c740b64.so", "core-b71a6c39e64710d0.so", *kept]:
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (old, old))
    os.utime(cache / kept[-1])
    built = _native._build()
    assert built.parent == cache
    assert sorted(f.name for f in cache.iterdir()) == sorted([built.name, *kept])


def test_matmul_vector_tails_match_numpy_loop(monkeypatch):
    # m = 1..9 puts rows below, at and past one six-row block, into the
    # one-row tail; n = 1..33 and 256 put columns below, at and past one
    # and two eight-wide pieces of a 16-column block.  At k = 300 two
    # ACC16 scales make sums land in the f16 subnormals and beyond 65504,
    # and ACC32 takes F32 operands with ±0, ±inf and NaNs mixed in.  Sums
    # of -0 products only, in both modes, are +0 from the +0 start.
    rng = np.random.default_rng(1712)
    cases = []
    for m in range(1, 10):
        for n in [*range(1, 34), 256]:
            for scale, mode in [(2.0**-13, T.AccumMode.ACC16), (2.0**5, T.AccumMode.ACC16),
                                (2.0**5, T.AccumMode.ACC32)]:
                a, b = (T.store(rng.normal(0, scale, shape).astype(np.float32), T.DType.F16)
                        for shape in [(m, 300), (300, n)])
                cases.append((a, b, mode))
            a, b = (_adversarial(rng, shape, T.DType.F32, 1 / 300)
                    for shape in [(m, 300), (300, n)])
            cases.append((a, b, T.AccumMode.ACC32))
            negative_zero = helpers.full((m, 300), T.DType.F16, -0.0)
            cases += [(negative_zero, helpers.full((300, n), T.DType.F16, 1.0), mode)
                      for mode in (T.AccumMode.ACC16, T.AccumMode.ACC32)]

    def run():
        return [T.matmul(a, b, mode) for a, b, mode in cases]

    want = _as(monkeypatch, "numpy", run)
    got = _as(monkeypatch, "avx2", run)
    assert [w.tobytes() for w in want] == [g.tobytes() for g in got]
    small, big, _, special, *zeros = (np.concatenate([w.ravel() for w in want[i::6]])
                                      for i in range(6))
    assert ((small != 0) & (abs(small) < 2.0**-14)).any()
    assert np.isinf(big).any()
    assert np.isnan(special).any() and np.isinf(special).any()
    assert np.isfinite(special).any()
    assert not np.concatenate(zeros).view(np.uint32).any()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([(T.DType.F32, T.AccumMode.ACC32), (T.DType.F16, T.AccumMode.ACC32),
                        (T.DType.F16, T.AccumMode.ACC16)]),
       st.integers(0, 2**32 - 1))
def test_matmul_rows_and_columns_alone_give_the_same_bits(m, k, n, path, seed):
    # a row of a (a column of b) alone lands in another block than in
    # the whole product, so no block boundary may change an output
    dtype, mode = path
    rng = np.random.default_rng(seed)
    rate = float(rng.choice([0.0, 0.5 / k, 0.05]))
    a, b = _adversarial(rng, (m, k), dtype, rate), _adversarial(rng, (k, n), dtype, rate)
    whole = T.matmul(a, b, mode)
    for i in range(m):
        row = T.matmul(T.Tensor(a.data[i:i + 1], dtype), b, mode)
        assert row.tobytes() == whole[i:i + 1].tobytes(), i
    for j in range(n):
        col = T.matmul(a, T.Tensor(b.data[:, j:j + 1], dtype), mode)
        assert col.tobytes() == np.ascontiguousarray(whole[:, j:j + 1]).tobytes(), j


def _before_a_guard_page(count, dtype):
    """An array of `count` elements of `dtype` in an anonymous mapping
    whose last element ends right before a PROT_NONE page.  Skips the
    test where mprotect is not available."""
    mprotect = getattr(ctypes.CDLL(None), "mprotect", None)
    if mprotect is None:
        pytest.skip("no mprotect")
    mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    size = np.dtype(dtype).itemsize * count
    pages = -(-size // mmap.PAGESIZE)
    region = mmap.mmap(-1, (pages + 1) * mmap.PAGESIZE)
    start = ctypes.addressof(ctypes.c_char.from_buffer(region))
    if mprotect(start + pages * mmap.PAGESIZE, mmap.PAGESIZE, 0) != 0:
        pytest.skip("mprotect failed")
    return np.frombuffer(region, dtype, count, pages * mmap.PAGESIZE - size)


@pytest.mark.parametrize("guarded", ["a", "b", "c"])
def test_matmul_touches_nothing_past_its_operands(guarded, monkeypatch):
    # the compiled mm with a, b or c ending right before a page that
    # faults on any access, on f32 and on binary16-pattern operands: the
    # pack of b's last columns and the masked tails of c must not reach it
    helpers.bind_loops(monkeypatch, "avx2")
    c_mm = ctypes.CDLL(str(_native._build())).mm
    c_mm.argtypes = _native._LOOPS["mm"]
    rng = np.random.default_rng(1715)
    m, k = 7, 8  # one six-row block and a one-row tail
    for f16, storage in [(0, np.float32), (1, np.uint16)]:
        for n in range(1, 18):
            shapes = {"a": (m, k), "b": (k, n), "c": (m, n)}
            dtypes = {"a": storage, "b": storage, "c": np.float32}
            ops = {name: np.empty(shapes[name], dtypes[name]) for name in "abc"}
            ops[guarded] = _before_a_guard_page(
                math.prod(shapes[guarded]), dtypes[guarded]).reshape(shapes[guarded])
            for name in "ab":
                values = rng.normal(0, 1, shapes[name]).astype(np.float16)
                ops[name][...] = values.view(np.uint16) if f16 else values
            for acc16 in (0, 1):
                assert c_mm(*(ops[name].ctypes.data for name in "abc"), m, k, n, f16, acc16) == 0
                assert ops["c"].tobytes() == _native.NUMPY.mm(ops["a"], ops["b"], acc16).tobytes()


_RUN_UNDER_LIMIT = """
import resource, sys
import numpy as np
from mptrain import _native, tensor as T
if _native.lib() is _native.NUMPY:
    sys.exit(77)
a = T.Tensor(np.full((2, 4096), 0x3C00, np.uint16), T.DType.F16)
b = T.Tensor(np.full((4096, 4096), 0x3C00, np.uint16), T.DType.F16)
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + (32 << 20), resource.RLIM_INFINITY))
try:
    T.matmul(a, b)
except MemoryError as e:
    print(e)
print(T.matmul(a, T.Tensor(b.data[:, :8], T.DType.F16))[0, 0])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_matmul_that_cannot_allocate_raises_memory_error(tmp_path):
    # with 32 MB of address space left, the 64 MB packed b of an F16
    # 2x4096 @ 4096x4096 product does not fit: MemoryError names the
    # shape, and a small product after it still runs
    env = {**os.environ, "PYTHONPATH": str(_native._SOURCE.parents[1])}
    proc = subprocess.run([sys.executable, "-c", _RUN_UNDER_LIMIT], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 77:
        pytest.skip("the compiled loops cannot run here")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "matmul 2x4096 @ 4096x4096: cannot allocate its packed operands", "4096.0"]


_RUN_UNDER_ASAN = """
import sys
import numpy as np
from mptrain import _native
loops, twins = _native._bind(sys.argv[1]), _native.NUMPY
rng = np.random.default_rng(1716)
for m in range(1, 10):
    for n in [*range(1, 34), 256]:
        a, b = (rng.normal(0, 4, shape).astype(np.float16) for shape in [(m, 11), (11, n)])
        for x, y in [(a.astype(np.float32), b.astype(np.float32)),
                     (a.view(np.uint16), b.view(np.uint16))]:
            for acc16 in (0, 1):
                assert loops.mm(x, y, acc16).tobytes() == twins.mm(x, y, acc16).tobytes()
        for name, x in [("f16_to_f32", b.view(np.uint16)), ("f32_to_f16", b.astype(np.float32)),
                        ("fold_rows", b.astype(np.float32))]:
            assert getattr(loops, name)(x).tobytes() == getattr(twins, name)(x).tobytes()
print("ok")
"""


def _libasan():
    """The AddressSanitizer runtime of `cc`, or None."""
    if shutil.which("cc") is None:
        return None
    path = subprocess.run(["cc", "-print-file-name=libasan.so"],
                          capture_output=True, text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


@pytest.mark.skipif(_libasan() is None, reason="no C compiler with AddressSanitizer")
def test_native_loops_pass_address_sanitizer(tmp_path):
    # every loop built with -fsanitize=address, on the tails of mm's
    # pack, its blocks and the conversions: a read or write past any
    # heap buffer (numpy's or the pack's) ends the run with a report
    lib = tmp_path / "native-asan.so"
    subprocess.run(["cc", *_native._FLAGS, "-fsanitize=address", "-o", str(lib),
                    str(_native._SOURCE)], check=True, capture_output=True, timeout=120)
    env = {**os.environ, "PYTHONPATH": str(_native._SOURCE.parents[1]),
           "LD_PRELOAD": _libasan(), "ASAN_OPTIONS": "detect_leaks=0"}
    proc = subprocess.run([sys.executable, "-c", _RUN_UNDER_ASAN, str(lib)], env=env,
                          capture_output=True, text=True, timeout=120)
    if "this CPU has no AVX2" in proc.stderr:
        pytest.skip("this CPU cannot run the compiled loops")
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-3000:]


def test_seq_sum_fold_matches_numpy_fold(monkeypatch):
    rng = np.random.default_rng(1713)
    arrays = []
    for shape in [(784, 256), (1000, 3), (128, 4), (2, 300), (1, 7), (5,), (9, 4, 3)]:
        values = rng.normal(0, 2.0 ** rng.integers(-130, 120), shape).astype(np.float32)
        bits = values.view(np.uint32)
        mask = rng.random(shape) < 0.02
        bits[mask] = rng.choice(np.array(_SUM_SPECIAL, np.uint32), int(mask.sum()))
        arrays.append(values)
    arrays.append(np.full((40, 6), -0.0, np.float32))

    def run():
        return [T.seq_sum(x, axis).tobytes() for x in arrays
                for axis in (None, *range(-x.ndim, x.ndim))]

    assert _as(monkeypatch, "avx2", run) == _as(monkeypatch, "numpy", run)


def test_seq_sum_store_f32_accumulation():
    ones = helpers.full([4096], T.DType.F16, 1.0)
    s = T.store(T.seq_sum(ones.widen()), T.DType.F16)
    assert helpers.item(s) == 4096.0  # f32 accumulator, one store

    s32 = T.store(T.seq_sum(ones.widen()), T.DType.F32)
    assert helpers.item(s32) == 4096.0


def test_seq_sum_store_axis():
    x = helpers.from_values([2, 3], T.DType.F32, [1, 2, 3, 4, 5, 6])
    assert T.store(T.seq_sum(x.widen(), axis=0), x.dtype).data.tolist() == [5.0, 7.0, 9.0]
    assert T.store(T.seq_sum(x.widen(), axis=1), x.dtype).data.tolist() == [6.0, 15.0]
    with pytest.raises(ValueError):
        T.seq_sum(x.widen(), axis=2)


def _f32_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32).view(np.uint32)


def test_seq_sum_nan_is_canonical_and_all_negative_zero_sums_to_positive_zero():
    nan_first = np.array([0xFFC00001, 0x3F800000], dtype=np.uint32).view(np.float32)
    assert _f32_bits(T.seq_sum(nan_first)) == 0x7FC00000
    assert _f32_bits(T.seq_sum(np.full((3, 2), -0.0, np.float32), axis=0)).tolist() == [0, 0]
    assert _f32_bits(T.seq_sum(np.full((1, 1), -0.0, np.float32))) == 0


_SUM_SPECIAL = [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7F7FFFFF,
                0xFF7FFFFF, 0x00000001, 0x807FFFFF, 0xFFC00001, 0x7FC00123,
                0xFF800001]


def test_seq_sum_matches_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(1703)
    for case in range(360):
        shape = tuple(int(rng.choice([1, 2, 3, 7, 40])) for _ in range(case % 3 + 1))
        axis = None if case % 4 == 0 else int(rng.integers(-len(shape), len(shape)))
        values = rng.normal(0, 2.0 ** rng.integers(-130, 120), shape).astype(np.float32)
        bits = values.view(np.uint32)
        if case % 7 == 0:
            bits[...] = 0x80000000  # every slice -0
        else:
            mask = rng.random(shape) < rng.choice([0.0, 0.05, 0.3])
            bits[mask] = rng.choice(np.array(_SUM_SPECIAL, np.uint32), int(mask.sum()))
        got = T.seq_sum(values, axis)
        want = b16.canonicalize_f32_nans(oracles.seq_sum_loop(values, axis))
        assert got.shape == want.shape, (case, shape, axis)
        assert np.array_equal(_f32_bits(got), _f32_bits(want)), (case, shape, axis)


def test_seq_sum_order_is_leading_axis_first():
    x = np.arange(12, dtype=np.float32).reshape(3, 4)
    total = T.seq_sum(x)
    # fold rows first, then the remaining vector left to right
    acc_row = np.zeros(4, dtype=np.float32)
    for r in range(3):
        acc_row += x[r]
    acc = np.float32(0)
    for c in range(4):
        acc = np.float32(acc + acc_row[c])
    assert np.float32(total) == acc


def test_transpose_reshape_slice_preserve_bits():
    rng = np.random.default_rng(7)
    x = T.store(rng.normal(0, 1, (4, 6)).astype(np.float32), T.DType.F16)
    tt = T.transpose(x)
    assert np.array_equal(tt.data, x.data.T)
    rs = T.reshape(x, [6, 4])
    assert np.array_equal(rs.data.ravel(), x.data.ravel())
    sl = T.slice_(x, (slice(1, 3), slice(None)))
    assert np.array_equal(sl.data, x.data[1:3])
    tk = T.take(x, np.array([2, 0]))
    assert np.array_equal(tk.data, x.data[[2, 0]])


def test_random_normal_determinism():
    a = T.random_normal([32, 8], 0.0, 1.0, seed=42)
    assert a.dtype == np.float32 and a.shape == (32, 8)
    b = T.random_normal([32, 8], 0.0, 1.0, seed=42)
    assert a.tobytes() == b.tobytes()

    c = T.random_normal([32, 8], 0.0, 1.0, seed=43)
    assert a.tobytes() != c.tobytes()

    d = T.random_normal([32, 8], 0.0, 1.0, seed=42, stream=1)
    assert a.tobytes() != d.tobytes()


def test_random_normal_stddev_zero_and_moments():
    m = T.random_normal([10], 3.0, 0.0, seed=1)
    assert (m == 3.0).all()
    with pytest.raises(ValueError):
        T.random_normal([4], 0.0, -1.0, seed=1)

    big = T.random_normal([200_000], 0.0, 1.0, seed=9)
    assert abs(float(big.mean())) < 0.01
    assert abs(float(big.std()) - 1.0) < 0.01


def test_permutation_deterministic_and_complete():
    p1 = T.permutation(1000, seed=5)
    p2 = T.permutation(1000, seed=5)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(1000))
    assert not np.array_equal(T.permutation(1000, seed=6), p1)


def test_serialization_roundtrip():
    rng = np.random.default_rng(8)
    for dtype in (T.DType.F16, T.DType.F32):
        x = T.store(rng.normal(0, 10, (3, 5, 2)).astype(np.float32), dtype)
        buf = io.BytesIO()
        T.write_tensor(buf, x)
        buf.seek(0)
        y = T.read_tensor(buf)
        assert helpers.bits_equal(x, y)


def test_serialization_header_layout():
    x = helpers.from_values([2], T.DType.F16, [1.0, -2.0])
    buf = io.BytesIO()
    T.write_tensor(buf, x)
    raw = buf.getvalue()
    assert raw[:8] == b"MPTENS01"
    assert raw[8] == 0  # dtype code f16
    assert raw[9] == 1  # rank
    assert int.from_bytes(raw[10:18], "little") == 2
    assert raw[18:20] == (0x3C00).to_bytes(2, "little")


def test_serialization_errors():
    buf = io.BytesIO(b"BADMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        T.read_tensor(buf)

    x = helpers.from_values([4], T.DType.F32, [1, 2, 3, 4])
    out = io.BytesIO()
    T.write_tensor(out, x)
    truncated = io.BytesIO(out.getvalue()[:-4])
    with pytest.raises(ValueError):
        T.read_tensor(truncated)


def test_tensor_immutable():
    x = T.zeros([2], T.DType.F32)
    with pytest.raises(AttributeError):
        x.dtype = T.DType.F16
    with pytest.raises(ValueError):
        x.data[0] = 1.0


def test_views_share_memory_and_cannot_be_written():
    rng = np.random.default_rng(9)
    for dtype in (T.DType.F16, T.DType.F32):
        x = T.store(rng.normal(0, 1, (4, 3, 2)).astype(np.float32), dtype)
        views = [T.reshape(x, [12, 2]).data, T.slice_(x, (slice(1, 3),)).data,
                 T.slice_(x, (2, 1)).data]
        if dtype is T.DType.F32:
            views.append(x.widen())
        copies = [T.slice_(x, (slice(None), 1)).data, T.slice_(x, (0, 0, 1)).data]
        for arr in views:
            assert np.shares_memory(arr, x.data)
        for arr in copies:
            assert not np.shares_memory(arr, x.data)
        for arr in views + copies:
            with pytest.raises(ValueError):
                arr[...] = 0
    assert T.slice_(x, (0, 0, 1)).shape == (1,)


def test_read_tensor_short_header():
    buf = io.BytesIO()
    T.write_tensor(buf, helpers.from_values([2, 2], T.DType.F16, [1, 2, 3, 4]))
    raw = buf.getvalue()
    for cut in (9, 12):  # inside the dtype/rank bytes, inside the dimensions
        with pytest.raises(ValueError, match="truncated tensor"):
            T.read_tensor(io.BytesIO(raw[:cut]))
