import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptrain import binary16 as b16

import helpers
import oracles


def all_patterns():
    return np.arange(0x10000, dtype=np.uint16)


def _nan_patterns(bits):
    return ((bits & 0x7C00) == 0x7C00) & ((bits & 0x3FF) != 0)


BOUNDARY_F32 = [
    0.0, -0.0, 1.0, -1.0, 2.0**-24, 2.0**-25, -(2.0**-25), 2.0**-26,
    65504.0, -65504.0, 65505.0, 65519.99609375, 65520.0, -65520.0, 65536.0,
    2.0**-14, 2.0**-15, 0.999999, 1.0005, 2048.0, 2049.0,
    float("inf"), float("-inf"), float("nan"),
    3.4028235e38, 1e-45, -1e-45, 5.877472e-39,
]
# midpoints around every subnormal step and around the overflow edge
BOUNDARY_F32 += [k * 2.0**-25 for k in range(1, 64)]
BOUNDARY_F32 += [65504.0 + k for k in range(-3, 35)]


def test_known_patterns():
    assert helpers.half_bits(0.0) == 0x0000
    assert helpers.half_bits(-0.0) == 0x8000
    assert helpers.half_bits(1.0) == 0x3C00
    assert helpers.half_bits(2.0**-24) == 0x0001
    assert helpers.half_widen(0x0001) == 2.0**-24
    assert helpers.half_widen(0x3C00) == 1.0
    assert helpers.half_bits(65504.0) == 0x7BFF
    assert helpers.half_widen(0x7BFF) == 65504.0
    assert math.copysign(1.0, helpers.half_widen(0x8000)) == -1.0


def test_underflow_boundary():
    # (0, 2^-25) -> +0, and 2^-24 -> smallest subnormal
    for x in [1e-12, 2.0**-26, 2.0**-25 * 0.999999]:
        assert helpers.half_bits(x) == 0x0000
    assert helpers.half_bits(2.0**-25) == 0x0000  # exact tie, even is zero
    just_above = np.nextafter(np.float32(2.0**-25), np.float32(1.0))
    assert helpers.half_bits(just_above) == 0x0001
    assert helpers.half_bits(2.0**-24) == 0x0001


def test_overflow_boundary():
    assert helpers.half_bits(65519.99609375) == 0x7BFF
    assert helpers.half_bits(65520.0) == oracles.HALF_POS_INF
    assert helpers.half_bits(-65520.0) == oracles.HALF_NEG_INF
    assert helpers.half_bits(1e30) == oracles.HALF_POS_INF
    assert helpers.half_bits(1e300) == oracles.HALF_POS_INF  # double overflows f32 first


def test_nan_and_inf():
    assert helpers.half_bits(float("inf")) == oracles.HALF_POS_INF
    assert helpers.half_bits(float("-inf")) == oracles.HALF_NEG_INF
    assert helpers.half_bits(float("nan")) == b16.CANONICAL_NAN == oracles.HALF_NAN
    assert math.isnan(helpers.half_widen(0x7C01))
    assert math.isnan(helpers.half_widen(0xFFFF))
    assert helpers.half_widen(oracles.HALF_POS_INF) == float("inf")
    assert helpers.half_widen(oracles.HALF_NEG_INF) == float("-inf")


def test_round_trip_exhaustive():
    # the exact value of every pattern rounds back to it; NaNs collapse
    # to the canonical NaN
    bits = all_patterns()
    values = np.array([oracles.half_value(int(h)) for h in bits], dtype=np.float32)
    back = b16.from_f32_array(values)
    nan = _nan_patterns(bits)
    assert np.array_equal(back[~nan], bits[~nan])
    assert (back[nan] == b16.CANONICAL_NAN).all()


def test_to_f32_exhaustive_against_fraction_oracle():
    bits = all_patterns()
    ours = b16.to_f32_array(bits)
    ref = np.array([oracles.half_value(int(h)) for h in bits], dtype=np.float32)
    nan = _nan_patterns(bits)
    assert np.array_equal(ours[~nan].view(np.uint32), ref[~nan].view(np.uint32))
    # every NaN widens to the canonical f32 quiet NaN
    assert (ours[nan].view(np.uint32) == 0x7FC00000).all()


def test_array_roundtrip_exhaustive():
    bits = all_patterns()
    wide = b16.to_f32_array(bits)
    back = b16.from_f32_array(wide)
    nan = _nan_patterns(bits)
    assert np.array_equal(back[~nan], bits[~nan])
    assert (back[nan] == b16.CANONICAL_NAN).all()


def _assert_matches_fraction_oracle(values):
    values = np.asarray(values, dtype=np.float32)
    for x, h in zip(values, b16.from_f32_array(values)):
        assert int(h) == oracles.half_from_float(float(x)), repr(float(x))


def test_from_f32_against_fraction_oracle_boundaries():
    _assert_matches_fraction_oracle(BOUNDARY_F32)


def test_from_f32_against_fraction_oracle_random():
    rng = np.random.default_rng(7)
    # mix of scales hitting normals, subnormals, overflow, underflow
    _assert_matches_fraction_oracle(np.concatenate([
        rng.normal(0, 1, 2000),
        rng.normal(0, 1e-7, 2000),
        rng.normal(0, 60000, 2000),
        rng.uniform(-2**-24, 2**-24, 2000),
        rng.uniform(60000, 70000, 1000),
    ]))


def test_scalar_matches_array_path():
    # the array path against the per-value Fraction oracle
    rng = np.random.default_rng(11)
    _assert_matches_fraction_oracle(np.concatenate([
        rng.normal(0, 1, 5000),
        rng.normal(0, 1e-7, 5000),
        rng.normal(0, 60000, 5000),
    ]))


@given(st.floats(width=32, allow_nan=False, allow_infinity=False),
       st.floats(width=32, allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_monotone(a, b):
    # rounding is monotone non-decreasing over ordered finite inputs
    lo, hi = (a, b) if a <= b else (b, a)
    def ordered(h):
        return -(h & 0x7FFF) if h & 0x8000 else (h & 0x7FFF)
    assert ordered(helpers.half_bits(lo)) <= ordered(helpers.half_bits(hi))


def _finite_halves():
    bits = all_patterns()
    return bits[(bits & 0x7C00) != 0x7C00]


def _h_add(a, b):
    """binary16 sum the way every layer forms one: widen both operands
    exactly, add in f32, round once."""
    return b16.from_f32_array(b16.to_f32_array(a) + b16.to_f32_array(b))


def _h_mul(a, b):
    """binary16 product: widen, multiply in f32 (exact), round once."""
    return b16.from_f32_array(b16.to_f32_array(a) * b16.to_f32_array(b))


def test_h_add_against_softfloat_oracle():
    rng = np.random.default_rng(3)
    finite = _finite_halves()
    a = rng.choice(finite, 4000)
    b = rng.choice(finite, 4000)
    for x, y, got in zip(a, b, _h_add(a, b)):
        x, y = int(x), int(y)
        assert int(got) == oracles.half_add(x, y), (hex(x), hex(y))


def test_h_mul_against_softfloat_oracle():
    rng = np.random.default_rng(4)
    finite = _finite_halves()
    a = rng.choice(finite, 4000)
    b = rng.choice(finite, 4000)
    for x, y, got in zip(a, b, _h_mul(a, b)):
        x, y = int(x), int(y)
        assert int(got) == oracles.half_mul(x, y), (hex(x), hex(y))


def test_h_add_swamping_cases():
    one = helpers.half_bits(1.0)
    tiny = helpers.half_bits(2.0**-12)
    assert _h_add(one, tiny) == one  # ratio 4096 > 2048

    h2048 = helpers.half_bits(2048.0)
    assert _h_add(h2048, one) == h2048  # tie at half ulp, rounds to even

    # tie against an odd mantissa rounds up instead: the add is recovered
    h2050 = helpers.half_bits(2050.0)
    assert helpers.half_widen(int(_h_add(h2050, one))) == 2052.0


def test_h_mul_identity():
    rng = np.random.default_rng(5)
    finite = _finite_halves()
    h = rng.choice(finite, 2000)
    # -0 * 1 stays -0; everything finite is a fixed point
    assert np.array_equal(_h_mul(h, helpers.half_bits(1.0)), h)


def _fields(h: int) -> dict[str, str]:
    """format_pattern's lines as a name -> value dict."""
    pairs = (line.split(" = ", 1) for line in b16.format_pattern(h).split("\n"))
    return {name.strip(): value for name, value in pairs}


def test_classify_partitions_all_patterns():
    counts = {}
    for h in range(0x10000):
        kind = _fields(h)["class"]
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == {"zero": 2, "infinity": 2, "subnormal": 2 * 1023,
                      "nan": 2 * 1023, "normal": 2 * 30 * 1024}


def test_exponent_of():
    values = [2.0**-24, 65504.0, 1.0, 1.5, 2.0**-14, 2.0**-15]  # 2^-15 is subnormal
    wide = b16.to_f32_array(b16.from_f32_array(np.array(values, dtype=np.float32)))
    assert b16.exponent_of_array(wide).tolist() == [-24, 15, 0, 0, -14, -15]
    assert _fields(helpers.half_bits(2.0**-15))["exponent"] == "-15"
    # zeros, infinities and NaNs have no exponent to show
    for bad in [0x0000, 0x8000, oracles.HALF_POS_INF, b16.CANONICAL_NAN]:
        assert "exponent" not in _fields(bad)


def test_exponent_of_matches_fraction_log():
    # every finite nonzero pattern
    finite = _finite_halves()
    finite = finite[(finite & 0x7FFF) != 0]
    es = b16.exponent_of_array(b16.to_f32_array(finite))
    for h, e in zip(finite.tolist(), es.tolist()):
        v = abs(oracles.half_to_fraction(h))
        assert Fraction(2) ** e <= v < Fraction(2) ** (e + 1), hex(h)


def test_exponent_of_array_matches_scalar():
    # the array path against math.frexp on each value
    finite = _finite_halves()
    finite = finite[(finite & 0x7FFF) != 0]
    es = b16.exponent_of_array(b16.to_f32_array(finite))
    for h, e in zip(finite.tolist(), es.tolist()):
        assert math.frexp(oracles.half_value(h))[1] - 1 == e, hex(h)


@functools.cache
def _widened_patterns() -> bytes:
    """The f32 bits of every pattern from the exact oracle, NaNs canonical."""
    ref = np.array([oracles.half_value(h) for h in range(0x10000)], dtype=np.float32)
    ref.view(np.uint32)[_nan_patterns(all_patterns())] = 0x7FC00000
    return ref.tobytes()


def _store_sweep(rng) -> np.ndarray:
    """f32 inputs for the store: every exponent field under both signs
    with random mantissas; every midpoint between adjacent binary16
    magnitudes (65520 past 65504 included) with its f32 neighbours; the
    range edges, signed zeros, infinities and NaNs of every kind."""
    exps = np.repeat(np.arange(256, dtype=np.uint32), 512)
    random = ((rng.integers(0, 2, exps.size, dtype=np.uint32) << 31) | (exps << 23)
              | rng.integers(0, 1 << 23, exps.size, dtype=np.uint32))
    grid = [oracles.half_value(h) for h in range(0x7C00)] + [65536.0]
    mids = ((np.array(grid[:-1]) + np.array(grid[1:])) / 2).astype(np.float32)
    near = [mids, np.nextafter(mids, np.float32(0)), np.nextafter(mids, np.float32(np.inf))]
    edges = np.array([65504, 65520, 2.0**-24, 2.0**-25, 0], dtype=np.float32)
    nans = np.array([0x7FC00000, 0x7FC12345, 0x7F800001, 0x7FA00000, 0x7FFFFFFF,
                     0xFFC00000, 0xFF800001, 0xFFFFFFFF, 0x7F800000], dtype=np.uint32)
    values = np.concatenate([*near, edges])
    return np.concatenate([random, nans, values.view(np.uint32),
                           (-values).view(np.uint32)]).view(np.float32)


@pytest.mark.parametrize("variant", ["avx2", "numpy"])
def test_conversions_match_exact_oracles(variant, monkeypatch):
    # the store on every f32 exponent and rounding boundary, the widen on
    # every pattern, each path against tests/oracles.py
    x = _store_sweep(np.random.default_rng(25))
    want = oracles.half_from_f32_array(x)
    helpers.bind_loops(monkeypatch, variant)
    got = b16.from_f32_array(x)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(hex(int(x.view(np.uint32)[i])), hex(int(got[i])))
                           for i in bad[:5]]
    assert b16.to_f32_array(all_patterns()).tobytes() == _widened_patterns()
