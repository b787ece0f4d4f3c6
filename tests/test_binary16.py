import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptrain import binary16 as b16

import oracles


def all_patterns():
    return np.arange(0x10000, dtype=np.uint16)


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
    assert b16.from_f32(0.0) == 0x0000
    assert b16.from_f32(-0.0) == 0x8000
    assert b16.from_f32(1.0) == 0x3C00
    assert b16.from_f32(2.0**-24) == 0x0001
    assert b16.to_f32(0x0001) == 2.0**-24
    assert b16.to_f32(0x3C00) == 1.0
    assert b16.from_f32(65504.0) == 0x7BFF
    assert b16.to_f32(0x7BFF) == 65504.0


def test_underflow_boundary():
    # (0, 2^-25) -> +0, and 2^-24 -> smallest subnormal
    for x in [1e-12, 2.0**-26, 2.0**-25 * 0.999999]:
        assert b16.from_f32(x) == 0x0000
    assert b16.from_f32(2.0**-25) == 0x0000  # exact tie, even is zero
    just_above = struct.unpack("<f", struct.pack("<I", b16.f32_bits(2.0**-25) + 1))[0]
    assert b16.from_f32(just_above) == 0x0001
    assert b16.from_f32(2.0**-24) == 0x0001


def test_overflow_boundary():
    assert b16.from_f32(65519.99609375) == 0x7BFF
    assert b16.from_f32(65520.0) == b16.POS_INF
    assert b16.from_f32(-65520.0) == oracles.HALF_NEG_INF
    assert b16.from_f32(1e30) == b16.POS_INF
    assert b16.from_f32(1e300) == b16.POS_INF  # double overflows f32 first


def test_nan_and_inf():
    assert b16.from_f32(float("inf")) == b16.POS_INF
    assert b16.from_f32(float("-inf")) == oracles.HALF_NEG_INF
    assert b16.from_f32(float("nan")) == b16.CANONICAL_NAN
    assert math.isnan(b16.to_f32(0x7C01))
    assert math.isnan(b16.to_f32(0xFFFF))
    assert b16.to_f32(b16.POS_INF) == float("inf")


def test_round_trip_exhaustive():
    # every non-NaN pattern is a fixed point; NaNs collapse to canonical
    for h in range(0x10000):
        back = b16.from_f32(b16.to_f32(h))
        if (h & b16.EXP_MASK) == b16.EXP_MASK and h & b16.MANT_MASK:
            assert back == b16.CANONICAL_NAN
        else:
            assert back == h, f"0x{h:04X} -> {b16.to_f32(h)} -> 0x{back:04X}"


def test_to_f32_exhaustive_against_numpy():
    bits = all_patterns()
    ours = np.array([b16.to_f32(int(h)) for h in bits], dtype=np.float32)
    ref = bits.view(np.float16).astype(np.float32)
    finite = np.isfinite(ref)
    assert np.array_equal(ours[finite].view(np.uint32), ref[finite].view(np.uint32))
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    assert np.array_equal(np.isinf(ours), np.isinf(ref))


def test_array_roundtrip_exhaustive():
    bits = all_patterns()
    wide = b16.to_f32_array(bits)
    back = b16.from_f32_array(wide)
    nan = b16.EXP_MASK == (bits & b16.EXP_MASK)
    nan &= (bits & b16.MANT_MASK) != 0
    assert np.array_equal(back[~nan], bits[~nan])
    assert (back[nan] == b16.CANONICAL_NAN).all()


def test_from_f32_against_fraction_oracle_boundaries():
    for x in BOUNDARY_F32:
        x32 = struct.unpack("<f", struct.pack("<I", b16.f32_bits(x)))[0]
        assert b16.from_f32(x) == oracles.half_from_float(x32), repr(x)


def test_from_f32_against_fraction_oracle_random():
    rng = np.random.default_rng(7)
    # mix of scales hitting normals, subnormals, overflow, underflow
    vals = np.concatenate([
        rng.normal(0, 1, 2000),
        rng.normal(0, 1e-7, 2000),
        rng.normal(0, 60000, 2000),
        rng.uniform(-2**-24, 2**-24, 2000),
        rng.uniform(60000, 70000, 1000),
    ]).astype(np.float32)
    for x in vals:
        x = float(x)
        assert b16.from_f32(x) == oracles.half_from_float(x), repr(x)


def test_scalar_matches_array_path():
    rng = np.random.default_rng(11)
    vals = np.concatenate([
        rng.normal(0, 1, 5000),
        rng.normal(0, 1e-7, 5000),
        rng.normal(0, 60000, 5000),
    ]).astype(np.float32)
    arr = b16.from_f32_array(vals)
    for x, h in zip(vals, arr):
        assert b16.from_f32(float(x)) == int(h)


@given(st.floats(width=32, allow_nan=False, allow_infinity=False),
       st.floats(width=32, allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_monotone(a, b):
    # from_f32 is monotone non-decreasing over ordered finite inputs
    lo, hi = (a, b) if a <= b else (b, a)
    def ordered(h):
        return -(h & 0x7FFF) if h & 0x8000 else (h & 0x7FFF)
    assert ordered(b16.from_f32(lo)) <= ordered(b16.from_f32(hi))


def _finite_halves():
    bits = all_patterns()
    return bits[(bits & b16.EXP_MASK) != b16.EXP_MASK]


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
    one = b16.from_f32(1.0)
    tiny = b16.from_f32(2.0**-12)
    assert _h_add(one, tiny) == one  # ratio 4096 > 2048

    h2048 = b16.from_f32(2048.0)
    assert _h_add(h2048, one) == h2048  # tie at half ulp, rounds to even

    # tie against an odd mantissa rounds up instead: the add is recovered
    h2050 = b16.from_f32(2050.0)
    assert b16.to_f32(int(_h_add(h2050, one))) == 2052.0


def test_h_mul_identity():
    rng = np.random.default_rng(5)
    finite = _finite_halves()
    h = rng.choice(finite, 2000)
    # -0 * 1 stays -0; everything finite is a fixed point
    assert np.array_equal(_h_mul(h, b16.from_f32(1.0)), h)


def test_classify_partitions_all_patterns():
    counts = {k: 0 for k in b16.HalfClass}
    for h in range(0x10000):
        counts[b16.classify(h)] += 1
    assert counts[b16.HalfClass.ZERO] == 2
    assert counts[b16.HalfClass.INFINITY] == 2
    assert counts[b16.HalfClass.SUBNORMAL] == 2 * 1023
    assert counts[b16.HalfClass.NAN] == 2 * 1023
    assert sum(counts.values()) == 0x10000


def test_exponent_of():
    assert b16.exponent_of(b16.from_f32(2.0**-24)) == -24
    assert b16.exponent_of(b16.from_f32(65504.0)) == 15
    assert b16.exponent_of(b16.from_f32(1.0)) == 0
    assert b16.exponent_of(b16.from_f32(1.5)) == 0
    assert b16.exponent_of(b16.from_f32(2.0**-14)) == -14
    assert b16.exponent_of(b16.from_f32(2.0**-15)) == -15  # subnormal
    for bad in [0x0000, 0x8000, b16.POS_INF, b16.CANONICAL_NAN]:
        with pytest.raises(ValueError):
            b16.exponent_of(bad)


def test_exponent_of_matches_fraction_log():
    rng = np.random.default_rng(6)
    finite = _finite_halves()
    finite = finite[(finite & 0x7FFF) != 0]
    for h in rng.choice(finite, 3000):
        h = int(h)
        v = abs(oracles.half_to_fraction(h))
        e = b16.exponent_of(h)
        from fractions import Fraction
        assert Fraction(2) ** e <= v < Fraction(2) ** (e + 1)


def test_exponent_of_array_matches_scalar():
    bits = _finite_halves()
    bits = bits[(bits & 0x7FFF) != 0]
    wide = b16.to_f32_array(bits)
    es = b16.exponent_of_array(wide)
    for h, e in zip(bits[::37], es[::37]):
        assert b16.exponent_of(int(h)) == int(e)
