"""IEEE 754-2008 binary16 (half precision) emulated in software.

A half value is carried around as its raw bit pattern: a plain int in
[0, 0xFFFF] for the scalar API, or a uint16 ndarray for the array API.
Layout is 1 sign bit, 5 exponent bits, 10 mantissa bits.

The module holds conversions only, no arithmetic: callers widen with
to_f32_array (exact), compute in f32 and round once with
from_f32_array.  The scalar conversions are the bit-level reference
implementation, used by the `halfdump` command.  The array functions
take the fast path through numpy's native half conversion; the test
suite asserts bit-exact agreement between the two on every one of the
65536 patterns and on millions of random inputs, so either path can be
taken as the format's semantics.

All rounding is round-to-nearest-even.  Subnormals are fully supported
(never flushed).  Every NaN collapses to one canonical quiet NaN.
"""

from __future__ import annotations

import enum
import math
import struct

import numpy as np

# Field masks and the patterns the conversions produce
SIGN_MASK = 0x8000
EXP_MASK = 0x7C00
MANT_MASK = 0x03FF

POS_INF = 0x7C00
CANONICAL_NAN = 0x7E00

MAX_FINITE_VALUE = 65504.0

_F32_NAN_BITS = 0x7FC00000


class HalfClass(enum.Enum):
    ZERO = "zero"
    SUBNORMAL = "subnormal"
    NORMAL = "normal"
    INFINITY = "infinity"
    NAN = "nan"


def f32_bits(x: float) -> int:
    """Bit pattern of x after rounding to single precision (RNE)."""
    try:
        return struct.unpack("<I", struct.pack("<f", x))[0]
    except OverflowError:
        # double input rounds to f32 infinity
        return 0xFF800000 if x < 0 else 0x7F800000


def _round_shift_rne(sig: int, shift: int) -> int:
    """Round sig / 2^shift to the nearest integer, ties to even."""
    if shift <= 0:
        return sig << -shift
    kept = sig >> shift
    rem = sig & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if rem > half or (rem == half and (kept & 1)):
        kept += 1
    return kept


def from_f32(x: float) -> int:
    """Convert a single-precision value to the nearest binary16 pattern.

    The input is first coerced to single precision (Python floats are
    doubles), then converted with a single correct rounding.  Overflow
    gives a signed infinity, magnitudes rounding below 2^-24 give a
    signed zero, and subnormal results are exact.
    """
    f = f32_bits(x)
    sign = (f >> 16) & SIGN_MASK
    exp = (f >> 23) & 0xFF
    mant = f & 0x7FFFFF

    if exp == 0xFF:
        return CANONICAL_NAN if mant else sign | POS_INF

    if exp == 0:
        # f32 subnormal: magnitude < 2^-126, far below the half of the
        # smallest binary16 subnormal, so it rounds to signed zero.
        return sign

    e = exp - 127
    sig24 = 0x800000 | mant  # 24-bit significand, implicit bit set

    if e >= 16:
        return sign | POS_INF

    if e < -25:
        return sign

    if e <= -15:
        # Subnormal target: quantum is 2^-24, value is sig24 * 2^(e-23).
        n = _round_shift_rne(sig24, -e - 1)
        # n can carry into the normal range (n == 1024 -> 2^-14) and the
        # encoding handles that naturally: exponent field becomes 1.
        return sign | n

    # Normal target: keep 11 significand bits out of 24.
    n = _round_shift_rne(sig24, 13)
    he = e + 15
    if n == 0x800:  # rounding carried: significand became 2^11
        n >>= 1
        he += 1
    if he >= 31:
        return sign | POS_INF
    return sign | (he << 10) | (n & MANT_MASK)


def to_f32(h: int) -> float:
    """Exact widening of a binary16 pattern to its single-precision value.

    Finite values and infinities are preserved exactly; every NaN widens
    to the canonical quiet NaN.
    """
    sign = -1.0 if h & SIGN_MASK else 1.0
    exp = (h >> 10) & 0x1F
    mant = h & MANT_MASK

    if exp == 0x1F:
        if mant:
            return float("nan")
        return sign * float("inf")
    if exp == 0:
        return sign * math.ldexp(mant, -24)
    return sign * math.ldexp(0x400 | mant, exp - 25)


def classify(h: int) -> HalfClass:
    exp = (h >> 10) & 0x1F
    mant = h & MANT_MASK
    if exp == 0x1F:
        return HalfClass.NAN if mant else HalfClass.INFINITY
    if exp == 0:
        return HalfClass.SUBNORMAL if mant else HalfClass.ZERO
    return HalfClass.NORMAL


def exponent_of(h: int) -> int:
    """floor(log2 |value|) of a finite nonzero pattern, else ValueError."""
    kind = classify(h)
    if kind is HalfClass.NORMAL:
        return ((h >> 10) & 0x1F) - 15
    if kind is HalfClass.SUBNORMAL:
        return (h & MANT_MASK).bit_length() - 1 - 24
    raise ValueError(f"exponent undefined for {kind.value} pattern 0x{h:04X}")


# ---------------------------------------------------------------------------
# Array API.  numpy's native conversions implement the same RNE semantics;
# the tests pin that equivalence down bit-exactly against the scalar path.
# ---------------------------------------------------------------------------

def from_f32_array(x: np.ndarray) -> np.ndarray:
    """Vectorized from_f32: float32 array -> uint16 pattern array."""
    x32 = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        h = x32.astype(np.float16)
    nan_mask = np.isnan(x32)  # an f32 is NaN exactly when its f16 rounding is
    bits = h.view(np.uint16)
    if nan_mask.any():
        bits[nan_mask] = CANONICAL_NAN
    return bits


def to_f32_array(bits: np.ndarray) -> np.ndarray:
    """Vectorized to_f32: uint16 pattern array -> float32 array (exact)."""
    h = np.asarray(bits, dtype=np.uint16).view(np.float16)
    return canonicalize_f32_nans(h.astype(np.float32))


def canonicalize_f32_nans(x: np.ndarray) -> np.ndarray:
    """Overwrite every NaN of the float32 array x, in place, with the
    canonical quiet NaN 0x7FC00000; returns x."""
    nan_mask = np.isnan(x)
    if nan_mask.any():
        x[nan_mask] = np.uint32(_F32_NAN_BITS).view(np.float32)
    return x


def exponent_of_array(x: np.ndarray) -> np.ndarray:
    """floor(log2 |x|) for finite nonzero float entries (exact via frexp)."""
    _, e = np.frexp(np.abs(x))
    return e.astype(np.int64) - 1


def format_pattern(h: int) -> str:
    """Human-readable field breakdown of one pattern (used by the CLI)."""
    sign = (h >> 15) & 1
    exp = (h >> 10) & 0x1F
    mant = h & MANT_MASK
    kind = classify(h)
    parts = [
        f"pattern  = 0x{h:04X} (0b{sign:01b}_{exp:05b}_{mant:010b})",
        f"class    = {kind.value}",
        f"value    = {to_f32(h)!r}",
    ]
    if kind in (HalfClass.NORMAL, HalfClass.SUBNORMAL):
        parts.append(f"exponent = {exponent_of(h)}")
    return "\n".join(parts)
