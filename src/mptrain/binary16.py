"""IEEE 754-2008 binary16 (half precision) emulated in software.

A half value is carried around as its raw bit pattern, a uint16 ndarray
(or a plain int in [0, 0xFFFF] for format_pattern).  Layout is 1 sign
bit, 5 exponent bits, 10 mantissa bits.

The module holds conversions only, no arithmetic: callers widen with
to_f32_array (exact), compute in f32 and round once with
from_f32_array.  Each is one call into `_native`, which runs the
compiled loop or its numpy twin with the same bits.  The test suite
checks both bit-exactly against exact rational oracles on all 65536
patterns, on every f32 exponent and on every rounding boundary.

All rounding is round-to-nearest-even.  Subnormals are fully supported
(never flushed).  Every NaN collapses to one canonical quiet NaN.
"""

from __future__ import annotations

import numpy as np

from ._native import CANONICAL_NAN, canonicalize_f32_nans, lib  # noqa: F401 (API)

MANT_MASK = 0x03FF


def from_f32_array(x: np.ndarray) -> np.ndarray:
    """float32 array -> uint16 pattern array, rounded to nearest even."""
    return lib().f32_to_f16(np.asarray(x, dtype=np.float32, order="C"))


def to_f32_array(bits: np.ndarray) -> np.ndarray:
    """uint16 pattern array -> float32 array (exact; NaNs canonical)."""
    return lib().f16_to_f32(np.asarray(bits, dtype=np.uint16, order="C"))


def exponent_of_array(x: np.ndarray) -> np.ndarray:
    """floor(log2 |x|) for finite nonzero float entries (exact via frexp)."""
    _, e = np.frexp(np.abs(x))
    return e.astype(np.int64) - 1


def format_pattern(h: int) -> str:
    """Human-readable field breakdown of one pattern (used by the CLI)."""
    sign, exp, mant = h >> 15, (h >> 10) & 0x1F, h & MANT_MASK
    if exp == 0x1F:
        kind = "nan" if mant else "infinity"
    else:
        kind = ("subnormal" if mant else "zero") if exp == 0 else "normal"
    value = to_f32_array(np.uint16(h))
    parts = [
        f"pattern  = 0x{h:04X} (0b{sign:01b}_{exp:05b}_{mant:010b})",
        f"class    = {kind}",
        f"value    = {float(value)!r}",
    ]
    if kind in ("normal", "subnormal"):
        parts.append(f"exponent = {int(exponent_of_array(value))}")
    return "\n".join(parts)
