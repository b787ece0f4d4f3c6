"""IEEE 754-2008 binary16 (half precision) emulated in software.

A half value is carried around as its raw bit pattern, a uint16 ndarray
(or a plain int in [0, 0xFFFF] for format_pattern).  Layout is 1 sign
bit, 5 exponent bits, 10 mantissa bits.

The module holds conversions only, no arithmetic: callers widen with
to_f32_array (exact), compute in f32 and round once with
from_f32_array.  Both run the compiled loops of `_native` and, where
those cannot be built, numpy's native half conversion with its NaNs
pinned to one canonical pattern; the two give the same bits.  The test
suite checks every path bit-exactly against exact rational oracles on
all 65536 patterns, on every f32 exponent and on every rounding
boundary.

All rounding is round-to-nearest-even.  Subnormals are fully supported
(never flushed).  Every NaN collapses to one canonical quiet NaN.
"""

from __future__ import annotations

import numpy as np

from ._native import lib as _kernel

MANT_MASK = 0x03FF
CANONICAL_NAN = 0x7E00

_F32_NAN_BITS = 0x7FC00000


def from_f32_array(x: np.ndarray) -> np.ndarray:
    """float32 array -> uint16 pattern array, rounded to nearest even."""
    x32 = np.asarray(x, dtype=np.float32, order="C")
    lib = _kernel()
    if lib is None:
        return _from_f32_numpy(x32)
    bits = np.empty(x32.shape, dtype=np.uint16)
    lib.f32_to_f16(x32.ctypes.data, bits.ctypes.data, x32.size)
    return bits


def _from_f32_numpy(x32: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        h = x32.astype(np.float16)
    nan_mask = np.isnan(x32)  # an f32 is NaN exactly when its f16 rounding is
    bits = h.view(np.uint16)
    if nan_mask.any():
        bits[nan_mask] = CANONICAL_NAN
    return bits


def to_f32_array(bits: np.ndarray) -> np.ndarray:
    """uint16 pattern array -> float32 array (exact; NaNs canonical)."""
    h = np.asarray(bits, dtype=np.uint16, order="C")
    lib = _kernel()
    if lib is None:
        return _to_f32_numpy(h)
    x = np.empty(h.shape, dtype=np.float32)
    lib.f16_to_f32(h.ctypes.data, x.ctypes.data, h.size)
    return x


def _to_f32_numpy(h: np.ndarray) -> np.ndarray:
    return canonicalize_f32_nans(h.view(np.float16).astype(np.float32))


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
