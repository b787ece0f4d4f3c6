"""Dense tensors with F16/F32 storage and ordered accumulation.

F16 tensors hold raw binary16 patterns (uint16); F32 tensors hold
native single-precision values.  All math that reads F16 widens the
patterns exactly to f32, computes there, and rounds once on store, so
the only places binary16 rounding happens are explicit stores.

Reproducibility contract: every reduction and matmul accumulates in a
fixed order.  Matmul accumulates sequentially over the inner index k
and returns its f32 accumulator, which the caller stores.
Reductions fold their axis sequentially from index 0; full reductions
fold the leading axis first, then recurse on the remaining shape.  This
makes results bit-identical run to run, at the cost of never delegating
accumulation to a BLAS.  Matmul and each fold are one call into
`_native`, which runs the compiled loop or its numpy twin, same bits.
"""

from __future__ import annotations

import enum
import math
import struct
from typing import Sequence

import numpy as np

from . import binary16 as b16
from ._native import lib


class DType(enum.Enum):
    F16 = "f16"
    F32 = "f32"


class AccumMode(enum.Enum):
    """Dot-product accumulation: f32 accumulator vs f16 after every step."""

    ACC16 = "acc16"
    ACC32 = "acc32"


_STORAGE = {DType.F16: np.uint16, DType.F32: np.float32}


class Tensor:
    """Immutable dense n-d array over its storage buffer: binary16
    patterns (uint16) for F16, float32 for F32.  Shape and size come
    from the buffer, which the tensor freezes (copying it first when it
    is not C-contiguous)."""

    __slots__ = ("dtype", "data")

    def __init__(self, data: np.ndarray, dtype: DType):
        if data.dtype != _STORAGE[dtype]:
            raise ValueError(f"storage dtype {data.dtype} does not match {dtype}")
        if 0 in data.shape:
            raise ValueError(f"dimensions must be >= 1, got {data.shape}")
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        data.flags.writeable = False
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def widen(self) -> np.ndarray:
        """Exact f32 values: a fresh array for F16, the frozen buffer
        itself for F32."""
        if self.dtype is DType.F16:
            return b16.to_f32_array(self.data)
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.value})"


def store(values: np.ndarray, dtype: DType) -> Tensor:
    """Round an f32 (or wider) value array into a tensor, once.

    This is the single choke point where binary16 rounding happens for
    F16 targets.
    """
    arr = np.asarray(values, dtype=np.float32)
    if dtype is DType.F16:
        return Tensor(b16.from_f32_array(arr), DType.F16)
    return Tensor(arr.copy(), DType.F32)


def zeros(shape: Sequence[int], dtype: DType) -> Tensor:
    shape = tuple(int(d) for d in shape)
    return Tensor(np.zeros(shape, dtype=_STORAGE[dtype]), dtype)


def cast(t: Tensor, dtype: DType) -> Tensor:
    """F32->F16 rounds once; F16->F32 is exact; same-dtype is identity;
    anything but a Tensor raises TypeError."""
    if not isinstance(t, Tensor):
        raise TypeError(f"cast expects a Tensor, got {type(t).__name__}")
    if t.dtype is dtype:
        return t
    if dtype is DType.F16:
        return store(t.data, DType.F16)
    return Tensor(b16.to_f32_array(t.data), DType.F32)


def matmul(a: Tensor, b: Tensor, mode: AccumMode = AccumMode.ACC32) -> np.ndarray:
    """[M,K] @ [K,N] with the accumulator semantics picked by `mode`: the
    f32 accumulator as a fresh array, which the caller stores.

    Each product is formed in f32 and added to an f32 accumulator in
    order k = 0..K-1.  ACC32 leaves the sum in f32.  ACC16 (products are
    still exact: 11-bit significands) rounds the accumulator to the
    binary16 grid after every add, modeling hardware whose accumulator
    is f16, so its result is already on that grid.  Every NaN of the
    result is the canonical one.  The loop is `mm` of `_native`.
    """
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ValueError("matmul expects 2-d tensors")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    if a.dtype is not b.dtype:
        raise ValueError("matmul operands must share a dtype")
    if mode is AccumMode.ACC16 and a.dtype is not DType.F16:
        raise ValueError("ACC16 accumulation is defined for F16 operands only")
    return lib().mm(a.widen(), b.widen(), mode is AccumMode.ACC16)


def seq_sum(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Fixed-order f32 summation of an f32 array.

    A single axis folds sequentially from index 0.  axis=None folds the
    leading axis first and recurses, ending in a 0-d array; the order is
    part of the reproducibility contract.  Every NaN of a fold is the
    canonical one (a 0-d input, with no axis to fold, comes back as is).
    """
    arr = np.asarray(values, dtype=np.float32)
    if axis is not None:
        return _fold_axis(arr, axis)
    while arr.ndim > 0:
        arr = _fold_axis(arr, 0)
    return arr


def _fold_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    if not -arr.ndim <= axis < arr.ndim:
        raise ValueError(f"axis {axis} out of range for {arr.ndim}-d input")
    # fold_rows adds row r to the sum of rows 0..r-1, from +0, one
    # vector across the columns per row
    return lib().fold_rows(np.ascontiguousarray(
        np.moveaxis(arr, axis, 0) if axis % arr.ndim else arr))


def transpose(t: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    return Tensor(np.transpose(t.data, axes), t.dtype)  # Tensor makes it contiguous


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    """A view of the (frozen) buffer in the new shape."""
    return Tensor(t.data.reshape(tuple(int(d) for d in shape)), t.dtype)


def slice_(t: Tensor, key) -> Tensor:
    """Basic slicing (tuples of slices/ints): a view of the frozen buffer
    when the selection is contiguous, otherwise one copy."""
    out = t.data[key]
    if out.ndim == 0:
        out = out.reshape((1,))
    return Tensor(out, t.dtype)


def take(t: Tensor, indices: np.ndarray) -> Tensor:
    """The rows of t at indices, along axis 0."""
    return Tensor(np.take(t.data, np.asarray(indices, dtype=np.int64), axis=0),
                  t.dtype)


# ---------------------------------------------------------------------------
# Deterministic random generation.
#
# Counter-based SplitMix64: output i of stream (seed, stream) is
# mix64(base + (i+1) * GOLDEN) where base = mix64(mix64(seed) ^ stream).
# Normals come from the Box-Muller transform on 53-bit uniforms in
# (0, 1].  The integer pipeline is bit-exact everywhere; the transform
# runs in float64.
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def random_u64(n: int, seed: int, stream: int = 0) -> np.ndarray:
    base = _mix64(np.uint64([seed]))[0] ^ np.uint64(stream & 0xFFFFFFFFFFFFFFFF)
    base = _mix64(np.uint64([base]))[0]
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return _mix64(base + idx * _GOLDEN)


def random_uniform01(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Uniform doubles in (0, 1], 53-bit resolution."""
    bits = random_u64(n, seed, stream)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def random_normal(shape: Sequence[int], mean: float = 0.0, stddev: float = 1.0,
                  seed: int = 0, stream: int = 0) -> np.ndarray:
    """A fresh f32 array of N(mean, stddev^2) draws (Box-Muller)."""
    if stddev < 0:
        raise ValueError("stddev must be >= 0")
    shape = tuple(int(d) for d in shape)
    n = int(np.prod(shape, dtype=np.int64))
    pairs = (n + 1) // 2
    u = random_uniform01(2 * pairs, seed, stream)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return (mean + stddev * z[:n]).astype(np.float32).reshape(shape)


def permutation(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Deterministic permutation of range(n) (argsort of random keys)."""
    return np.argsort(random_u64(n, seed, stream), kind="stable").astype(np.int64)


# ---------------------------------------------------------------------------
# Flat binary container: magic, dtype code, rank, dims (u64 LE), buffer.
# F16 buffers are little-endian uint16 patterns, F32 little-endian IEEE
# singles.
# ---------------------------------------------------------------------------

_MAGIC = b"MPTENS01"
_DTYPE_CODE = {DType.F16: 0, DType.F32: 1}
_CODE_DTYPE = {v: k for k, v in _DTYPE_CODE.items()}
_WIRE = {DType.F16: np.dtype("<u2"), DType.F32: np.dtype("<f4")}


def write_tensor(fh, t: Tensor) -> None:
    fh.write(_MAGIC)
    fh.write(struct.pack("<BB", _DTYPE_CODE[t.dtype], len(t.shape)))
    fh.write(struct.pack(f"<{len(t.shape)}Q", *t.shape))
    fh.write(t.data.astype(_WIRE[t.dtype]).tobytes())


_READ_CHUNK = 1 << 26


def read_upto(fh, n: int) -> bytes:
    """The next n bytes of fh, fewer only at its end.  n may be any int:
    reading in pieces of at most 64 MiB, a size that a file header claims
    beyond what the file holds costs no more than one piece."""
    parts = []
    while n > 0 and (part := fh.read(min(n, _READ_CHUNK))):
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = read_upto(fh, n)
    if len(raw) != n:
        raise ValueError(f"truncated tensor {what} ({len(raw)} of {n} bytes)")
    return raw


def read_tensor(fh) -> Tensor:
    magic = fh.read(8)
    if magic != _MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    code, rank = struct.unpack("<BB", _read_exact(fh, 2, "header"))
    if code not in _CODE_DTYPE:
        raise ValueError(f"unknown dtype code {code}")
    dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "dimensions"))
    dtype = _CODE_DTYPE[code]
    count = math.prod(dims)  # a Python int: no wrap however large
    raw = _read_exact(fh, count * _WIRE[dtype].itemsize, "buffer")
    data = np.frombuffer(raw, dtype=_WIRE[dtype]).astype(_STORAGE[dtype])
    return Tensor(data.reshape(dims), dtype)

