"""Shorthands the tests build on the package's own tensor API.

Unlike oracles.py, these call into mptrain (every value goes through
tensor.store); they only save the tests some typing, and no run of the
package reaches them.
"""

from __future__ import annotations

import ctypes
import subprocess

import numpy as np
import pytest

from mptrain import _native
from mptrain import binary16 as b16
from mptrain import nn
from mptrain import tensor as T
from mptrain.tensor import AccumMode, DType, Tensor

# f16 storage with f32 accumulation: the "mp" preset's precision
MP_POLICY = nn.PrecisionPolicy(DType.F16, AccumMode.ACC32)

# the batch size gen_underflow_task is tuned for: every activation
# gradient of its first unscaled step lands below 2^-24
UNDERFLOW_BATCH_SIZE = 128


def full(shape, dtype: DType, value: float) -> Tensor:
    return T.store(np.full(tuple(shape), value, dtype=np.float32), dtype)


def from_values(shape, dtype: DType, values) -> Tensor:
    """Raises ValueError when the count of values does not fit shape."""
    return T.store(np.asarray(list(values), dtype=np.float32).reshape(tuple(shape)),
                   dtype)


def half_bits(x: float) -> int:
    """The binary16 pattern of one value through from_f32_array; a
    double beyond f32 range is an f32 infinity first."""
    with np.errstate(over="ignore"):
        return int(b16.from_f32_array(np.float32(x)))


def half_widen(h: int) -> float:
    """The value of one pattern through to_f32_array."""
    return float(b16.to_f32_array(np.uint16(h)))


def item(t: Tensor) -> float:
    """The value of a single-element tensor (ValueError for any other)."""
    return float(t.widen().reshape(()))


def bits_equal(a, b) -> bool:
    """Bit-pattern equality of two Tensors or two ndarrays (distinguishes
    -0/+0, compares NaNs equal)."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.data.tobytes() == b.data.tobytes())


def bind_f32(model: nn.Model, values: dict[str, np.ndarray]) -> None:
    """Point model.params at F32 tensors of `values`."""
    for key, arr in values.items():
        model.params[key] = T.store(arr, DType.F32)


def reload_kernel(monkeypatch) -> None:
    """Make the compiled loops unbuildable for the rest of the test: the
    next matmul, binary16 conversion or seq_sum warns once, and each of
    them runs its numpy loop."""
    def unbuildable():
        raise FileNotFoundError("cc")
    monkeypatch.setattr(_native, "_build", unbuildable)
    monkeypatch.setattr(_native, "_loaded", None)


def bind_loops(monkeypatch, variant: str) -> None:
    """Run every compiled loop as `variant` for the rest of the test:
    "avx2" binds the compiled library, "numpy" runs each loop's numpy
    twin, `_native.NUMPY` (with no warning).  Skips the test where the library cannot be
    built or this CPU cannot run it."""
    assert variant in ("avx2", "numpy"), variant
    if variant == "numpy":
        monkeypatch.setattr(_native, "_loaded", _native.NUMPY)
        return
    try:
        loops = _native._bind(_native._build())
    except (OSError, subprocess.SubprocessError) as e:
        pytest.skip(f"the compiled loops cannot run here ({e})")
    monkeypatch.setattr(_native, "_loaded", loops)


def cpu_without_avx2(monkeypatch) -> None:
    """Make the library's vector_path() read 0 for the rest of the test,
    as on a CPU without AVX2 or F16C, while it still builds and loads:
    the next matmul, binary16 conversion or seq_sum warns once, and each
    of them runs its numpy loop."""
    load = ctypes.CDLL

    class Library:
        def __init__(self, path):
            self._dll = load(path)

        def vector_path(self):
            return 0

        def __getattr__(self, name):
            return getattr(self._dll, name)

    monkeypatch.setattr(_native.ctypes, "CDLL", Library)
    monkeypatch.setattr(_native, "_loaded", None)
