"""Shorthands the tests build on the package's own tensor API.

Unlike oracles.py, these call into mptrain (every value goes through
tensor.store); they only save the tests some typing, and no run of the
package reaches them.
"""

from __future__ import annotations

import numpy as np

from mptrain import nn
from mptrain import tensor as T
from mptrain.tensor import DType, Tensor


def full(shape, dtype: DType, value: float) -> Tensor:
    return T.store(np.full(tuple(shape), value, dtype=np.float32), dtype)


def from_values(shape, dtype: DType, values) -> Tensor:
    """Raises ValueError when the count of values does not fit shape."""
    return T.store(np.asarray(list(values), dtype=np.float32).reshape(tuple(shape)),
                   dtype)


def item(t: Tensor) -> float:
    """The value of a single-element tensor (ValueError for any other)."""
    return float(t.widen().reshape(()))


def bits_equal(a: Tensor, b: Tensor) -> bool:
    """Bit-pattern equality (distinguishes -0/+0, compares NaNs equal)."""
    return (a.shape == b.shape and a.dtype is b.dtype
            and a.data.tobytes() == b.data.tobytes())


def bind_f32(model: nn.Model, values: dict[str, np.ndarray]) -> None:
    """Point model.params at F32 tensors of `values`."""
    for key, arr in values.items():
        model.params[key] = T.store(arr, DType.F32)
