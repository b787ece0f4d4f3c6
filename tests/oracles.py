"""Independent reference implementations used only by the test suite.

The binary16 oracles work in exact rational arithmetic
(fractions.Fraction), apart from one vectorized rounding oracle for
inputs too many for Fractions, which scales by powers of two and rounds
in float64 without numpy's f16 cast.  The fixed-order sum oracle folds
one row per numpy add.  The layer oracle is a float64 forward per layer kind,
written from each layer's definition, and the finite-difference
gradient check built on it.  None shares a code path with the package
under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mptrain import nn
from mptrain import tensor as T

HALF_POS_INF = 0x7C00
HALF_NEG_INF = 0xFC00
HALF_NAN = 0x7E00


def round_to_binary16(x: Fraction, negative: bool = False) -> int:
    """Round an exact nonnegative rational to a binary16 pattern (RNE).

    `negative` carries the sign separately so that signed zeros come out
    right.  Overflow follows IEEE: round as if the exponent were
    unbounded, then replace too-large results with infinity.
    """
    sign = 0x8000 if negative else 0x0000
    if x == 0:
        return sign
    assert x > 0

    # Quantum: subnormals live on the 2^-24 grid; a normal with
    # floor(log2 x) = e lives on the 2^(e-10) grid.
    e = _floor_log2(x)
    if e < -14:
        quantum = Fraction(1, 2**24)
    else:
        quantum = Fraction(2) ** (e - 10)

    n = _round_half_even(x / quantum)
    # Rounding can push the significand up one binade; redo with the
    # wider quantum so the grid matches the result's binade.
    if e >= -14 and n == 2048:
        e += 1
        if e > 15:
            return sign | HALF_POS_INF
        quantum = Fraction(2) ** (e - 10)
        n = _round_half_even(x / quantum)

    value = n * quantum
    if value > Fraction(65504):
        return sign | HALF_POS_INF
    if value == 0:
        return sign

    ve = _floor_log2(value)
    if ve < -14:
        # subnormal: n is the count of 2^-24 quanta
        return sign | n
    mant = int(value / Fraction(2) ** (ve - 10)) - 1024
    assert 0 <= mant < 1024
    return sign | ((ve + 15) << 10) | mant


def _floor_log2(x: Fraction) -> int:
    assert x > 0
    e = math.floor(math.log2(float(x))) if 0 < float(x) < math.inf else 0
    # math.log2 on the float image can be off by one at boundaries; fix
    # up exactly.
    while Fraction(2) ** e > x:
        e -= 1
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    return e


def _round_half_even(x: Fraction) -> int:
    lo = math.floor(x)
    rem = x - lo
    if rem > Fraction(1, 2):
        return lo + 1
    if rem < Fraction(1, 2):
        return lo
    return lo if lo % 2 == 0 else lo + 1


def half_from_float(x: float) -> int:
    """Arbitrary-precision conversion oracle for from_f32_array, one value.

    Assumes x is already exactly representable in single precision
    (callers feed it f32 values), so Fraction(x) is the exact input.
    """
    if math.isnan(x):
        return HALF_NAN
    if math.isinf(x):
        return HALF_NEG_INF if x < 0 else HALF_POS_INF
    negative = math.copysign(1.0, x) < 0
    return round_to_binary16(Fraction(abs(x)), negative)


def half_to_fraction(h: int) -> Fraction:
    """Exact value of a finite binary16 pattern."""
    exp = (h >> 10) & 0x1F
    mant = h & 0x3FF
    assert exp != 0x1F, "non-finite pattern has no rational value"
    if exp == 0:
        mag = Fraction(mant, 2**24)
    else:
        mag = Fraction(1024 + mant, 1024) * Fraction(2) ** (exp - 15)
    return -mag if h & 0x8000 else mag


def half_value(h: int) -> float:
    """The value of any binary16 pattern as a float, -0 and infinities
    included; every NaN pattern gives nan."""
    sign = -1.0 if h & 0x8000 else 1.0
    if (h & 0x7C00) == 0x7C00:
        return math.nan if h & 0x3FF else sign * math.inf
    return math.copysign(float(abs(half_to_fraction(h))), sign)


def half_from_f32_array(x) -> np.ndarray:
    """Vectorized half_from_float: each f32 of x to its binary16 pattern.

    |x| is scaled exactly by a power of two onto the grid of the result's
    quantum, 2^q, and rounded there with rint (ties to even) in float64.
    With n quanta the pattern's magnitude bits are (q + 24) * 2^10 + n
    for subnormal and normal results alike, a carry into the next binade
    included; anything from 2^16 up is infinity.
    """
    with np.errstate(invalid="ignore"):  # NaNs are set apart below
        x = np.asarray(x, dtype=np.float32).astype(np.float64)
    nan = np.isnan(x)
    a = np.where(nan, 0.0, np.abs(x))
    _, e = np.frexp(a)  # a = m * 2^e, 0.5 <= m < 1
    q = np.maximum(e - 1, -14) - 10
    n = np.rint(np.ldexp(a, -q))
    mag = np.where(n == 0, 0.0, np.minimum((q + 24) * 1024.0 + n, HALF_POS_INF))
    bits = mag.astype(np.int64) | np.where(np.signbit(x), 0x8000, 0)
    return np.where(nan, HALF_NAN, bits).astype(np.uint16)


def _sign_of(h: int) -> bool:
    return bool(h & 0x8000)


def half_add(a: int, b: int) -> int:
    """Correctly rounded binary16 addition in exact arithmetic."""
    for h in (a, b):
        if (h & 0x7C00) == 0x7C00 and (h & 0x3FF):
            return HALF_NAN
    a_inf = (a & 0x7FFF) == HALF_POS_INF
    b_inf = (b & 0x7FFF) == HALF_POS_INF
    if a_inf or b_inf:
        if a_inf and b_inf and _sign_of(a) != _sign_of(b):
            return HALF_NAN
        return a if a_inf else b
    s = half_to_fraction(a) + half_to_fraction(b)
    if s == 0:
        # exact zero result: IEEE says +0 under RNE unless both addends
        # are negative zero
        neg = _sign_of(a) and _sign_of(b)
        return 0x8000 if neg else 0x0000
    return round_to_binary16(abs(s), s < 0)


def half_mul(a: int, b: int) -> int:
    """Correctly rounded binary16 multiplication in exact arithmetic."""
    for h in (a, b):
        if (h & 0x7C00) == 0x7C00 and (h & 0x3FF):
            return HALF_NAN
    sign = _sign_of(a) != _sign_of(b)
    a_inf = (a & 0x7FFF) == HALF_POS_INF
    b_inf = (b & 0x7FFF) == HALF_POS_INF
    a_zero = (a & 0x7FFF) == 0
    b_zero = (b & 0x7FFF) == 0
    if a_inf or b_inf:
        if a_zero or b_zero:
            return HALF_NAN
        return (0x8000 if sign else 0) | HALF_POS_INF
    p = half_to_fraction(a) * half_to_fraction(b)
    return round_to_binary16(abs(p), sign)


def exact_dot(a_vals, b_vals) -> Fraction:
    """Exact rational dot product (matmul oracle helper)."""
    acc = Fraction(0)
    for x, y in zip(a_vals, b_vals):
        acc += Fraction(x) * Fraction(y)
    return acc


def seq_sum_loop(values, axis=None) -> np.ndarray:
    """tensor.seq_sum as a row loop: each axis folds from +0, adding
    index 0, 1, ... in turn; axis=None folds the leading axis until a
    0-d array is left.  NaN bits are whatever numpy's adds give."""
    arr = np.asarray(values, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for ax in [0] * arr.ndim if axis is None else [axis]:
            moved = np.moveaxis(arr, ax, 0)
            arr = np.zeros(moved.shape[1:], dtype=np.float32)
            for row in moved:
                np.add(arr, row, out=arr)
    return arr


# ---------------------------------------------------------------------------
# Float64 reference forward and the finite-difference gradient check.
# ---------------------------------------------------------------------------

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _linear(lay, x, p):
    y = x @ p["weight"]
    return y + p["bias"] if lay.bias else y


def _conv2d(lay, x, p):
    """Direct convolution, one kernel tap (i, j) at a time."""
    s, pad = lay.stride, lay.pad
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (xp.shape[2] - lay.kh) // s + 1
    ow = (xp.shape[3] - lay.kw) // s + 1
    y = np.zeros((x.shape[0], lay.out_channels, oh, ow)) + p["bias"][:, None, None]
    for i in range(lay.kh):
        for j in range(lay.kw):
            tap = xp[:, :, i:i + (oh - 1) * s + 1:s, j:j + (ow - 1) * s + 1:s]
            y += np.einsum("bchw,oc->bohw", tap, p["weight"][:, :, i, j])
    return y


def _batchnorm(lay, x, p):
    mean = x.mean(axis=0)
    var = ((x - mean) ** 2).mean(axis=0)
    return p["gamma"] * (x - mean) / np.sqrt(var + lay.epsilon) + p["beta"]


def _lstm_cell(lay, x, p):
    h = np.zeros((x.shape[0], lay.hidden))
    c = np.zeros_like(h)
    for t in range(x.shape[1]):
        z = x[:, t] @ p["w_ih"] + h @ p["w_hh"] + p["bias"]
        zi, zf, zg, zo = np.split(z, 4, axis=1)
        c = _sigmoid(zf) * c + _sigmoid(zi) * np.tanh(zg)
        h = _sigmoid(zo) * np.tanh(c)
    return h


_FORWARD_F64 = {
    nn.Linear: _linear,
    nn.Conv2d: _conv2d,
    nn.ReLU: lambda lay, x, p: np.maximum(x, 0.0),
    nn.LeakyReLU: lambda lay, x, p: np.where(x > 0, x, lay.slope * x),
    nn.Tanh: lambda lay, x, p: np.tanh(x),
    nn.Sigmoid: lambda lay, x, p: _sigmoid(x),
    nn.BatchNorm: _batchnorm,
    nn.LSTMCell: _lstm_cell,
}


def _softmax_cross_entropy(pred, targets: T.Tensor) -> float:
    labels = targets.widen().astype(np.int64).reshape(-1)
    m = pred.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(pred - m).sum(axis=1)) + m[:, 0]
    return float(np.mean(logsum - pred[np.arange(pred.shape[0]), labels]))


_LOSS_F64 = {
    nn.SoftmaxCrossEntropy: _softmax_cross_entropy,
    nn.MeanSquaredError: lambda pred, targets: float(
        np.mean((pred - targets.widen().astype(np.float64)) ** 2)),
}


def loss_ref_f64(model: nn.Model, values: dict[str, np.ndarray],
                 inputs: np.ndarray, targets: T.Tensor) -> float:
    """The model's loss in float64 at `values`, keyed like model.params."""
    x = np.asarray(inputs, dtype=np.float64)
    for i, lay in enumerate(model.layers[:-1]):
        prefix = f"{i}."
        params = {k[len(prefix):]: np.asarray(v, dtype=np.float64)
                  for k, v in values.items() if k.startswith(prefix)}
        x = _FORWARD_F64[type(lay)](lay, x, params)
    return _LOSS_F64[type(model.layers[-1])](x, targets)


def grad_check(model: nn.Model, inputs: T.Tensor, targets: T.Tensor,
               epsilon: float = 1e-5) -> float:
    """Worst relative error between analytic gradients (f32 baseline
    policy) and central differences of the f64 reference loss."""
    x32 = T.cast(inputs, T.DType.F32)
    _, tape = nn.forward(model, x32, targets, nn.F32_POLICY, train=True)
    grads = nn.backward(model, tape, 1.0)

    values = {k: v.widen().astype(np.float64) for k, v in model.params.items()}
    x64 = x32.widen().astype(np.float64)

    worst = 0.0
    for key, analytic in grads.weights.items():
        a = analytic.widen().reshape(-1)
        flat = values[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            up = loss_ref_f64(model, values, x64, targets)
            flat[idx] = orig - epsilon
            down = loss_ref_f64(model, values, x64, targets)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(float(a[idx])), abs(numeric), 1e-8)
            worst = max(worst, abs(float(a[idx]) - numeric) / denom)
    return worst
