"""Reverse-mode differentiable layers with explicit precision placement.

Layer math follows one discipline: tensors that cross layer boundaries
(activations, activation gradients, weight gradients) are stored in the
policy's compute dtype (F16 in mixed precision, F32 in baseline), while
the arithmetic inside a layer runs in f32.  Every rounding a layer
makes is one `_store`.  Dot products accumulate per the policy's
AccumMode, and the f32 accumulator that `T.matmul` returns is stored by
the layer or used in f32; batch statistics, softmax normalizers and other
reductions accumulate in f32 and exist only as f32 side-band values on
the tape.  A layer's tape record is one dict of what its backward reads:
stored Tensors in the compute dtype, side-band values as ndarrays.

A model is an ordered list of layers whose last element is a loss layer
(SoftmaxCrossEntropy or MeanSquaredError).  Parameters are held in a
dict keyed "<layer_index>.<name>" so an optimizer can own the master
copies and re-bind fresh low-precision shadows before every step; f32
state is keyed the same way.  tests/oracles.py holds the f64 reference.
"""

from __future__ import annotations

import functools
import inspect
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import AccumMode, DType, Tensor


@dataclass(frozen=True)
class PrecisionPolicy:
    compute_dtype: DType = DType.F32
    accum: AccumMode = AccumMode.ACC32


F32_POLICY = PrecisionPolicy(DType.F32, AccumMode.ACC32)


@dataclass
class ActivationTape:
    """One record per layer: what its backward reads, keyed by name."""

    entries: list[dict]
    policy: PrecisionPolicy


@dataclass
class Gradients:
    """Weight gradients keyed like params; activation gradients per layer
    (gradient w.r.t. each layer's input, loss layer included)."""

    weights: dict[str, Tensor]
    activations: list[Optional[Tensor]]


class ShapeError(ValueError):
    """A layer or loss input whose shape does not fit the layer."""


def _store(values: np.ndarray, policy: PrecisionPolicy) -> Tensor:
    return T.store(values, policy.compute_dtype)


def _normal(shape, fan_in: int, seed: int, index: int, k: int = 0) -> np.ndarray:
    """Writable f32 N(0, 1/fan_in) draws from stream k of layer `index`."""
    return T.random_normal(shape, 0.0, 1.0 / np.sqrt(fan_in),
                           seed=seed, stream=(index << 8) | k)


@functools.cache
def _signature(cls: type) -> inspect.Signature:
    """A layer constructor's signature, annotations resolved to types."""
    return inspect.signature(cls, eval_str=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |x| and stays in f32
    return np.float32(0.5) * (np.tanh(np.float32(0.5) * x) + np.float32(1.0))


class Layer:
    """A layer is its constructor plus the methods below.  The signature
    is the spec: each parameter is an int, float or bool attribute of the
    same name, written name=value after `*`.  forward and backward see
    only this layer's params and state, keyed by bare name ("weight")."""

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {}

    def init_values(self, seed: int, index: int) -> dict[str, np.ndarray]:
        return {}

    def init_state(self) -> dict[str, np.ndarray]:
        """Fresh f32 arrays that forward may update in place."""
        return {}

    def forward(self, x: Tensor, params: dict[str, Tensor],
                policy: PrecisionPolicy, rec: dict, train: bool,
                state: dict[str, np.ndarray]) -> Tensor:
        raise NotImplementedError

    def backward(self, dy: Tensor, params: dict[str, Tensor],
                 policy: PrecisionPolicy, rec: dict, want_dx: bool = True
                 ) -> tuple[Optional[Tensor], dict[str, Tensor]]:
        raise NotImplementedError

    def spec_string(self) -> str:
        """The layer as configs and checkpoint manifests write it."""
        args = []
        for p in _signature(type(self)).parameters.values():
            value = getattr(self, p.name)
            text = str(value).lower() if isinstance(value, bool) else str(value)
            args.append(f"{p.name}={text}" if p.kind is p.KEYWORD_ONLY else text)
        kind = type(self).__name__
        return f"{kind}({','.join(args)})" if args else kind

    def __repr__(self):
        return self.spec_string()


class Linear(Layer):
    """Reads [batch, ...]: the trailing dims are the features; dx keeps x's shape."""

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True):
        if in_features < 1 or out_features < 1:
            raise ValueError("Linear dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.bias = bias

    def param_shapes(self):
        shapes = {"weight": (self.in_features, self.out_features)}
        if self.bias:
            shapes["bias"] = (self.out_features,)
        return shapes

    def init_values(self, seed, index):
        vals = {"weight": _normal((self.in_features, self.out_features),
                                  self.in_features, seed, index)}
        if self.bias:
            vals["bias"] = np.zeros(self.out_features, dtype=np.float32)
        return vals

    def forward(self, x, params, policy, rec, train, state):
        flat = T.reshape(x, (x.shape[0], -1))  # a view
        if flat.shape[1] != self.in_features:
            raise ShapeError(f"Linear expected [batch,...] of {self.in_features} "
                             f"features, got {x.shape}")
        rec["x"] = x
        acc = T.matmul(flat, params["weight"], policy.accum)
        if self.bias:
            acc = acc + params["bias"].widen()[None, :]
        return _store(acc, policy)  # bias joins in f32, one store

    def backward(self, dy, params, policy, rec, want_dx=True):
        x = rec["x"]
        flat = T.reshape(x, (x.shape[0], -1))
        grads = {"weight": _store(T.matmul(T.transpose(flat), dy, policy.accum), policy)}
        if self.bias:
            grads["bias"] = _store(T.seq_sum(dy.widen(), 0), policy)
        dx = None
        if want_dx:
            dx = T.reshape(_store(T.matmul(dy, T.transpose(params["weight"]),
                                           policy.accum), policy), x.shape)
        return dx, grads


class Conv2d(Layer):
    """2-d convolution via im2col + the ordered matmul.

    The contraction order over (channel, kh, kw) is the row-major layout
    of the patch matrix, fixed for reproducibility.  With one input
    channel, [batch, h, w] input reads as [batch, 1, h, w]; dx comes back
    in the input's shape.
    """

    def __init__(self, in_channels: int, out_channels: int, kh: int, kw: int,
                 *, stride: int = 1, pad: int = 0):
        if min(in_channels, out_channels, kh, kw, stride) < 1 or pad < 0:
            raise ValueError("bad Conv2d geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kh = kh
        self.kw = kw
        self.stride = stride
        self.pad = pad

    def param_shapes(self):
        return {"weight": (self.out_channels, self.in_channels, self.kh, self.kw),
                "bias": (self.out_channels,)}

    def init_values(self, seed, index):
        return {"weight": _normal(self.param_shapes()["weight"],
                                  self.in_channels * self.kh * self.kw, seed, index),
                "bias": np.zeros(self.out_channels, dtype=np.float32)}

    def _geometry(self, shape):
        if len(shape) == 3 and self.in_channels == 1:
            shape = (shape[0], 1, *shape[1:])
        if len(shape) != 4 or shape[1] != self.in_channels:
            raise ShapeError(f"Conv2d expected [batch,{self.in_channels},h,w], got {shape}")
        b, c, h, w = shape
        oh = (h + 2 * self.pad - self.kh) // self.stride + 1
        ow = (w + 2 * self.pad - self.kw) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"Conv2d kernel does not fit input {shape}")
        return b, c, h, w, oh, ow

    def forward(self, x, params, policy, rec, train, state):
        b, c, h, w, oh, ow = self._geometry(x.shape)
        p, s = self.pad, self.stride
        # im2col on the stored bits: rows (b, oh, ow), columns (c, kh, kw)
        padded = np.pad(x.data.reshape(b, c, h, w), ((0, 0), (0, 0), (p, p), (p, p)))
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (self.kh, self.kw), axis=(2, 3))[:, :, ::s, ::s]
        cols_t = T.Tensor(np.transpose(windows, (0, 2, 3, 1, 4, 5)).reshape(
            b * oh * ow, c * self.kh * self.kw), x.dtype)
        wmat = T.reshape(params["weight"],
                         (self.out_channels, c * self.kh * self.kw))
        acc = T.matmul(cols_t, T.transpose(wmat), policy.accum)
        acc = acc + params["bias"].widen()[None, :]
        y = _store(acc, policy)
        rec["x"] = x
        rec["cols"] = cols_t
        return T.transpose(T.reshape(y, (b, oh, ow, self.out_channels)),
                           (0, 3, 1, 2))

    def backward(self, dy, params, policy, rec, want_dx=True):
        x = rec["x"]
        cols_t = rec["cols"]
        b, c, h, w, oh, ow = self._geometry(x.shape)
        p, s = self.pad, self.stride

        dy_t = T.reshape(T.transpose(dy, (0, 2, 3, 1)),
                         (b * oh * ow, self.out_channels))

        dw2d = _store(T.matmul(T.transpose(cols_t), dy_t, policy.accum), policy)
        dw = T.reshape(T.transpose(dw2d),
                       (self.out_channels, c, self.kh, self.kw))
        db = _store(T.seq_sum(dy_t.widen(), 0), policy)
        if not want_dx:
            return None, {"weight": dw, "bias": db}

        wmat = T.reshape(params["weight"],
                         (self.out_channels, c * self.kh * self.kw))
        dcols = T.matmul(dy_t, wmat, policy.accum).reshape(
            b, oh, ow, c, self.kh, self.kw)

        # col2im: overlapping patches add in f32, (kh, kw) loop order fixed
        dxp = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=np.float32)
        for i in range(self.kh):
            for j in range(self.kw):
                dxp[:, :, i:i + oh * s:s, j:j + ow * s:s] += np.transpose(
                    dcols[:, :, :, :, i, j], (0, 3, 1, 2))
        dx = T.reshape(_store(dxp[:, :, p:p + h, p:p + w], policy), x.shape)
        return dx, {"weight": dw, "bias": db}


class ReLU(Layer):
    def forward(self, x, params, policy, rec, train, state):
        rec["x"] = x
        return _store(np.maximum(x.widen(), np.float32(0)), policy)

    def backward(self, dy, params, policy, rec, want_dx=True):
        mask = rec["x"].widen() > 0
        dx = _store(np.where(mask, dy.widen(), np.float32(0)), policy)
        return dx, {}


def _finite_f32(name: str, value: float) -> float:
    """value as a float; ValueError unless it is finite as the layer's f32."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float32(value)):
            raise ValueError(f"{name} must be finite as an f32, got {value!r}")
    return float(value)


class LeakyReLU(Layer):
    def __init__(self, slope: float = 0.01):
        self.slope = _finite_f32("slope", slope)

    def forward(self, x, params, policy, rec, train, state):
        rec["x"] = x
        xw = x.widen()
        return _store(np.where(xw > 0, xw, np.float32(self.slope) * xw), policy)

    def backward(self, dy, params, policy, rec, want_dx=True):
        xw = rec["x"].widen()
        g = np.where(xw > 0, np.float32(1.0), np.float32(self.slope))
        return _store(dy.widen() * g, policy), {}


class Tanh(Layer):
    def forward(self, x, params, policy, rec, train, state):
        y = _store(np.tanh(x.widen()), policy)
        rec["y"] = y
        return y

    def backward(self, dy, params, policy, rec, want_dx=True):
        yw = rec["y"].widen()  # derivative from the stored value
        return _store(dy.widen() * (np.float32(1.0) - yw * yw), policy), {}


class Sigmoid(Layer):
    def forward(self, x, params, policy, rec, train, state):
        y = _store(_sigmoid(x.widen()), policy)
        rec["y"] = y
        return y

    def backward(self, dy, params, policy, rec, want_dx=True):
        yw = rec["y"].widen()
        return _store(dy.widen() * yw * (np.float32(1.0) - yw), policy), {}


class BatchNorm(Layer):
    """Feature-wise batch norm over 2-d input; statistics in f32 only.

    Biased variance; running stats are blended in f32 with `momentum`
    weighting the fresh batch statistic.
    """

    def __init__(self, features: int, *, momentum: float = 0.1,
                 epsilon: float = 1e-5):
        if features < 1:
            raise ValueError("features must be positive")
        if not 0 < momentum <= 1:
            raise ValueError("momentum must be in (0, 1]")
        self.epsilon = _finite_f32("epsilon", epsilon)
        if not np.float32(epsilon) > 0:
            raise ValueError("epsilon must be > 0")
        self.features = features
        self.momentum = float(momentum)

    def param_shapes(self):
        return {"gamma": (self.features,), "beta": (self.features,)}

    def init_values(self, seed, index):
        return {"gamma": np.ones(self.features, dtype=np.float32),
                "beta": np.zeros(self.features, dtype=np.float32)}

    def init_state(self):
        return {"running_mean": np.zeros(self.features, np.float32),
                "running_var": np.ones(self.features, np.float32)}

    def forward(self, x, params, policy, rec, train, state):
        if len(x.shape) != 2 or x.shape[1] != self.features:
            raise ShapeError(f"BatchNorm expected [batch,{self.features}], got {x.shape}")
        xw = x.widen()
        b = x.shape[0]
        if train:
            mean = T.seq_sum(xw, axis=0) / np.float32(b)
            centered = xw - mean[None, :]
            var = T.seq_sum(centered * centered, axis=0) / np.float32(b)
            mom = np.float32(self.momentum)
            for run, stat in ((state["running_mean"], mean), (state["running_var"], var)):
                run[...] = (np.float32(1) - mom) * run + mom * stat  # model.state's array
        else:
            mean, var = state["running_mean"], state["running_var"]
            centered = xw - mean[None, :]
        invstd = np.float32(1.0) / np.sqrt(var + np.float32(self.epsilon))
        xhat = centered * invstd[None, :]
        y = params["gamma"].widen()[None, :] * xhat + params["beta"].widen()[None, :]
        rec["x"] = x
        rec["mean"] = mean
        rec["invstd"] = invstd
        return _store(y, policy)

    def backward(self, dy, params, policy, rec, want_dx=True):
        x = rec["x"]
        xw = x.widen()
        b = np.float32(x.shape[0])
        mean, invstd = rec["mean"], rec["invstd"]
        xhat = (xw - mean[None, :]) * invstd[None, :]
        dyw = dy.widen()

        dgamma = T.seq_sum(dyw * xhat, axis=0)
        dbeta = T.seq_sum(dyw, axis=0)
        dxhat = dyw * params["gamma"].widen()[None, :]
        sum_dxhat = T.seq_sum(dxhat, axis=0)
        sum_dxhat_xhat = T.seq_sum(dxhat * xhat, axis=0)
        dx = (invstd[None, :] / b) * (b * dxhat - sum_dxhat[None, :]
                                      - xhat * sum_dxhat_xhat[None, :])
        grads = {"gamma": _store(dgamma, policy), "beta": _store(dbeta, policy)}
        return _store(dx, policy), grads


class LSTMCell(Layer):
    """Standard LSTM cell unrolled over [batch, time, features] input;
    returns the final hidden state.  Gate layout along the 4H axis is
    input | forget | cell | output; each step tapes its four gates as one
    stored [batch, 4H] tensor."""

    def __init__(self, in_features: int, hidden: int):
        if in_features < 1 or hidden < 1:
            raise ValueError("LSTMCell dimensions must be positive")
        self.in_features = in_features
        self.hidden = hidden

    def param_shapes(self):
        return {"w_ih": (self.in_features, 4 * self.hidden),
                "w_hh": (self.hidden, 4 * self.hidden),
                "bias": (4 * self.hidden,)}

    def init_values(self, seed, index):
        shapes = self.param_shapes()
        return {"w_ih": _normal(shapes["w_ih"], self.in_features, seed, index, 0),
                "w_hh": _normal(shapes["w_hh"], self.hidden, seed, index, 1),
                "bias": np.zeros(4 * self.hidden, dtype=np.float32)}

    def forward(self, x, params, policy, rec, train, state):
        if len(x.shape) != 3 or x.shape[2] != self.in_features:
            raise ShapeError(f"LSTMCell expected [batch,time,{self.in_features}], got {x.shape}")
        b, steps, _ = x.shape
        h_t = T.zeros((b, self.hidden), policy.compute_dtype)
        c_t = T.zeros((b, self.hidden), policy.compute_dtype)
        xs = rec["xs"] = T.transpose(x, (1, 0, 2))  # [time, batch, features]
        bias = params["bias"].widen()[None, :]
        for t in range(steps):
            z = (T.matmul(T.slice_(xs, t), params["w_ih"], policy.accum)
                 + T.matmul(h_t, params["w_hh"], policy.accum) + bias)
            zi, zf, zg, zo = np.split(z, 4, axis=1)
            gates = _store(np.concatenate(
                [_sigmoid(zi), _sigmoid(zf), np.tanh(zg), _sigmoid(zo)], axis=1), policy)
            gi, gf, gg, go = np.split(gates.widen(), 4, axis=1)
            c_new = _store(gf * c_t.widen() + gi * gg, policy)
            h_new = _store(go * np.tanh(c_new.widen()), policy)
            rec[f"t{t}.h_prev"] = h_t
            rec[f"t{t}.c_prev"] = c_t
            rec[f"t{t}.gates"] = gates
            rec[f"t{t}.c"] = c_new
            h_t, c_t = h_new, c_new
        return h_t

    def backward(self, dy, params, policy, rec, want_dx=True):
        xs = rec["xs"]
        steps, b, _ = xs.shape
        one = np.float32(1.0)
        dh = dy
        dc = T.zeros((b, self.hidden), policy.compute_dtype)
        dw_ih = np.zeros(params["w_ih"].shape, dtype=np.float32)
        dw_hh = np.zeros(params["w_hh"].shape, dtype=np.float32)
        db = np.zeros(4 * self.hidden, dtype=np.float32)
        dx_steps = []
        w_ih_t = T.transpose(params["w_ih"]) if want_dx else None
        w_hh_t = T.transpose(params["w_hh"])

        for t in reversed(range(steps)):
            gi, gf, gg, go = np.split(rec[f"t{t}.gates"].widen(), 4, axis=1)
            c_new = rec[f"t{t}.c"].widen()
            c_prev = rec[f"t{t}.c_prev"].widen()
            tanh_c = np.tanh(c_new)

            dhw = dh.widen()
            dcw = dc.widen() + dhw * go * (one - tanh_c * tanh_c)
            dzi = dcw * gg * gi * (one - gi)
            dzf = dcw * c_prev * gf * (one - gf)
            dzg = dcw * gi * (one - gg * gg)
            dzo = dhw * tanh_c * go * (one - go)
            dz = _store(np.concatenate([dzi, dzf, dzg, dzo], axis=1), policy)

            h_prev = rec[f"t{t}.h_prev"]
            dw_ih += T.matmul(T.transpose(T.slice_(xs, t)), dz, policy.accum)
            dw_hh += T.matmul(T.transpose(h_prev), dz, policy.accum)
            db += T.seq_sum(dz.widen(), axis=0)

            if want_dx:
                dx_steps.append(T.matmul(dz, w_ih_t, policy.accum))
            dh = _store(T.matmul(dz, w_hh_t, policy.accum), policy)
            dc = _store(dcw * gf, policy)

        dx = _store(np.stack(dx_steps[::-1], axis=1), policy) if want_dx else None
        grads = {"w_ih": _store(dw_ih, policy), "w_hh": _store(dw_hh, policy),
                 "bias": _store(db, policy)}
        return dx, grads


class LabelError(ValueError):
    """Class labels outside the range the model's output width allows."""


class LossLayer(Layer):
    def loss(self, pred: Tensor, targets: Tensor, policy, rec: dict) -> float:
        raise NotImplementedError

    def loss_grad(self, seed: float, policy, rec: dict) -> Tensor:
        raise NotImplementedError


class SoftmaxCrossEntropy(LossLayer):
    """Mean cross entropy over the batch; exp/log and the row sums run
    in f32, probabilities live on the tape as f32 side-band only."""

    def loss(self, pred, targets, policy, rec):
        zw = pred.widen()
        if zw.ndim != 2:
            raise ShapeError(f"SoftmaxCrossEntropy expected [batch,classes], got {zw.shape}")
        labels = targets.widen().astype(np.int64).reshape(-1)
        if labels.min() < 0 or labels.max() >= zw.shape[1]:
            raise LabelError(f"labels must lie in [0, {zw.shape[1]}), got "
                             f"[{labels.min()}, {labels.max()}]")
        if zw.shape[0] != labels.shape[0]:
            raise ShapeError(f"SoftmaxCrossEntropy got {labels.size} labels for {zw.shape[0]} rows")
        with np.errstate(over="ignore", invalid="ignore"):
            m = zw.max(axis=1, keepdims=True)
            e = np.exp(zw - m)
            s = T.seq_sum(e, axis=1)
            logsum = np.log(s) + m[:, 0]
            per_row = logsum - zw[np.arange(zw.shape[0]), labels]
            loss = T.seq_sum(per_row) / np.float32(zw.shape[0])
            rec["probs"] = e / s[:, None]
        rec["labels"] = labels
        return float(loss)

    def loss_grad(self, seed, policy, rec):
        probs = rec["probs"]
        labels = rec["labels"]
        b = probs.shape[0]
        g = probs.copy()
        g[np.arange(b), labels] -= np.float32(1.0)
        g *= np.float32(seed) / np.float32(b)
        return _store(g, policy)


class MeanSquaredError(LossLayer):
    """Mean of squared residuals over every element."""

    def loss(self, pred, targets, policy, rec):
        tw = targets.widen()
        pw = pred.widen()
        if pw.shape != tw.shape:
            raise ShapeError(f"MeanSquaredError prediction {pw.shape} vs target {tw.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            diff = pw - tw
            loss = T.seq_sum(diff * diff) / np.float32(diff.size)
        rec["diff"] = diff
        return float(loss)

    def loss_grad(self, seed, policy, rec):
        diff = rec["diff"]
        g = diff * (np.float32(2.0) * np.float32(seed) / np.float32(diff.size))
        return _store(g, policy)


class Model:
    """Layer stack plus the current parameter bindings and f32 state."""

    def __init__(self, layers: list[Layer]):
        if not layers or not isinstance(layers[-1], LossLayer):
            raise ValueError("model must end with a loss layer")
        for lay in layers[:-1]:
            if isinstance(lay, LossLayer):
                raise ValueError("loss layer must be last")
        self.layers = layers
        self.params: dict[str, Tensor] = {}
        self.state: dict[str, np.ndarray] = _keyed(lay.init_state() for lay in layers)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return _keyed(lay.param_shapes() for lay in self.layers)

    def init_values(self, seed: int) -> dict[str, np.ndarray]:
        return _keyed(lay.init_values(seed, i) for i, lay in enumerate(self.layers))

    def spec_strings(self) -> list[str]:
        return [lay.spec_string() for lay in self.layers]


def forward(model: Model, inputs: Tensor, targets: Tensor, policy: PrecisionPolicy,
            train: bool = True) -> tuple[float, ActivationTape]:
    """Run the stack, returning the f32 loss and the tape for backward."""
    if inputs.dtype is not policy.compute_dtype:
        raise ValueError(f"batch dtype {inputs.dtype} does not match policy "
                         f"{policy.compute_dtype}")
    x, entries = _run_layers(model, inputs, policy, train)
    rec = {}
    loss = model.layers[-1].loss(x, targets, policy, rec)
    rec["pred"] = x
    entries.append(rec)
    return loss, ActivationTape(entries, policy)


def backward(model: Model, tape: ActivationTape, loss_scale: float = 1.0,
             first_input_grad: bool = True) -> Gradients:
    """Back-propagate seeded with loss_scale, producing stored gradients.

    first_input_grad=False passes want_dx=False to the first layer: the
    gradient w.r.t. the model input is diagnostics output only.  Linear,
    Conv2d and LSTMCell then skip it (activations[0] is None); weight
    gradients are the same bits either way.
    """
    if len(tape.entries) != len(model.layers):
        raise ValueError("tape does not match model")
    if not loss_scale > 0:
        raise ValueError("loss_scale must be positive")
    policy = tape.policy
    n = len(model.layers)
    weights: dict[str, Tensor] = {}
    activations: list[Optional[Tensor]] = [None] * n

    loss_layer = model.layers[-1]
    dy = loss_layer.loss_grad(loss_scale, policy, tape.entries[-1])
    activations[n - 1] = dy

    for i in range(n - 2, -1, -1):
        dx, grads = model.layers[i].backward(
            dy, _layer_params(model.params, i), policy, tape.entries[i],
            want_dx=i > 0 or first_input_grad)
        for name, g in grads.items():
            weights[f"{i}.{name}"] = g
        activations[i] = dx
        dy = dx
    return Gradients(weights, activations)


def _run_layers(model: Model, x: Tensor, policy: PrecisionPolicy, train: bool
                ) -> tuple[Tensor, list[dict]]:
    """Every non-loss layer in order: the last output, one tape entry each."""
    entries = []
    for i, lay in enumerate(model.layers[:-1]):
        rec = {}
        x = lay.forward(x, _layer_params(model.params, i), policy, rec, train,
                        _layer_params(model.state, i))
        entries.append(rec)
    return x, entries


def _keyed(per_layer) -> dict:
    """One {name: value} dict per layer, merged under "<i>.<name>" keys."""
    return {f"{i}.{name}": v for i, d in enumerate(per_layer) for name, v in d.items()}


def _layer_params(entries: dict, i: int) -> dict:
    """The entries keyed "<i>.<name>", keyed by name."""
    prefix = f"{i}."
    return {k[len(prefix):]: v for k, v in entries.items() if k.startswith(prefix)}


def predictions(model: Model, inputs: Tensor, policy: PrecisionPolicy
                ) -> np.ndarray:
    """Forward through every non-loss layer; returns the f32 outputs."""
    return _run_layers(model, inputs, policy, train=False)[0].widen()


# ---------------------------------------------------------------------------
# Layer spec strings: "Linear(784,256,bias=true)" etc., used by configs
# and checkpoint manifests.
# ---------------------------------------------------------------------------

_LAYER_KINDS = {cls.__name__: cls for cls in (
    Linear, Conv2d, ReLU, LeakyReLU, Tanh, Sigmoid, BatchNorm, LSTMCell,
    SoftmaxCrossEntropy, MeanSquaredError)}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_value(kind: type, text: str):
    """Config or layer-spec text as an int, float, bool or str; a bool is
    `true` or `false` in any case.  Raises ValueError."""
    text = text.strip()
    try:
        return {"true": True, "false": False}[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"expected {kind.__name__}, got {text!r}") from None


def layer_from_spec(text: str) -> Layer:
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"malformed layer spec {text!r}")
    kind, argtext = m.group(1), m.group(2)
    if kind not in _LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    args, kwargs = [], {}
    if argtext and argtext.strip():
        for piece in argtext.split(","):
            if "=" in piece:
                key, val = piece.split("=", 1)
                key = key.strip()
                if key in kwargs:
                    raise ValueError(f"repeated keyword {key!r} in layer spec {text!r}")
                kwargs[key] = val
            elif kwargs:
                raise ValueError(f"positional argument after a keyword in "
                                 f"layer spec {text!r}")
            else:
                args.append(piece)
    cls = _LAYER_KINDS[kind]
    sig = _signature(cls)
    try:
        bound = sig.bind(*args, **kwargs)
        for name, raw in bound.arguments.items():
            bound.arguments[name] = parse_value(sig.parameters[name].annotation, raw)
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad arguments in layer spec {text!r}: {e}") from None
    return cls(*bound.args, **bound.kwargs)


def model_from_specs(specs: list[str]) -> Model:
    return Model([layer_from_spec(s) for s in specs])
