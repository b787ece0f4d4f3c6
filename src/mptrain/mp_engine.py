"""Mixed-precision training loop: master weights, loss scaling, SGD.

One training step runs, in order: sync f16 shadows from the f32
masters (F16 precision only), forward, backward seeded with the loss
scale, unscale the weight gradients in f32, check them for inf/NaN,
then either skip the update (leaving every parameter untouched) or
clip/apply SGD on the masters and re-sync the shadows, and finally let
the scaler do its bookkeeping.

Loss scales are restricted to powers of two so scaling and unscaling
are exponent shifts that introduce no rounding error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import nn
from . import tensor as T
from .tensor import AccumMode, DType, Tensor


class NumericalError(RuntimeError):
    """Non-finite loss where the numerics rule it out (f32 precision), or a
    dynamic loss scale backed off to zero."""


def _is_power_of_two(x: float) -> bool:
    if not (x > 0 and math.isfinite(x)):
        return False
    m, _ = math.frexp(x)
    return m == 0.5


class ConstantScale:
    """Fixed loss scale; overflow steps are skipped with a warning."""

    def __init__(self, scale: float = 1.0):
        # the range where both S and 1/S are finite nonzero f32 values
        if not (_is_power_of_two(scale) and 2.0**-127 <= scale <= 2.0**127):
            raise ValueError(f"loss scale must be a power of two in "
                             f"[2**-127, 2**127], got {scale}")
        self.scale = float(scale)

    dynamic = False

    def update(self, overflow: bool) -> None:
        pass

    def __repr__(self):
        return f"ConstantScale({self.scale})"


class DynamicScale:
    """Backoff on overflow, grow after a run of clean steps.

    Defaults: start at 2^15, halve on overflow, double after 2000
    consecutive clean steps.
    """

    dynamic = True

    def __init__(self, init_scale: float = 2.0**15, growth_factor: float = 2.0,
                 backoff_factor: float = 0.5, growth_interval: int = 2000):
        if not _is_power_of_two(init_scale):
            raise ValueError("init_scale must be a positive power of two")
        if not (_is_power_of_two(growth_factor) and growth_factor > 1):
            raise ValueError("growth_factor must be a power of two > 1")
        if not (_is_power_of_two(backoff_factor) and backoff_factor < 1):
            raise ValueError("backoff_factor must be a power of two < 1")
        if growth_interval < 1:
            raise ValueError("growth_interval must be >= 1")
        self.scale = float(init_scale)
        self.growth_factor = float(growth_factor)
        self.backoff_factor = float(backoff_factor)
        self.growth_interval = int(growth_interval)
        self.steps_since_overflow = 0

    def update(self, overflow: bool) -> None:
        if overflow:
            self.scale *= self.backoff_factor
            self.steps_since_overflow = 0
            if self.scale == 0.0:
                raise NumericalError("dynamic loss scale backed off to 0")
        else:
            self.steps_since_overflow += 1
            if self.steps_since_overflow >= self.growth_interval:
                self.scale *= self.growth_factor
                self.steps_since_overflow = 0

    def __repr__(self):
        return (f"DynamicScale(scale={self.scale}, growth={self.growth_factor}, "
                f"backoff={self.backoff_factor}, interval={self.growth_interval})")


@dataclass
class TrainingPolicy:
    """What the training loop is allowed to do with precision.

    `precision` places every tensor and matmul: F32 storage is the
    baseline, `TrainingPolicy()`; F16 storage is mixed precision, with
    ACC32 or ACC16 dot products, e.g.
    `TrainingPolicy(nn.PrecisionPolicy(DType.F16, AccumMode.ACC32))`.
    This constructor is the one way to build a policy.  `use_master`
    keeps f32 master weights (False updates the f16 shadows directly),
    `scaler` sets the loss scale, and `clip_threshold` clips the global
    norm of the unscaled gradients.

    F32 precision trains the masters with ACC32 under any scaler; a
    scale other than 1 keeps the scaling orchestration (scale, unscale,
    overflow checks) without f16 rounding, which is what
    scale-neutrality checks compare against.
    """

    precision: nn.PrecisionPolicy = nn.F32_POLICY
    use_master: bool = True
    scaler: ConstantScale | DynamicScale = field(default_factory=ConstantScale)
    clip_threshold: Optional[float] = None

    def __post_init__(self):
        if self.precision.compute_dtype is DType.F32 and (
                self.precision.accum is not AccumMode.ACC32 or not self.use_master):
            raise ValueError("f32 precision trains the masters with ACC32")
        if self.clip_threshold is not None and not self.clip_threshold > 0:
            raise ValueError("clip_threshold must be positive")


class Parameter:
    """One weight: f32 master, f16 shadow (read by F16 only), f32 momentum buffer."""

    def __init__(self, name: str, master: Tensor):
        if master.dtype is not DType.F32:
            raise ValueError("master must be F32")
        self.name = name
        self.master = master
        self.shadow = T.cast(master, DType.F16)
        self.momentum_buf = np.zeros(master.shape, dtype=np.float32)

    def sync_shadow(self) -> None:
        self.shadow = T.cast(self.master, DType.F16)


def make_parameters(model: nn.Model, seed: int) -> dict[str, Parameter]:
    values = model.init_values(seed)
    return {name: Parameter(name, T.store(arr, DType.F32))
            for name, arr in values.items()}


def bind_parameters(model: nn.Model, params: dict[str, Parameter],
                    policy: TrainingPolicy) -> None:
    """Point the model at shadows (f16 paths) or masters (f32 paths)."""
    use_f16 = policy.precision.compute_dtype is DType.F16
    for name, p in params.items():
        model.params[name] = p.shadow if use_f16 else p.master


@dataclass(frozen=True)
class StepReport:
    iteration: int
    loss: float
    overflow: bool
    skipped: bool
    scale: float
    grad_norm: float


def unscale(grads: nn.Gradients, scale: float) -> dict[str, np.ndarray]:
    """Widen weight gradients to f32 and divide by the loss scale.

    The scale is a power of two, so this is exact; inf/NaN pass through
    for the overflow check.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    inv = np.float32(1.0 / scale)
    out = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for name, g in grads.weights.items():
            out[name] = g.widen() * inv
    return out


def detect_overflow(unscaled: dict[str, np.ndarray]) -> bool:
    """True iff any weight-gradient element is infinite or NaN."""
    return any(not np.isfinite(arr).all() for arr in unscaled.values())


def grad_global_norm(unscaled: dict[str, np.ndarray]) -> float:
    """L2 norm over all gradient elements, f32 fixed-order accumulation."""
    total = np.float32(0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        for arr in unscaled.values():
            total = np.float32(total + T.seq_sum(arr * arr))
        return float(np.sqrt(total))


def clip_gradients(unscaled: dict[str, np.ndarray], threshold: float,
                   norm: float) -> None:
    """Global-norm clipping, in place, on unscaled f32 gradients whose
    grad_global_norm is `norm`."""
    if norm > threshold:
        factor = np.float32(threshold) / np.float32(norm)
        for arr in unscaled.values():
            arr *= factor


def lr_ok(lr: float) -> bool:
    """Whether lr is finite and positive as the f32 that sgd_step uses."""
    with np.errstate(over="ignore"):
        return bool(0 < np.float32(lr) < np.inf)


def momentum_ok(momentum: float) -> bool:
    """Whether momentum is in [0, 1) as the f32 that sgd_step uses."""
    with np.errstate(over="ignore"):
        return bool(0 <= np.float32(momentum) < 1)


def sgd_step(params: dict[str, Parameter], unscaled: dict[str, np.ndarray],
             lr: float, momentum: float = 0.0, nesterov: bool = False,
             use_master: bool = True) -> None:
    """SGD with (optionally Nesterov) momentum, entirely in f32.

    With use_master=True only the master is updated (train_step re-casts
    the shadows that F16 reads).  With use_master=False the update is
    applied to the f16 shadow instead (the ablation arm): the
    f32-computed update is added to the widened f16 weight and rounded
    back, so updates below half an ulp of the weight are lost to
    swamping.  The momentum buffer stays f32 in both arms to isolate the
    master-copy variable.
    """
    if not lr_ok(lr):
        raise ValueError(f"lr must be finite and positive as an f32, got {lr}")
    if not momentum_ok(momentum):
        raise ValueError(f"momentum must be in [0, 1) as an f32, got {momentum}")
    for name, p in params.items():
        g = unscaled[name]
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for {name}; screen with "
                             "detect_overflow first")
        buf = p.momentum_buf
        mom = np.float32(momentum)
        np.add(mom * buf, g, out=buf)
        update = g + mom * buf if nesterov else buf
        step32 = np.float32(lr) * update
        if use_master:
            p.master = T.store(p.master.data - step32, DType.F32)
        else:
            p.shadow = T.store(p.shadow.widen() - step32, DType.F16)
            p.master = T.cast(p.shadow, DType.F32)


GradObserver = Callable[[int, nn.Gradients, dict[str, np.ndarray]], None]


def train_step(model: nn.Model, params: dict[str, Parameter], inputs: Tensor,
               targets: Tensor, policy: TrainingPolicy, lr: float,
               momentum: float = 0.0, nesterov: bool = False,
               iteration: int = 0,
               observer: Optional[GradObserver] = None) -> StepReport:
    """One optimizer step under the policy; see the module docstring for
    the exact ordering.  `observer` gets the stored gradients (with the
    model-input gradient, which only observed steps compute) and the
    unscaled f32 weight gradients; pass it only on the steps to sample."""
    pdtype = policy.precision.compute_dtype
    f16 = pdtype is DType.F16
    if f16:
        for p in params.values():
            p.sync_shadow()
    bind_parameters(model, params, policy)

    x = T.cast(inputs, pdtype)
    tgt = T.cast(targets, pdtype)

    loss, tape = nn.forward(model, x, tgt, policy.precision, train=True)
    # the loss is computed before scaling, so no scale can make it non-finite
    if not math.isfinite(loss) and pdtype is DType.F32:
        raise NumericalError(f"non-finite loss {loss} in f32 precision at "
                             f"iteration {iteration}")

    scale = policy.scaler.scale
    grads = nn.backward(model, tape, scale,
                        first_input_grad=observer is not None)
    unscaled = unscale(grads, scale)
    overflow = detect_overflow(unscaled)
    if observer is not None:
        observer(iteration, grads, unscaled)
    grad_norm = grad_global_norm(unscaled)

    skipped = False
    if overflow:
        skipped = True
        if not policy.scaler.dynamic:
            warnings.warn(f"gradient overflow at iteration {iteration} with "
                          f"constant scale {scale}; update skipped")
    else:
        if policy.clip_threshold is not None:
            clip_gradients(unscaled, policy.clip_threshold, grad_norm)
        sgd_step(params, unscaled, lr, momentum, nesterov,
                 use_master=policy.use_master)
        if f16 and policy.use_master:
            for p in params.values():
                p.sync_shadow()
    policy.scaler.update(overflow)

    return StepReport(iteration, loss, overflow, skipped, scale, grad_norm)


# ---------------------------------------------------------------------------
# Step metrics CSV and checkpoints.
# ---------------------------------------------------------------------------

STEP_CSV_HEADER = "iteration,loss,scale,overflow,skipped,grad_norm"


class StepCsvWriter:
    def __init__(self, path):
        self.fh = open(path, "w")
        self.fh.write(STEP_CSV_HEADER + "\n")

    def write(self, r: StepReport) -> None:
        self.fh.write(f"{r.iteration},{r.loss!r},{r.scale!r},"
                      f"{int(r.overflow)},{int(r.skipped)},{r.grad_norm!r}\n")

    def close(self) -> None:
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


_CKPT_MAGIC = "MPCKPT 1"


def save_checkpoint(path, model: nn.Model, params: dict[str, Parameter]) -> None:
    """Text manifest (layers, entry names) then one tensor blob per entry:
    each master, each momentum buffer, each f32 state array."""
    entries: list[tuple[str, Tensor]] = []
    for name, p in params.items():
        entries.append((f"param.{name}", p.master))
    for name, p in params.items():
        entries.append((f"momentum.{name}", T.store(p.momentum_buf, DType.F32)))
    for key, arr in model.state.items():
        entries.append((f"state.{key}", T.store(arr, DType.F32)))

    with open(path, "wb") as fh:
        lines = [_CKPT_MAGIC]
        for i, spec in enumerate(model.spec_strings()):
            lines.append(f"layer.{i} = {spec}")
        for i, (name, _) in enumerate(entries):
            lines.append(f"entry.{i} = {name}")
        lines.append("END")
        fh.write(("\n".join(lines) + "\n").encode())
        for _, t in entries:
            T.write_tensor(fh, t)


def load_checkpoint(path) -> tuple[nn.Model, dict[str, Parameter]]:
    with open(path, "rb") as fh:
        header = []
        while True:
            line = fh.readline()
            if not line:
                raise ValueError("checkpoint manifest has no END marker")
            text = line.decode().rstrip("\n")
            if text == "END":
                break
            header.append(text)
        if not header or header[0] != _CKPT_MAGIC:
            raise ValueError("bad checkpoint magic")

        # exactly what save_checkpoint writes: layer.0..L-1, then entry.0..E-1
        lines = [text.partition(" = ") for text in header[1:]]
        specs = [value for key, _, value in lines if key.startswith("layer.")]
        names = [value for key, _, value in lines if key.startswith("entry.")]
        if [key for key, _, _ in lines] != [f"layer.{i}" for i in range(len(specs))] \
                + [f"entry.{i}" for i in range(len(names))]:
            raise ValueError("checkpoint manifest keys are not layer.0, layer.1, "
                             "... then entry.0, entry.1, ...")
        if len(set(names)) != len(names):
            raise ValueError("checkpoint manifest names an entry twice")
        model = nn.model_from_specs(specs)

        tensors = {name: T.read_tensor(fh) for name in names}
        if fh.read(1):
            raise ValueError("checkpoint has bytes after its last entry")

    for name, t in tensors.items():
        if t.dtype is not DType.F32:
            raise ValueError(f"checkpoint {name} is {t.dtype.name}, not F32")
    # every parameter, its momentum and each state entry that the layers
    # build, by shape
    expected = {f"{kind}.{k}": shape for k, shape in model.param_shapes().items()
                for kind in ("param", "momentum")}
    expected.update((f"state.{k}", arr.shape) for k, arr in model.state.items())
    found = {name: t.shape for name, t in tensors.items()}
    if found != expected:
        raise ValueError(f"checkpoint entries {found} do not match its "
                         f"layers' {expected}")
    params = {name[6:]: Parameter(name[6:], t) for name, t in tensors.items()
              if name.startswith("param.")}
    for name, t in tensors.items():
        if name.startswith("momentum."):
            params[name[9:]].momentum_buf = t.data.copy()
        elif name.startswith("state."):
            model.state[name[6:]] = t.data.copy()
    bind_parameters(model, params, TrainingPolicy())
    return model, params
