"""Gradient magnitude instrumentation: per-binary-exponent histograms.

Every tensor element lands in exactly one of: the zero bin, one finite
bin keyed by floor(log2 |v|), or the non-finite bin.  F16 tensors are
binned on their stored values (subnormals by true exponent), F32
tensors on their f32 values.  Bins are one per exponent; any coarser
display binning can be aggregated from the CSV after the fact.

Attaching the sampling hook to a training loop only reads gradients, so
trajectories are bit-identical with and without it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import binary16 as b16
from . import nn
from .tensor import DType, Tensor


@dataclass
class ExponentHistogram:
    zero_count: int = 0
    bins: dict[int, int] = field(default_factory=dict)
    nonfinite_count: int = 0
    total: int = 0
    max_abs: float = 0.0

    def fraction_zero(self) -> float:
        return self.zero_count / self.total if self.total else 0.0

    def fraction_below(self, exponent: int) -> float:
        """Fraction of finite nonzero values with floor(log2|v|) < exponent."""
        if not self.total:
            return 0.0
        n = sum(c for e, c in self.bins.items() if e < exponent)
        return n / self.total

    def check(self) -> None:
        if self.zero_count + sum(self.bins.values()) + self.nonfinite_count \
                != self.total:
            raise ValueError(f"histogram counts do not add up to its total "
                             f"{self.total}")


def histogram(t: Tensor) -> ExponentHistogram:
    wide = t.widen()
    flat = wide.reshape(-1)
    finite = np.isfinite(flat)
    nonzero = flat != 0
    live = finite & nonzero

    h = ExponentHistogram(total=int(flat.size))
    h.zero_count = int((finite & ~nonzero).sum())
    h.nonfinite_count = int((~finite).sum())
    if live.any():
        exps = b16.exponent_of_array(flat[live])
        uniq, counts = np.unique(exps, return_counts=True)
        h.bins = {int(e): int(c) for e, c in zip(uniq, counts)}
        h.max_abs = float(np.abs(flat[live]).max())
    h.check()
    return h


def merged(tensors) -> ExponentHistogram | None:
    """One histogram over the elements of every tensor that is not None
    (their exact f32 values, concatenated); None if there is none."""
    values = [t.widen().reshape(-1) for t in tensors if t is not None]
    return histogram(Tensor(np.concatenate(values), DType.F32)) if values else None


def write_csv(path, h: ExponentHistogram) -> None:
    """One row per exponent bin plus reserved rows zero/nonfinite/total."""
    with open(path, "w") as fh:
        fh.write("exponent,count\n")
        for e in sorted(h.bins):
            fh.write(f"{e},{h.bins[e]}\n")
        fh.write(f"zero,{h.zero_count}\n")
        fh.write(f"nonfinite,{h.nonfinite_count}\n")
        fh.write(f"total,{h.total}\n")


def read_csv(path) -> ExponentHistogram:
    h = ExponentHistogram()
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "exponent,count":
            raise ValueError(f"bad histogram CSV header {header!r}")
        for line in fh:
            key, _, count = line.strip().partition(",")
            if key == "zero":
                h.zero_count = int(count)
            elif key == "nonfinite":
                h.nonfinite_count = int(count)
            elif key == "total":
                h.total = int(count)
            else:
                h.bins[int(key)] = int(count)
    h.check()
    return h


def csv_name(run_id: str, role: str, iteration: int) -> str:
    return f"hist_{run_id}_{role}_iter{iteration:06d}.csv"


class SampleHook:
    """Training-loop observer: histograms the weight gradients and the
    activation gradients of each step it is handed, as stored (before
    unscaling), and writes them to out_dir as two CSVs named by
    csv_name.  The caller chooses which steps to hand it."""

    def __init__(self, out_dir, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id

    def __call__(self, iteration: int, grads: nn.Gradients,
                 unscaled: dict[str, np.ndarray]) -> None:
        for role, tensors in (("weight_grad", grads.weights.values()),
                              ("act_grad", grads.activations)):
            h = merged(tensors)
            if h is not None:
                write_csv(os.path.join(
                    self.out_dir, csv_name(self.run_id, role, iteration)), h)
