"""The benchmark's workloads: which config, which arms, how much data.

One run of a workload is one `io_cli.compare` over its arms, in a fresh
Python process.  The sizes here are the stated input size of a run; the
child process checks the run against them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str                    # relative to the repository root
    arms: tuple[str, ...]          # values of policy.preset
    n_train: int
    n_val: int
    batch_size: int
    epochs: int
    nominal_run_s: float           # one run on a 2-vCPU Xeon VM; sets runs per --seconds
    mnist: bool = False            # generate surrogate IDX data for the seed
    overrides: dict[str, str] = field(default_factory=dict)

    @property
    def steps_per_arm(self) -> int:
        return self.epochs * (self.n_train // self.batch_size)

    def runs_for(self, seconds: float) -> int:
        """Runs that fill `seconds` at the nominal speed.  The count is a
        function of --seconds alone, so a parent and a change measure the
        same work and their tails sit at the same percentile."""
        return max(2, round(seconds / self.nominal_run_s))

    def stated_size(self, seed: int) -> dict:
        return {"train_samples": self.n_train, "val_samples": self.n_val,
                "steps_per_arm": self.steps_per_arm, "epochs": self.epochs,
                "batch_size": self.batch_size, "arms": list(self.arms),
                "seed": seed}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mnist_parity",
        why="the MNIST-MLP fp32-vs-mp compare users wait on; ordered matmul "
            "on the ACC32 paths dominates, and evaluation runs forward twice",
        config="configs/mnist_parity.cfg",
        arms=("fp32", "mp"),
        n_train=2560, n_val=512, batch_size=128, epochs=1,
        nominal_run_s=3.2, mnist=True,
        overrides={"run.epochs": "1"},
    ),
    Workload(
        name="mnist_acc16",
        why="the paper's f16-accumulation ablation; nearly all time is the "
            "ACC16 matmul path, which mnist_parity never takes",
        config="configs/mnist_parity.cfg",
        arms=("mp",),
        n_train=1024, n_val=128, batch_size=128, epochs=1,
        nominal_run_s=6.5, mnist=True,
        overrides={"run.epochs": "1", "policy.accum": "acc16"},
    ),
    Workload(
        name="rescue_small",
        why="tiny 16-32-4 model, 640 short steps per arm plus histogram "
            "CSVs: fixed per-call costs dominate and no dataset is loaded",
        config="configs/underflow_rescue.cfg",
        arms=("fp32", "mp", "mp_noscale"),
        n_train=2048, n_val=512, batch_size=128, epochs=40,
        nominal_run_s=6.5,
    ),
)}


def build_config(io_cli, root: str, wl: Workload, seed: int, data_dir: str,
                 out_dir: str):
    """The workload's config with every run-dependent field set here, so
    no environment variable can switch the data or the output place."""
    cfg = io_cli.Config.load(os.path.join(root, wl.config))
    cfg.set("run.seed", str(seed))
    cfg.set("run.output_dir", out_dir)
    cfg.set("run.data_dir", data_dir if wl.mnist else "")
    for key, value in wl.overrides.items():
        cfg.set(key, value)
    return cfg
