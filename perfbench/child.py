"""One run of one workload, in a fresh process: `io_cli.compare` over the
workload's arms, timed at the run, train-step and evaluate boundaries.
An untraced run then times each arm's set-up SETUP_REPEATS more times.

With --trace 1 the span tracer wraps every module, not just those three
calls, and no set-ups are repeated.  The result (per-arm timings,
artifact digests, peak memory and, when traced, the per-module metrics)
is written as JSON to --result.  run.py starts this script; it is not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from tracer import StopRun, Tracer, layer_metrics
from workloads import WORKLOADS, build_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = ("steps.csv", "epochs.csv", "model.ckpt")


# The untraced run's only instrumentation.  Each call takes at least a
# millisecond, so two clock reads per call do not show in the timings.
PROBES = ("io_cli.run", "io_cli.evaluate", "mp_engine.train_step")
SETUP_REPEATS = 10      # timed set-ups per arm after an untraced run


def run_children(spans) -> list[tuple[int, dict[str, list]]]:
    """Per `io_cli.run` span, in call order: its start and the (start,
    end) of its direct `train_step` and `evaluate` children."""
    runs = {}
    for i, (name, parent, start, end) in enumerate(spans):
        if name == "io_cli.run":
            runs[i] = (start, {"mp_engine.train_step": [], "io_cli.evaluate": []})
        elif parent in runs and name in runs[parent][1]:
            runs[parent][1][name].append((start, end))
    return list(runs.values())


def arm_timings(spans, arms) -> list[dict]:
    """Per `io_cli.run` span, in call order (one per arm), the timings of
    its train steps and evaluations, in seconds."""
    runs = run_children(spans)
    if len(runs) != len(arms):
        raise RuntimeError(f"{len(runs)} io_cli.run calls for arms {list(arms)}")
    out = []
    for arm, (run_start, children) in zip(arms, runs):
        steps = children["mp_engine.train_step"]
        evals = children["io_cli.evaluate"]
        first, last = steps[0][0], steps[-1][1]
        eval_in_loop = sum(e - s for s, e in evals if first <= s and e <= last)
        out.append({
            "arm": arm,
            "cold_setup_s": (first - run_start) / 1e9,
            "step_ms": [(e - s) / 1e6 for s, e in steps],
            "train_loop_s": (last - first - eval_in_loop) / 1e9,
            "eval_s": sum(e - s for s, e in evals) / 1e9,
        })
    return out


def setup_times(io_cli, cfg, arms, out_dir, repeats) -> dict[str, list[float]]:
    """Per arm, `repeats` set-up times: `io_cli.run` from its call to its
    first `train_step`, where the run is stopped.  Arms take turns."""
    t = Tracer(("io_cli.run", "mp_engine.train_step"),
               stop_at="mp_engine.train_step")
    with t:
        for _ in range(repeats):
            for arm in arms:
                c = io_cli.Config.parse(cfg.to_text())
                c.set("policy.preset", arm)
                c.set("run.output_dir", os.path.join(out_dir, arm))
                try:
                    io_cli.run(io_cli.RunConfig.from_config(c))
                except StopRun:
                    continue
                raise RuntimeError("io_cli.run returned without a train_step")
    times = {arm: [] for arm in arms}
    for k, (run_start, children) in enumerate(run_children(t.spans)):
        (step_start, _), = children["mp_engine.train_step"]
        times[arms[k % len(arms)]].append((step_start - run_start) / 1e9)
    return times


def artifact_record(arm_dir: str) -> dict:
    digests, rows = {}, {}
    for name in ARTIFACTS:
        with open(os.path.join(arm_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        if name.endswith(".csv"):
            rows[name] = data.count(b"\n") - 1
    return {"digests": digests, "rows": rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    from mptrain import io_cli
    import_s = time.perf_counter() - start

    wl = WORKLOADS[args.workload]
    cfg = build_config(io_cli, ROOT, wl, args.seed, args.data_dir, args.out_dir)

    tracer = Tracer(None if args.trace else PROBES)
    with tracer:
        start = time.perf_counter()
        io_cli.compare(cfg, "policy.preset", list(wl.arms), out_dir=args.out_dir)
        run_s = time.perf_counter() - start

    result = {
        "run_s": run_s,
        "import_s": import_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "arms": arm_timings(tracer.spans, wl.arms),
        "train_samples": tracer.counts.get("mp_engine.train_step.samples", 0),
        "eval_samples": tracer.counts.get("io_cli.evaluate.samples", 0),
        "trace": None,
    }
    for arm in result["arms"]:
        arm.update(artifact_record(
            os.path.join(args.out_dir, f"policy.preset={arm['arm']}")))
    if args.trace:
        tracer.write_spans(os.path.join(args.out_dir, "spans.csv"), args.run_id)
        result["trace"] = layer_metrics(tracer.spans, tracer.counts)
    else:
        setups = setup_times(io_cli, cfg, wl.arms,
                             os.path.join(args.out_dir, "setup"), SETUP_REPEATS)
        for arm in result["arms"]:
            arm["setup_s"] = setups[arm["arm"]]
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
