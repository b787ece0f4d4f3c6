"""mptrain benchmark: end-to-end metrics per workload, or the traced
per-module split.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload mnist_parity --seed 1 --trace 0

Each run of a workload is one `io_cli.compare` over its arms in a fresh
Python process (perfbench/child.py); runs go one after another, never in
parallel.  Inputs come from --seed.  Every run's steps.csv, epochs.csv and
model.ckpt are checked: against perfbench/digests.json for a recorded
seed, and against the invocation's first run otherwise.  A run that fails
the check counts in `failed`, and the command exits 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-module metrics with --trace 1.  The full record (the
machine, the stated input size, per-arm numbers) is written to
.perfbench_work/<workload>/result.json, next to the last invocation's
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
DEADLINE_S = 170.0   # per workload invocation, which must end within 180 s

sys.path.insert(0, HERE)
import stats  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# The gated end-to-end metrics, name -> (unit, better); the bounds live in
# BENCHMARK.json.  step_ms_tail and failed_run_ratio are printed but not
# gated: see README.md.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "eval_samples_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


# ---------------------------------------------------------------------------
# Run record.
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record() -> dict:
    import numpy
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = (_read(f"{base}/{idx}/level") or "").strip()
        kind = (_read(f"{base}/{idx}/type") or "").strip()
        size = (_read(f"{base}/{idx}/size") or "").strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    ram_mb = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            ram_mb = int(line.split()[1]) // 1024
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "ram_mb": ram_mb, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev,
            "git_dirty": bool(status) if rev else None}


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------

def run_plan(wl, seconds: float, trace: bool) -> list[bool]:
    """Which runs are traced.  A traced invocation alternates untraced and
    traced runs, at least two traced so their counts can be compared."""
    n = wl.runs_for(seconds)
    if not trace:
        return [False] * n
    traced = max(2, n // 2)
    plain = max(1, n - traced)
    plan = []
    while traced or plain:
        if plain:
            plan.append(False)
            plain -= 1
        if traced:
            plan.append(True)
            traced -= 1
    return plan


def run_child(wl, seed, data_dir, run_dir, traced, run_id, timeout):
    result_path = os.path.join(run_dir, "result.json")
    env = {k: v for k, v in os.environ.items() if k != "MPTRAIN_DATA_DIR"}
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", wl.name, "--seed", str(seed), "--data-dir", data_dir,
           "--out-dir", run_dir, "--trace", str(int(traced)),
           "--run-id", run_id, "--result", result_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    with open(result_path) as fh:
        return json.load(fh), None


def check_run(wl, res, expected) -> list[str]:
    """Output check of one run: stated sizes, CSV row counts, digests."""
    arms = len(wl.arms)
    want = {"train_samples": arms * wl.steps_per_arm * wl.batch_size,
            "eval_samples": arms * wl.epochs * wl.n_val}
    problems = [f"{k} = {res[k]}, expected {v}"
                for k, v in want.items() if res[k] != v]
    for a in res["arms"]:
        want = {"steps": wl.steps_per_arm,
                "steps.csv rows": wl.steps_per_arm,
                "epochs.csv rows": wl.epochs}
        got = {"steps": len(a["step_ms"]),
               "steps.csv rows": a["rows"]["steps.csv"],
               "epochs.csv rows": a["rows"]["epochs.csv"]}
        problems += [f"{a['arm']}: {k} = {got[k]}, expected {v}"
                     for k, v in want.items() if got[k] != v]
        if expected is not None:
            problems += [f"{a['arm']}: {name} digest differs"
                         for name, d in expected[a["arm"]].items()
                         if a["digests"].get(name) != d]
    return problems


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def end_to_end(wl, runs) -> tuple[dict, dict]:
    """The gated end-to-end metrics from the untraced runs, and notes
    holding the step tail and how it was taken."""
    pooled = [[] for _ in wl.arms]
    setups = [[] for _ in wl.arms]
    for r in runs:
        for j, a in enumerate(r["arms"]):
            pooled[j] += a["step_ms"]
            setups[j] += a["setup_s"]
    n = len(pooled[0])
    p10, beyond = stats.tail_percentile(n)
    m = {
        "run_s": statistics.median([r["run_s"] for r in runs]),
        "setup_s": sum(statistics.median(s) for s in setups),
        "train_samples_per_s": statistics.median(
            [r["train_samples"] / sum(a["train_loop_s"] for a in r["arms"])
             for r in runs]),
        "step_ms_p50": sum(stats.percentile(p, 500) for p in pooled),
        "eval_samples_per_s": statistics.median(
            [r["eval_samples"] / sum(a["eval_s"] for a in r["arms"])
             for r in runs]),
        "peak_rss_mb": statistics.median([r["peak_rss_kb"] / 1024 for r in runs]),
    }
    notes = {"step_ms_tail": sum(stats.percentile(p, p10) for p in pooled),
             "step_ms_tail_percentile": p10 / 10, "step_samples_per_arm": n,
             "step_samples_beyond_tail": beyond,
             "step_ms_p50_per_arm": {arm: stats.percentile(p, 500)
                                     for arm, p in zip(wl.arms, pooled)},
             "setup_samples_per_arm": len(setups[0]),
             "cold_setup_s_median": statistics.median(
                 [sum(a["cold_setup_s"] for a in r["arms"]) for r in runs]),
             "import_s_median": statistics.median([r["import_s"] for r in runs])}
    return m, notes


def per_layer(plain, traced) -> tuple[dict, list[str]]:
    """Per-module metrics: counts from the first traced run, which every
    other traced run must repeat exactly; times as medians."""
    bugs = []
    first = traced[0]["trace"]
    for r in traced[1:]:
        bugs += [f"count {k} did not repeat: {first[k]} vs {r['trace'][k]}"
                 for k in tracer.COUNT_METRICS if r["trace"][k] != first[k]]
    m = {}
    for name, _, kind, _ in tracer.METRICS:
        if name == "trace.overhead_pct":
            base = statistics.median([r["run_s"] for r in plain])
            m[name] = 100.0 * (statistics.median([r["run_s"] for r in traced])
                               / base - 1)
        elif kind == "count":
            m[name] = first[name]
        else:
            m[name] = statistics.median([r["trace"][name] for r in traced])
    return m, bugs


# ---------------------------------------------------------------------------
# One workload.
# ---------------------------------------------------------------------------

def bench_workload(wl, seed, seconds, trace, machine) -> dict:
    started = time.perf_counter()
    work = os.path.join(WORK, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    data_dir = os.path.join(work, "data")
    os.makedirs(work)
    if wl.mnist:   # generated once per invocation, outside every timed region
        from mptrain import io_cli
        io_cli.generate_surrogate_mnist(data_dir, seed, wl.n_train, wl.n_val)

    expected = recorded = json.loads(_read(DIGESTS)).get(wl.name, {}).get(str(seed))
    plain, traced, failures = [], [], []
    plan = run_plan(wl, seconds, trace)
    measure_start = time.perf_counter()
    for i, is_traced in enumerate(plan):
        remaining = DEADLINE_S - (time.perf_counter() - started)
        if remaining < 1:
            failures += [f"run {j}: not started, {DEADLINE_S:.0f} s deadline passed"
                         for j in range(i, len(plan))]
            break
        run_dir = os.path.join(work, f"run{i:02d}")
        os.makedirs(run_dir)
        res, err = run_child(wl, seed, data_dir, run_dir, is_traced,
                             f"{wl.name}-{seed}-{i}", remaining)
        if res is not None:
            problems = check_run(wl, res, expected)
            if expected is None and not problems:
                expected = {a["arm"]: a["digests"] for a in res["arms"]}
            err = "; ".join(problems) or None
        if err is not None:
            failures.append(f"run {i} ({'traced' if is_traced else 'untraced'}): {err}")
        elif is_traced:
            traced.append(res)
        else:
            plain.append(res)

    attempted = len(plan)
    out = {"workload": wl.name, "why": wl.why, "trace": trace,
           "measured_s": time.perf_counter() - measure_start,
           "stated_size": wl.stated_size(seed), "machine": machine,
           "attempted": attempted, "failed": len(failures),
           "failed_run_ratio": len(failures) / attempted,
           "failures": failures, "bugs": [],
           "digests": expected, "digests_recorded": recorded is not None,
           "metrics": {}, "notes": {}}
    if plain:
        e2e, notes = end_to_end(wl, plain)
        out["notes"] = notes
        if not trace:
            out["metrics"] = {k: {"value": v, "unit": END_TO_END[k][0]}
                              for k, v in e2e.items()}
        else:
            out["notes"]["untraced"] = e2e
    if trace and plain and len(traced) >= 2:
        layers, out["bugs"] = per_layer(plain, traced)
        out["metrics"] = {k: {"value": layers.pop(k), "unit": tracer.UNITS[k]}
                          for k in tracer.LISTED}
        out["notes"]["unlisted"] = layers
    out["correct"] = (not failures and not out["bugs"]
                      and len(out["metrics"]) == len(tracer.LISTED if trace
                                                     else END_TO_END))
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    return out


# ---------------------------------------------------------------------------
# Report.
# ---------------------------------------------------------------------------

def print_report(out) -> None:
    size = out["stated_size"]
    print(f"== {out['workload']}  seed {size['seed']}  "
          f"{'traced' if out['trace'] else 'untraced'}  "
          f"runs {out['attempted']}  failed {out['failed']}  "
          f"measured {out['measured_s']:.1f} s")
    print(f"   why: {out['why']}")
    print(f"   input: train {size['train_samples']}, val {size['val_samples']}, "
          f"{size['steps_per_arm']} steps/arm x arms {','.join(size['arms'])}, "
          f"batch {size['batch_size']}, epochs {size['epochs']}")
    for name, m in out["metrics"].items():
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")
    notes = out["notes"]
    for name, value in notes.get("unlisted", {}).items():
        print(f"   {name:<40} {value:>16.6g} {tracer.UNITS[name]} (printed only)")
    if not out["trace"]:
        if "step_ms_tail" in notes:
            print(f"   {'step_ms_tail':<40} {notes['step_ms_tail']:>16.6g} ms "
                  f"(p{notes['step_ms_tail_percentile']:g} over "
                  f"{notes['step_samples_per_arm']} steps per arm, "
                  f"{notes['step_samples_beyond_tail']} beyond, summed over arms)")
        print(f"   {'failed_run_ratio':<40} {out['failed_run_ratio']:>16.6g} "
              f"ratio ({out['failed']}/{out['attempted']})")
    digests = "recorded digests" if out["digests_recorded"] else "the first run"
    print(f"   artifacts checked against {digests}")
    for line in out["failures"] + out["bugs"]:
        print(f"   FAILED: {line}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="how long to measure (default: run_seconds in "
                        "BENCHMARK.json, which is also what the benchmark "
                        "interface passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = ["src/mptrain/__init__.py"] + [WORKLOADS[n].config for n in names]
    missing = [n for n in needed if not os.path.isfile(os.path.join(ROOT, n))]
    if missing:
        print(f"perfbench: not in an mptrain checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    machine = machine_record()
    print(f"machine: {json.dumps(machine)}")
    results = []
    for name in names:
        out = bench_workload(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace), machine)
        print_report(out)
        results.append(out)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
