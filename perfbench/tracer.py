"""Span tracer for the traced benchmark run, and the per-module metrics.

The tracer wraps, from outside the program, every public function of the
six mptrain modules and the layer, parameter, CSV-writer and sampling-hook
methods, or only the span names it is given.  Each call becomes a span
(name, parent, start, end); spans are kept in memory and written out
when the run ends.  The untraced benchmark runs use the same tracer on
three names only.  A span's self time is its duration minus the time
covered by its child spans.  Work counts (multiply-adds, bytes,
elements) are computed from argument and result shapes, not measured.

`uninstall` puts every wrapped attribute back, so the program is left
exactly as imported.

Summarise a written trace:  python3 perfbench/tracer.py <spans.csv>
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time

MODULES = ("binary16", "tensor", "nn", "mp_engine", "diagnostics", "io_cli")

# (module, class, method) -> span name, besides the nn layer methods
METHODS = {
    ("mp_engine", "Parameter", "sync_shadow"): "mp_engine.sync_shadow",
    ("mp_engine", "StepCsvWriter", "write"): "mp_engine.StepCsvWriter.write",
    ("diagnostics", "SampleHook", "__call__"): "diagnostics.SampleHook",
}
LAYER_METHODS = ("forward", "backward", "loss", "loss_grad")

MATMUL_PATHS = ("f32_acc32", "f16_acc32", "f16_acc16")
COPY_FUNCS = ("reshape", "slice_", "transpose", "take")


def _matmul_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    accum = mode.value if mode is not None else "acc32"
    return f"tensor.matmul.{args[0].dtype.value}_{accum}"


def _count_matmul(counts, name, args, kwargs, out):
    (m, k), (_, n) = args[0].shape, args[1].shape
    _add(counts, name + ".madds", m * k * n)


def _count_elems(counts, name, args, kwargs, out):
    _add(counts, name + ".elems", int(getattr(args[0], "size", 0)))


def _count_out_bytes(key):
    def count(counts, name, args, kwargs, out):
        _add(counts, key, out.data.nbytes)
    return count


def _count_step(counts, name, args, kwargs, out):
    _add(counts, "mp_engine.train_step.samples", args[2].shape[0])
    _add(counts, "mp_engine.skipped_steps", int(out.skipped))


COUNTERS = {
    "tensor.matmul": _count_matmul,
    "tensor.store": _count_out_bytes("tensor.store.bytes"),
    "binary16.from_f32_array": _count_elems,
    "binary16.to_f32_array": _count_elems,
    "diagnostics.histogram": _count_elems,
    "io_cli.evaluate": lambda c, n, a, k, out: _add(c, "io_cli.evaluate.samples",
                                                    a[1].size),
    "mp_engine.train_step": _count_step,
    **{f"tensor.{fn}": _count_out_bytes("tensor.copy_bytes") for fn in COPY_FUNCS},
}


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


class StopRun(Exception):
    """Raised in place of a call to the span named by `Tracer(stop_at=...)`."""


def _stop(*args, **kwargs):
    raise StopRun


class Tracer:
    """Records a span per call into the wrapped attributes.

    `names` limits the wrapping to those span names (None wraps all of
    them; `tensor.matmul` stands for its per-path names).  The call to
    the span named `stop_at` is not made: StopRun is raised instead, so
    a run can be timed up to that call and abandoned there.
    """

    def __init__(self, names=None, stop_at=None):
        self.names = None if names is None else frozenset(names)
        self.stop_at = stop_at
        self.spans: list[list] = []      # [name, parent index or -1, start_ns, end_ns]
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, \
            time.perf_counter_ns
        dynamic = callable(name)
        call = _stop if name == self.stop_at else fn

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if dynamic else name
            span = [span_name, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = call(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(counts, span_name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, key, name=None):
        if self.names is not None and key not in self.names:
            return
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name or key, COUNTERS.get(key)))

    def install(self) -> "Tracer":
        for mod_name in MODULES:
            mod = importlib.import_module(f"mptrain.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{mod_name}.{attr}"
                    self._replace(mod, attr, key,
                                  _matmul_name if key == "tensor.matmul" else None)
        nn = importlib.import_module("mptrain.nn")
        for cls in list(vars(nn).values()):
            if inspect.isclass(cls) and issubclass(cls, nn.Layer) \
                    and cls.__module__ == nn.__name__:
                for meth in LAYER_METHODS:
                    if meth in vars(cls):
                        self._replace(cls, meth, f"nn.{cls.__name__}.{meth}")
        for (mod_name, cls_name, meth), key in METHODS.items():
            cls = getattr(importlib.import_module(f"mptrain.{mod_name}"), cls_name)
            self._replace(cls, meth, key)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write_spans(self, path, run_id: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run", "id", "parent", "name", "start_ns", "end_ns"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                out.writerow([run_id, i, parent, name, start, end])


def child_time(spans) -> list[int]:
    """Per span, the time its direct children cover (they nest, since the
    program is single-threaded)."""
    covered = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def summarize(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, total (inclusive) ns, self ns, child ns."""
    covered = child_time(spans)
    agg: dict[str, dict[str, int]] = {}
    for i, (name, _, start, end) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                  "child_ns": 0})
        a["calls"] += 1
        a["total_ns"] += end - start
        a["self_ns"] += end - start - covered[i]
        a["child_ns"] += covered[i]
    return agg


# ---------------------------------------------------------------------------
# Per-module metrics.  kind "count" must repeat exactly between two runs of
# the same code and seed; "time" is reported as the median over runs.
# One rule decides which are listed (in the JSON result and BENCHMARK.json):
# a metric is listed only if no workload leaves it at 0.  The others (a
# matmul path, layer kind or module some workload never runs, skipped
# steps, and the tracer's own overhead, which can read 0 or below) are
# printed and recorded only; the listed sums over paths and kinds carry
# their work and time.
# ---------------------------------------------------------------------------

ACTIVATIONS = ("ReLU", "Tanh")
LOSSES = ("SoftmaxCrossEntropy", "MeanSquaredError")


def _metric_table():
    rows = []   # (name, unit, kind, listed)
    for path in MATMUL_PATHS:
        rows += [(f"tensor.matmul.{path}.calls", "count", "count", False),
                 (f"tensor.matmul.{path}.madds", "count", "count", False),
                 (f"tensor.matmul.{path}.self_ms", "ms", "time", False),
                 (f"tensor.matmul.{path}.gmadds_per_s", "Gmadd/s", "time", False)]
    rows += [("tensor.matmul.calls", "count", "count", True),
             ("tensor.matmul.madds", "count", "count", True),
             ("tensor.matmul.self_ms", "ms", "time", True),
             ("tensor.matmul.gmadds_per_s", "Gmadd/s", "time", True),
             ("tensor.store.calls", "count", "count", True),
             ("tensor.store.bytes", "B", "count", True),
             ("tensor.store.self_ms", "ms", "time", True),
             ("tensor.seq_sum.calls", "count", "count", True),
             ("tensor.seq_sum.self_ms", "ms", "time", True),
             ("tensor.copy_bytes", "B", "count", True)]
    for fn in ("from_f32_array", "to_f32_array"):
        rows += [(f"binary16.{fn}.calls", "count", "count", True),
                 (f"binary16.{fn}.elems", "count", "count", True),
                 (f"binary16.{fn}.self_ms", "ms", "time", True)]
    rows += [("nn.Linear.forward_ms", "ms", "time", True),
             ("nn.Linear.backward_ms", "ms", "time", True),
             ("nn.activation.forward_ms", "ms", "time", True),
             ("nn.activation.backward_ms", "ms", "time", True),
             ("nn.loss.loss_ms", "ms", "time", True),
             ("nn.loss.loss_grad_ms", "ms", "time", True)]
    rows += [(f"nn.{layer}.{meth}_ms", "ms", "time", False)
             for layer in ACTIVATIONS for meth in ("forward", "backward")]
    rows += [(f"nn.{loss}.{meth}_ms", "ms", "time", False)
             for loss in LOSSES for meth in ("loss", "loss_grad")]
    rows += [(f"nn.{fn}.calls", "count", "count", True)
             for fn in ("forward", "backward", "predictions")]
    rows += [(f"mp_engine.{fn}.self_ms", "ms", "time", True)
             for fn in ("unscale", "detect_overflow", "grad_global_norm", "sgd_step")]
    rows += [("mp_engine.sync_shadow.calls_per_step", "1/step", "count", True),
             ("mp_engine.skipped_steps", "count", "count", False),
             ("mp_engine.save_checkpoint.ms", "ms", "time", True),
             ("diagnostics.histogram.calls", "count", "count", False),
             ("diagnostics.histogram.elems", "count", "count", False),
             ("diagnostics.histogram.self_ms", "ms", "time", False),
             ("diagnostics.write_csv.calls", "count", "count", False),
             ("diagnostics.write_csv.ms", "ms", "time", False),
             ("diagnostics.SampleHook.ms", "ms", "time", False),
             ("io_cli.load_mnist.ms", "ms", "time", False),
             ("io_cli.build_task.ms", "ms", "time", True),
             ("io_cli.evaluate.ms", "ms", "time", True),
             ("io_cli.evaluate.samples", "count", "count", True),
             ("trace.overhead_pct", "%", "time", False),
             ("trace.coverage_pct", "%", "time", True)]
    return rows


METRICS = _metric_table()
UNITS = {name: unit for name, unit, _, _ in METRICS}
COUNT_METRICS = frozenset(name for name, _, kind, _ in METRICS if kind == "count")
LISTED = tuple(name for name, _, _, listed in METRICS if listed)


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-module metric of one traced run except trace.overhead_pct,
    which needs the untraced runs and is filled in by the caller."""
    agg = summarize(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def ms(name, key="total_ns"):
        return get(name, key) / 1e6

    def gmadds(madds, total_ns):
        return madds / total_ns if total_ns else 0.0    # madds per ns = G/s

    m: dict[str, float] = {}
    for path in MATMUL_PATHS:
        name = f"tensor.matmul.{path}"
        m[name + ".calls"] = get(name, "calls")
        m[name + ".madds"] = counts.get(name + ".madds", 0)
        m[name + ".self_ms"] = ms(name, "self_ns")
        m[name + ".gmadds_per_s"] = gmadds(m[name + ".madds"], get(name, "total_ns"))
    paths = [f"tensor.matmul.{path}" for path in MATMUL_PATHS]
    m["tensor.matmul.calls"] = sum(m[p + ".calls"] for p in paths)
    m["tensor.matmul.madds"] = sum(m[p + ".madds"] for p in paths)
    m["tensor.matmul.self_ms"] = sum(ms(p, "self_ns") for p in paths)
    m["tensor.matmul.gmadds_per_s"] = gmadds(m["tensor.matmul.madds"],
                                             sum(get(p, "total_ns") for p in paths))
    m["tensor.store.calls"] = get("tensor.store", "calls")
    m["tensor.store.bytes"] = counts.get("tensor.store.bytes", 0)
    m["tensor.store.self_ms"] = ms("tensor.store", "self_ns")
    m["tensor.seq_sum.calls"] = get("tensor.seq_sum", "calls")
    m["tensor.seq_sum.self_ms"] = ms("tensor.seq_sum", "self_ns")
    m["tensor.copy_bytes"] = counts.get("tensor.copy_bytes", 0)
    for fn in ("from_f32_array", "to_f32_array"):
        name = f"binary16.{fn}"
        m[name + ".calls"] = get(name, "calls")
        m[name + ".elems"] = counts.get(name + ".elems", 0)
        m[name + ".self_ms"] = ms(name, "self_ns")
    for layer in ("Linear",) + ACTIVATIONS:
        for meth in ("forward", "backward"):
            m[f"nn.{layer}.{meth}_ms"] = ms(f"nn.{layer}.{meth}")
    for loss in LOSSES:
        for meth in ("loss", "loss_grad"):
            m[f"nn.{loss}.{meth}_ms"] = ms(f"nn.{loss}.{meth}")
    for meth in ("forward", "backward"):
        m[f"nn.activation.{meth}_ms"] = sum(m[f"nn.{a}.{meth}_ms"] for a in ACTIVATIONS)
    for meth in ("loss", "loss_grad"):
        m[f"nn.loss.{meth}_ms"] = sum(m[f"nn.{loss}.{meth}_ms"] for loss in LOSSES)
    for fn in ("forward", "backward", "predictions"):
        m[f"nn.{fn}.calls"] = get(f"nn.{fn}", "calls")
    for fn in ("unscale", "detect_overflow", "grad_global_norm", "sgd_step"):
        m[f"mp_engine.{fn}.self_ms"] = ms(f"mp_engine.{fn}", "self_ns")
    steps = get("mp_engine.train_step", "calls")
    m["mp_engine.sync_shadow.calls_per_step"] = (
        get("mp_engine.sync_shadow", "calls") / steps if steps else 0.0)
    m["mp_engine.skipped_steps"] = counts.get("mp_engine.skipped_steps", 0)
    m["mp_engine.save_checkpoint.ms"] = ms("mp_engine.save_checkpoint")
    m["diagnostics.histogram.calls"] = get("diagnostics.histogram", "calls")
    m["diagnostics.histogram.elems"] = counts.get("diagnostics.histogram.elems", 0)
    m["diagnostics.histogram.self_ms"] = ms("diagnostics.histogram", "self_ns")
    m["diagnostics.write_csv.calls"] = get("diagnostics.write_csv", "calls")
    m["diagnostics.write_csv.ms"] = ms("diagnostics.write_csv")
    m["diagnostics.SampleHook.ms"] = ms("diagnostics.SampleHook")
    m["io_cli.load_mnist.ms"] = ms("io_cli.load_mnist")
    m["io_cli.build_task.ms"] = ms("io_cli.build_task")
    m["io_cli.evaluate.ms"] = ms("io_cli.evaluate")
    m["io_cli.evaluate.samples"] = counts.get("io_cli.evaluate.samples", 0)
    step_total = get("mp_engine.train_step", "total_ns")
    m["trace.coverage_pct"] = (100.0 * get("mp_engine.train_step", "child_ns")
                               / step_total if step_total else 0.0)
    return m


def _read_spans(path):
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        return [[r["name"], int(r["parent"]), int(r["start_ns"]), int(r["end_ns"])]
                for r in rows]


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/tracer.py <spans.csv>", file=sys.stderr)
        return 2
    agg = summarize(_read_spans(argv[0]))
    width = max(len(n) for n in agg)
    print(f"{'span':<{width}}  {'calls':>8}  {'total_ms':>10}  {'self_ms':>10}")
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"{name:<{width}}  {a['calls']:>8}  {a['total_ns'] / 1e6:>10.2f}  "
              f"{a['self_ns'] / 1e6:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
