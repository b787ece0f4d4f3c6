"""Artifact bytes of every benchmark workload, checked in the test suite.

For each workload in perfbench/workloads.py this does in-process what
one benchmark run does: it writes the workload's surrogate data, builds
its config with `workloads.build_config` at the default seed, runs
`io_cli.compare` over its arms, and compares each arm's digests, as
`child.artifact_record` takes them (SHA-256 of steps.csv, epochs.csv
and model.ckpt), with perfbench/digests.json.  It reads the perfbench
files and writes none of them.  Two workloads run again with the
compiled loops unbuildable, so that their numpy twins must write the
same bytes, and one runs on a CPU that reads as having no AVX2.

Like the benchmark's own digest check, this assumes the rounding of
numpy's `exp`, `tanh` and `log` on the host that recorded the digests
(numpy 2.4 on x86-64); another libm may differ in the last bit.
"""

import json
import pathlib
import shutil
import sys
import warnings

import pytest

from mptrain import _native, io_cli

import helpers

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from child import artifact_record  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_config  # noqa: E402


def _artifacts_match_recorded_digests(name, tmp_path):
    wl = WORKLOADS[name]
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    if wl.mnist:
        io_cli.generate_surrogate_mnist(data_dir, DEFAULT_SEED, wl.n_train, wl.n_val)
    cfg = build_config(io_cli, str(PERFBENCH.parent), wl, DEFAULT_SEED,
                       str(data_dir), str(out_dir))
    io_cli.compare(cfg, "policy.preset", list(wl.arms), out_dir=str(out_dir))

    got = {arm: artifact_record(str(out_dir / f"policy.preset={arm}"))["digests"]
           for arm in wl.arms}
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    assert got == recorded[name][str(DEFAULT_SEED)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_artifacts_match_recorded_digests(name, tmp_path):
    _artifacts_match_recorded_digests(name, tmp_path)


@pytest.mark.parametrize("name", ["rescue_small", "mnist_acc16"])
def test_numpy_matmul_fallback_writes_the_recorded_artifacts(name, tmp_path,
                                                             monkeypatch):
    helpers.reload_kernel(monkeypatch)  # every loop runs its numpy twin
    with pytest.warns(RuntimeWarning, match="numpy loop"):
        _artifacts_match_recorded_digests(name, tmp_path)
    assert _native.lib() is _native.NUMPY


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_cpu_without_avx2_writes_the_recorded_artifacts(tmp_path, monkeypatch):
    helpers.cpu_without_avx2(monkeypatch)  # the library builds, then binds nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _artifacts_match_recorded_digests("rescue_small", tmp_path)
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert len(messages) == 1, messages
    assert "numpy loop" in messages[0] and "no AVX2 and F16C" in messages[0]
    assert _native.lib() is _native.NUMPY
