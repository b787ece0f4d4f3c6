"""The compiled loops behind binary16 and tensor, and their one loader.

`_native.c` holds every hot loop: the ordered matmul (`mm`), the
binary16 store and widen (`f32_to_f16`, `f16_to_f32`) and the row fold
of `seq_sum` (`fold_rows`), each defined once for x86-64 CPUs with AVX2
and F16C.  `lib()` compiles the file once per source, flags and machine
into a per-user cache on first use (not at import), loads it and binds
every loop.  Where the library cannot be built or loaded, or the CPU
lacks AVX2 or F16C, it warns once and returns None, and every caller
runs its numpy loop, which gives the same bits.

Callers pass each array as its address (`arr.ctypes.data`) and must
hand over C-contiguous arrays of the loop's dtypes.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import pathlib
import platform
import subprocess
import tempfile
import time
import types
import warnings

_SOURCE = pathlib.Path(__file__).with_name("_native.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_P, _N = ctypes.c_void_p, ctypes.c_long
_LOOPS = {
    "mm": (_P, _P, _P, _N, _N, _N, ctypes.c_int),   # a, b, c, m, k, n, acc16
    "f32_to_f16": (_P, _P, _N),                     # x, h, n
    "f16_to_f32": (_P, _P, _N),                     # h, x, n
    "fold_rows": (_P, _P, _N, _N),                  # x, out, rows, cols
}
# libraries that earlier sources of this package built into the cache,
# removed once they are this many seconds old: an older checkout running
# now may have just written one and not loaded it yet
_STALE = ("matmul-*.so", "core-*.so")
_STALE_AFTER_S = 600


def _build() -> pathlib.Path:
    """Compile `_native.c` once per source, flags and machine into a
    per-user cache, and return the shared library's path.  A new build
    also removes the libraries of earlier sources named in `_STALE` that
    are older than `_STALE_AFTER_S`; it leaves every `native-*.so`, which
    another checkout may be loading, and every `tmp*.so`, which another
    process may be writing."""
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(
        (*_FLAGS, platform.machine())).encode()).hexdigest()[:16]
    cache = pathlib.Path.home() / ".cache" / "mptrain"
    lib = cache / f"native-{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(["cc", *_FLAGS, "-o", tmp, str(_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for pattern in _STALE:
        for stale in cache.glob(pattern):
            with contextlib.suppress(OSError):
                if time.time() - stale.stat().st_mtime > _STALE_AFTER_S:
                    stale.unlink()
    return lib


def _bind(path) -> types.SimpleNamespace:
    """The loops of the library at `path`, one attribute each.  Raises
    OSError when this CPU cannot run them."""
    dll = ctypes.CDLL(str(path))
    if not dll.vector_path():
        raise OSError("this CPU has no AVX2 and F16C")
    loops = {}
    for name, argtypes in _LOOPS.items():
        fn = getattr(dll, name)
        fn.argtypes, fn.restype = argtypes, None
        loops[name] = fn
    return types.SimpleNamespace(**loops)


_UNLOADED = object()
_loaded = _UNLOADED


def lib() -> types.SimpleNamespace | None:
    """The compiled loops, built and bound on the first call; None, after
    one warning, when they cannot be built or loaded."""
    global _loaded
    if _loaded is _UNLOADED:
        try:
            _loaded = _bind(_build())
        except (OSError, subprocess.SubprocessError) as e:
            warnings.warn(
                f"mptrain: compiled loops unavailable ({e}); matmul, the "
                f"binary16 store and widen and the seq_sum fold each run "
                f"their numpy loop, which gives the same bits more slowly",
                RuntimeWarning, stacklevel=3)
            _loaded = None
    return _loaded
