"""Every loop of binary16 and tensor: compiled, and as its numpy twin.

`_native.c` holds every hot loop: the ordered matmul (`mm`), the
binary16 store and widen (`f32_to_f16`, `f16_to_f32`) and the row fold
of `seq_sum` (`fold_rows`), each defined once for x86-64 CPUs with AVX2
and F16C.  `lib()` compiles the file once per source, flags and machine
into a per-user cache on first use (not at import), loads it and binds
every loop.  Where the library cannot be built or loaded, or the CPU
lacks AVX2 or F16C, it warns once and returns `NUMPY`, the numpy twins,
which give the same bits.

Either way each of the four takes C-contiguous arrays of its dtypes (for
`mm`, f32 or binary16 patterns, as tensors store them) and returns a
fresh array whose NaNs are canonical.  Addresses stay in this module.
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

import numpy as np

CANONICAL_NAN = 0x7E00      # binary16; every widened NaN is 0x7FC00000
_F32_NAN_BITS = 0x7FC00000

_SOURCE = pathlib.Path(__file__).with_name("_native.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_P, _N = ctypes.c_void_p, ctypes.c_long
_LOOPS = {
    "mm": (_P, _P, _P, _N, _N, _N, ctypes.c_int, ctypes.c_int),  # a, b, c, m, k, n, f16, acc16
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
    """The loops of the library at `path`, each behind the signature of
    its numpy twin.  Raises OSError when this CPU cannot run them."""
    dll = ctypes.CDLL(str(path))
    if not dll.vector_path():
        raise OSError("this CPU has no AVX2 and F16C")
    loops = [getattr(dll, name) for name in _LOOPS]
    for fn, argtypes in zip(loops, _LOOPS.values()):
        fn.argtypes, fn.restype = argtypes, None
    c_mm, c_store, c_widen, c_fold = loops
    c_mm.restype = ctypes.c_int   # 0, or -1 when mm cannot allocate

    def mm(a, b, acc16):
        (m, k), n = a.shape, b.shape[1]
        c = np.empty((m, n), dtype=np.float32)
        if c_mm(a.ctypes.data, b.ctypes.data, c.ctypes.data, m, k, n,
                a.dtype == np.uint16, acc16):
            raise MemoryError(f"matmul {m}x{k} @ {k}x{n}: cannot allocate its packed operands")
        return c

    def f32_to_f16(x):
        h = np.empty(x.shape, dtype=np.uint16)
        c_store(x.ctypes.data, h.ctypes.data, x.size)
        return h

    def f16_to_f32(h):
        x = np.empty(h.shape, dtype=np.float32)
        c_widen(h.ctypes.data, x.ctypes.data, h.size)
        return x

    def fold_rows(rows):
        out = np.empty(rows.shape[1:], dtype=np.float32)
        c_fold(rows.ctypes.data, out.ctypes.data, rows.shape[0], out.size)
        return out

    return types.SimpleNamespace(mm=mm, f32_to_f16=f32_to_f16,
                                 f16_to_f32=f16_to_f32, fold_rows=fold_rows)


def canonicalize_f32_nans(x: np.ndarray) -> np.ndarray:
    """Overwrite every NaN of the float32 array x, in place, with the
    canonical quiet NaN 0x7FC00000; returns x."""
    nan_mask = np.isnan(x)
    if nan_mask.any():
        x[nan_mask] = np.uint32(_F32_NAN_BITS).view(np.float32)
    return x


def _matmul_loop(a: np.ndarray, b: np.ndarray, acc16: bool) -> np.ndarray:
    """`mm` as a numpy loop over k, rounding each ACC16 sum with numpy's
    own half conversion."""
    a, b = (x.view(np.float16).astype(np.float32) if x.dtype == np.uint16 else x for x in (a, b))
    (m, k), n = a.shape, b.shape[1]
    acc = np.zeros((m, n), dtype=np.float32)
    prod = np.empty((m, n), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            np.multiply(a[:, i, None], b[None, i, :], out=prod)
            np.add(acc, prod, out=acc)
            if acc16:
                acc = acc.astype(np.float16).astype(np.float32)
    return canonicalize_f32_nans(acc)


def _from_f32_numpy(x32: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        bits = x32.astype(np.float16).view(np.uint16)
    # an f32 is NaN exactly when its f16 rounding is
    return np.where(np.isnan(x32), np.uint16(CANONICAL_NAN), bits)


def _to_f32_numpy(h: np.ndarray) -> np.ndarray:
    return canonicalize_f32_nans(h.view(np.float16).astype(np.float32))


def _fold_rows_numpy(rows: np.ndarray) -> np.ndarray:
    # accumulate adds row r to the sum of rows 0..r-1 in order, so its
    # last row is the fold.  It starts from row 0, not from +0, which
    # differs only where every term is -0: the +0 restores a +0 sum.
    with np.errstate(over="ignore", invalid="ignore"):
        last = np.add.accumulate(rows, axis=0)[-1, ...]
        return canonicalize_f32_nans(np.add(last, np.float32(0), out=last))


NUMPY = types.SimpleNamespace(mm=_matmul_loop, f32_to_f16=_from_f32_numpy,
                              f16_to_f32=_to_f32_numpy, fold_rows=_fold_rows_numpy)
_loaded = None


def lib() -> types.SimpleNamespace:
    """The compiled loops, built and bound on the first call; `NUMPY`,
    after one warning, when they cannot be built or loaded."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = _bind(_build())
        except (OSError, subprocess.SubprocessError) as e:
            warnings.warn(
                f"mptrain: compiled loops unavailable ({e}); matmul, the "
                f"binary16 store and widen and the seq_sum fold each run "
                f"their numpy loop, which gives the same bits more slowly",
                RuntimeWarning, stacklevel=3)
            _loaded = NUMPY
    return _loaded
