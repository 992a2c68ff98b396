"""Loader for the cffi-compiled native kernel tier (graceful by design).

:func:`load` returns the :class:`NativeKernels` wrapper around the
compiled extension, or ``None`` when the native tier cannot be built --
and it **never raises**: no cffi, no C compiler, an unwritable cache
directory, or a failed build all degrade to ``None`` with the reason
recorded (:func:`unavailable_reason`).  The tier is not a setting: the
kernel dispatch in :mod:`repro.db.packed` runs these kernels whenever
:func:`available` is true and the numpy kernels otherwise, and the
answers are bit-identical either way.

Where the extension comes from, in order:

1. A prebuilt ``repro.db._repro_native`` submodule (the ``setup.py``
   cffi build hook, ``REPRO_BUILD_NATIVE=1 pip install .[native]``).
2. A cached build under ``$REPRO_NATIVE_CACHE`` (default
   ``~/.cache/repro/native``), keyed by a hash of the C source, the cdef,
   and the interpreter ABI tag -- editing ``_kernels.c`` invalidates the
   cache, and CI caches this directory between runs.
3. A fresh cffi compile into that cache: built in a private temporary
   subdirectory, then atomically renamed into place, so concurrent
   first-use compiles (e.g. two processes sharing the cache) cannot
   observe a half-written extension.

The compiled functions are plain C over raw pointers; cffi releases the
GIL around every call, which is what lets sharded sweeps scale on
threads.  :class:`NativeKernels` validates dtype and contiguity before
handing out ``arr.ctypes.data`` pointers -- the shard kernels in
:mod:`repro.db.packed` always satisfy both, but a raw-pointer API must
not trust its callers silently.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import sysconfig
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..errors import ParameterError

__all__ = [
    "NativeKernels",
    "available",
    "load",
    "unavailable_reason",
    "NATIVE_CACHE_ENV",
]

#: Environment override for the runtime build-cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_LOCK = threading.Lock()

#: Lazy singleton state: resolved at most once per process.
_STATE: dict = {"checked": False, "lib": None, "reason": None}


class NativeKernels:
    """Typed numpy-array facade over the raw C kernel entry points.

    Thin by design: validate dtype/contiguity, cast to pointers, call.
    ``lo``/``hi`` follow the shard-kernel convention (a contiguous index
    range of the output's leading axis).
    """

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib

    def _ptr(self, ctype: str, arr: np.ndarray, dtype) -> object:
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise ParameterError(
                f"native kernel needs C-contiguous {np.dtype(dtype).name} "
                f"array, got {arr.dtype.name}"
                f"{'' if arr.flags.c_contiguous else ' (non-contiguous)'}"
            )
        return self._ffi.cast(ctype, arr.ctypes.data)

    def index_supports(
        self, ext: np.ndarray, idx: np.ndarray, counts: np.ndarray, lo: int, hi: int
    ) -> None:
        """Fused AND + popcount over the (m, k) query index rows [lo, hi)."""
        self._lib.repro_index_supports(
            self._ptr("const uint64_t *", ext, np.uint64),
            self._ptr("const intptr_t *", idx, np.intp),
            self._ptr("int64_t *", counts, np.int64),
            lo, hi, idx.shape[1], ext.shape[1],
        )

    def combination_supports(
        self,
        words: np.ndarray,
        pmask: np.ndarray,
        leaf_prefix: np.ndarray,
        last: np.ndarray,
        counts: np.ndarray,
        lo: int,
        hi: int,
    ) -> None:
        """Prefix-sharing leaf sweep over leaves [lo, hi), fused popcount."""
        self._lib.repro_combination_supports(
            self._ptr("const uint64_t *", words, np.uint64),
            self._ptr("const uint64_t *", pmask, np.uint64),
            self._ptr("const intptr_t *", leaf_prefix, np.intp),
            self._ptr("const intptr_t *", last, np.intp),
            self._ptr("int64_t *", counts, np.int64),
            lo, hi, words.shape[1],
        )

    def contains(
        self, words: np.ndarray, masks: np.ndarray, out: np.ndarray, lo: int, hi: int
    ) -> None:
        """Early-exit row containment for query masks [lo, hi)."""
        self._lib.repro_contains(
            self._ptr("const uint64_t *", words, np.uint64),
            self._ptr("const uint64_t *", masks, np.uint64),
            self._ptr("uint8_t *", out, np.bool_),
            lo, hi, words.shape[0], words.shape[1],
        )


def _cache_root() -> Path:
    env = os.environ.get(NATIVE_CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native"


def _module_tag() -> str:
    """Hash of everything that shapes the compiled artifact."""
    from ._build_native import CDEF, SOURCE_PATH, _compile_args

    digest = hashlib.sha256()
    digest.update(SOURCE_PATH.read_bytes())
    digest.update(CDEF.encode())
    digest.update(" ".join(_compile_args()).encode())
    digest.update((sysconfig.get_config_var("SOABI") or sys.version).encode())
    return digest.hexdigest()[:12]


def _load_extension(path: Path, module_name: str) -> NativeKernels:
    """Import one compiled extension file under its built module name."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load native extension from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return NativeKernels(module.ffi, module.lib)


def _ext_suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def _build_in_cache() -> NativeKernels:
    """Compile (or reuse) the hashed extension in the cache directory."""
    from ._build_native import make_ffibuilder

    module_name = f"_repro_native_{_module_tag()}"
    cache_dir = _cache_root()
    target = cache_dir / (module_name + _ext_suffix())
    if target.exists():
        return _load_extension(target, module_name)
    cache_dir.mkdir(parents=True, exist_ok=True)
    build_dir = Path(tempfile.mkdtemp(prefix="build_", dir=cache_dir))
    try:
        built = make_ffibuilder(module_name).compile(
            tmpdir=str(build_dir), verbose=False
        )
        # Atomic publication: a concurrent builder either wins the replace
        # race or overwrites with an identical artifact -- never partial.
        os.replace(built, target)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    return _load_extension(target, module_name)


def _load_impl() -> NativeKernels:
    try:
        from . import _repro_native  # type: ignore[attr-defined]

        return NativeKernels(_repro_native.ffi, _repro_native.lib)
    except ImportError:
        pass
    try:
        import cffi  # noqa: F401
    except ImportError:
        raise RuntimeError(
            "cffi is not installed (pip install 'repro[native]' enables "
            "the native kernel tier)"
        ) from None
    return _build_in_cache()


def load() -> NativeKernels | None:
    """The native kernels, building them on first use; ``None`` if unavailable.

    Never raises: any failure (missing cffi, missing compiler, unwritable
    cache) is captured as :func:`unavailable_reason` and the numpy tier
    takes over.
    """
    if _STATE["checked"]:
        return _STATE["lib"]
    with _LOCK:
        if not _STATE["checked"]:
            try:
                _STATE["lib"] = _load_impl()
            except Exception as exc:  # degrade, never break the query path
                _STATE["reason"] = f"{type(exc).__name__}: {exc}"
                _STATE["lib"] = None
            _STATE["checked"] = True
        return _STATE["lib"]


def available() -> bool:
    """Whether the compiled native tier loaded (building it if needed)."""
    return load() is not None


def unavailable_reason() -> str | None:
    """Why :func:`load` returned ``None`` (``None`` while it works)."""
    load()
    return _STATE["reason"]


def _reset_for_tests() -> None:
    """Forget the cached resolution (test hook; not public API)."""
    with _LOCK:
        _STATE.update(checked=False, lib=None, reason=None)


@contextmanager
def _forced_unavailable_for_tests():
    """Load as on a host without cffi or a compiler (test hook; not public API).

    Inside the block the loader's import step fails and the cached probe
    is reset, so every sweep runs the numpy kernels; on exit the probe is
    reset again and later code sees the real tier.
    """
    global _load_impl

    def _import_fails() -> NativeKernels:
        raise ImportError("forced: native module not importable")

    saved = _load_impl
    _load_impl = _import_fails
    _reset_for_tests()
    try:
        yield
    finally:
        _load_impl = saved
        _reset_for_tests()
