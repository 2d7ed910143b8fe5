"""Native C NTT kernels, built once per process and loaded via ctypes.

:class:`repro.nttmath.batched.BatchedNTT` runs every forward/inverse
transform through the plain-C Shoup/Harvey radix-2 kernels in
``_ntt_kernel.c`` (shipped next to this module).  The first transform
in a process compiles that file with ``cc``/``gcc`` from ``PATH`` into
a private temporary directory (``-O3 -march=native``, retried without
``-march=native``), loads it, and deletes the directory; the handle
lives for the rest of the process and survives ``clear_caches()``.
Outputs are canonical residues, so they are bitwise identical to the
numpy kernels.

If there is no compiler or the build or load fails, :func:`kernel`
returns ``None`` after one :class:`RuntimeWarning` and the numpy
kernels run instead.  Nothing configures this: processes that never
transform (e.g. compile-and-simulate sweeps) never build it.
"""

from __future__ import annotations

import ctypes
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

SOURCE = Path(__file__).with_name("_ntt_kernel.c")

_FLAG_SETS = (("-march=native",), ())
_UNBUILT = object()
_LOCK = threading.Lock()
#: The loaded library, ``None`` once a build has failed, or
#: ``_UNBUILT`` before the first transform.
_lib = _UNBUILT


def kernel():
    """The loaded kernel library, or ``None`` if it cannot be built.

    Builds on first call; concurrent first calls build once."""
    global _lib
    lib = _lib
    if lib is _UNBUILT:
        with _LOCK:
            if _lib is _UNBUILT:
                _lib = _load()
            lib = _lib
    return lib


def _compile(out: Path) -> None:
    """Compile :data:`SOURCE` into the shared object ``out``."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise RuntimeError("no C compiler (cc or gcc) on PATH")
    err = ""
    for flags in _FLAG_SETS:
        proc = subprocess.run(
            [cc, "-O3", *flags, "-shared", "-fPIC", str(SOURCE),
             "-o", str(out)],
            capture_output=True, text=True, timeout=300)
        if proc.returncode == 0:
            return
        err = proc.stderr.strip()
    raise RuntimeError(f"{cc} failed: {err[-400:]}")


def _load():
    try:
        # The loaded mapping outlives the file, so the directory goes
        # as soon as the library is open.
        with tempfile.TemporaryDirectory(prefix="repro-ntt-",
                                         ignore_cleanup_errors=True) as tmp:
            path = Path(tmp) / "_ntt_kernel.so"
            _compile(path)
            lib = ctypes.CDLL(str(path))
        _declare(lib)
        return lib
    except (OSError, RuntimeError, AttributeError,
            subprocess.SubprocessError) as exc:
        # no compiler, a failed or timed-out build, an unloadable
        # library or a missing symbol: use the numpy kernels
        warnings.warn(f"native NTT kernel unavailable ({exc}); "
                      f"falling back to the numpy kernels",
                      RuntimeWarning, stacklevel=4)
        return None


def _declare(lib) -> None:
    ptr, size, flag = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int
    common = [ptr, ptr, size, size, size, size, ptr, ptr, size, ptr, size,
              flag]
    lib.repro_ntt_forward.argtypes = common
    lib.repro_ntt_forward.restype = None
    lib.repro_ntt_inverse.argtypes = common + [flag]
    lib.repro_ntt_inverse.restype = None
