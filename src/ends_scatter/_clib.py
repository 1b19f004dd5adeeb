"""The package's C kernels, built on first use.

Every ``*.c`` file beside this module is compiled in one call of the C
compiler ``cc`` into one shared library, loaded by ``ctypes`` (whose
foreign calls release the GIL), once per process: when the first
Propagator is made or the first comparison state of a non-separable end
is summed, never at import.  The kernels: ``pade_factor`` and
``pade_steps`` (``_pade.c``) factor and step the propagator, one state
or two side by side, ``amplitude_rows`` (``_amplitude.c``) sums the
comparison amplitude.  They check no argument, so their callers pass
every array they are handed through ``pointer``, which checks it first.
The flags are the same on every machine of one architecture: the
two-lane AVX body of ``pade_steps`` is a function compiled for AVX
within the SSE3 build, and the kernel runs it when the CPU has AVX.

The module also wraps the one foreign library the package does not
build: the OpenBLAS behind numpy.  ``one_blas_thread()`` runs numpy's
BLAS calls on one thread for its duration.  The lab's products are small
and short, and between them OpenBLAS's other threads spin-wait for the
next one, which costs a core of CPU and buys no wall time; a product
split over threads also sums in an order that depends on the thread
count, so its last bits would depend on the machine.  The scope finds an
OpenBLAS already loaded by this process through ``/proc/self/maps``, on
first use, and does nothing where there is none (MKL, Accelerate, or a
system without ``/proc``).
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

# the compiler that builds the kernels
_CC = "cc"


def _cflags() -> list:
    """The flags the kernels are compiled with: no fused multiply-add,
    and on x86-64 SSE3, which selects the vector complex products of
    ``_pade.c``, SSE3 for one lane and AVX for two (elsewhere that kernel
    takes the plain-C bodies of the helper, which round the same)."""
    import platform

    sse3 = platform.machine().lower() in ("x86_64", "amd64")
    return ["-O2", "-ffp-contract=off", *(["-msse3"] if sse3 else []),
            "-shared", "-fPIC"]


def _build(flags: Sequence[str]):
    """Every kernel source compiled by ``cc`` with ``flags`` into a
    temporary directory, loaded by ctypes with each kernel's signature
    set, and the directory removed."""
    import ctypes
    import subprocess
    import tempfile

    sources = sorted(Path(__file__).parent.glob("*.c"))
    names = ", ".join(p.name for p in sources)
    with tempfile.TemporaryDirectory(prefix="ends_scatter-") as tmp:
        path = os.path.join(tmp, "_kernels.so")
        cmd = [_CC, *flags, "-o", path, *map(str, sources), "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except FileNotFoundError:
            raise RuntimeError(
                f"ends_scatter compiles its kernels ({names}) with the C "
                f"compiler {_CC!r}, which was not found") from None
        if proc.returncode != 0:
            raise RuntimeError(f"{_CC!r} failed to compile {names}: "
                               f"{proc.stderr.strip()}")
        lib = ctypes.CDLL(path)
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.pade_factor.argtypes = [i64, ptr, f64, f64, f64, ptr, ptr, ptr]
    lib.pade_steps.argtypes = [i64, i64, i64] + [ptr] * 8
    lib.amplitude_rows.argtypes = ([i64, ptr, ptr, ptr, i64, i64, ptr, ptr,
                                    i64, ptr, f64, i64, ptr, ptr])
    for kernel in (lib.pade_factor, lib.pade_steps, lib.amplitude_rows):
        kernel.restype = None
    return lib


@functools.cache
def library():
    """The kernels compiled with ``_cflags()``, built once per process."""
    return _build(_cflags())


def pointer(array: np.ndarray, name: str, dtype, shape: tuple,
            writeable: bool = False) -> int:
    """The address of ``array`` for a kernel argument.  A wrong dtype,
    shape or layout would make the kernel read or write outside the
    array, so it raises ValueError naming ``name`` and what it must be."""
    dtype = np.dtype(dtype)
    if not (array.dtype == dtype and array.shape == shape
            and array.flags.c_contiguous
            and (array.flags.writeable or not writeable)):
        what = (f"vector of length {shape[0]}" if len(shape) == 1
                else f"array of shape {shape}")
        raise ValueError(f"{name} must be a {'writeable ' * writeable}"
                         f"contiguous {dtype} {what}, got {array.dtype} "
                         f"{array.shape}")
    return array.ctypes.data


# the names that numpy's wheels (scipy_openblas, 64-bit integers) and
# plain OpenBLAS builds give the thread-count pair, {0} being get or set
_OPENBLAS_NAMES = ("scipy_openblas_{0}_num_threads64_",
                   "openblas_{0}_num_threads64_", "openblas_{0}_num_threads")


@functools.cache
def _openblas() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS this
    process has loaded, found once per process: the mapped files whose
    names contain openblas, opened with RTLD_NOLOAD so that nothing new is
    loaded.  Empty where there is none, or no ``/proc/self/maps``."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = dict.fromkeys(f[5].strip() for f in fields if len(f) == 6
                          and "openblas" in os.path.basename(f[5]).lower())
    pairs = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
        except OSError:
            continue
        for name in _OPENBLAS_NAMES:
            try:
                get = getattr(lib, name.format("get"))
                set_ = getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pairs.append((get, set_))
            break
    return tuple(pairs)


# the thread count is one setting of the whole process, so the scopes that
# lower it share one depth and the counts saved by the outermost
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list = []


@contextlib.contextmanager
def one_blas_thread():
    """numpy's BLAS on one thread for the duration, as a ``with`` block or
    a decorator.  The outermost scope, over all threads of the process,
    sets each OpenBLAS to one thread and restores its count on exit, also
    on an exception; nested and concurrent scopes do nothing.  Without an
    OpenBLAS the scope does nothing."""
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(set_, get()) for get, set_ in _openblas()]
            for set_, _ in _blas_saved:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_, count in _blas_saved:
                    set_(count)
