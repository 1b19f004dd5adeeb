"""The package's C kernels, built once per machine.

Every ``*.c`` file beside this module, three of them, is compiled in one
call of the C compiler ``cc`` into one shared library, loaded by
``ctypes`` (whose foreign calls release the GIL) once per process, on
first use and never at import: at the first Jost pair (``smatrix``,
``resolvent``, ``transmission``, ``distorted_ft``), Propagator or leading
term.  The kernels: ``jost_march`` (``_jost.c``) marches both Jost
solutions, ``pade_factor`` and ``pade_steps`` (``_pade.c``) factor and
step the propagator, one state or two side by side, and
``stationary_solve`` (``_stationary.c``) solves for the leading term's
stationary energies.  A comparison state calls none of them, so it needs
no compiler.  They check no
argument, so their callers pass every array they are handed through
``pointer``, which checks it first.  The flags are the same on every
machine of one architecture: the two-lane AVX body of ``pade_steps`` is a
function compiled for AVX within the SSE3 build, and the kernel runs it
when the CPU has AVX.

The built library is kept in a per-machine cache,
``$XDG_CACHE_HOME/ends_scatter`` (``~/.cache/ends_scatter`` by default),
named by a sha256 over the sources, the flags and ``platform.machine()``
and one over the compiler's path, size and modification time, so that a
later process loads it instead of paying the compiler again, and one
without the compiler can still run.  An unwritable cache, or a cached
file that does not load, falls back to a build in a temporary
directory.

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


def _sources() -> list:
    """The kernel sources: every ``*.c`` file beside this module."""
    return sorted(Path(__file__).parent.glob("*.c"))


def _compile(flags: Sequence[str], path: str) -> None:
    """Every kernel source compiled by ``cc`` with ``flags`` into the
    shared library ``path``, as one translation unit that includes them
    all: one compiler pass, where one per source took a third longer.  A
    missing or failing compiler raises RuntimeError naming it."""
    import subprocess

    sources = _sources()
    names = ", ".join(p.name for p in sources)
    unit = "".join(f'#include "{p}"\n' for p in sources)
    cmd = [_CC, *flags, "-o", path, "-x", "c", "-", "-lm"]
    try:
        proc = subprocess.run(cmd, input=unit, capture_output=True, text=True)
    except FileNotFoundError:
        raise RuntimeError(
            f"ends_scatter compiles its kernels ({names}) with the C "
            f"compiler {_CC!r}, which was not found") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{_CC!r} failed to compile {names}: "
                           f"{proc.stderr.strip()}")


def _load(path):
    """The library at ``path`` loaded by ctypes, with each kernel's
    signature set.  A file that does not load raises OSError."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.pade_factor.argtypes = [i64, ptr, f64, f64, f64, ptr, ptr, ptr]
    lib.pade_steps.argtypes = [i64, i64, i64] + [ptr] * 8
    lib.jost_march.argtypes = [i64, ptr, ptr, f64, ptr, i64, ptr, ptr, ptr]
    lib.stationary_solve.argtypes = ([i64, i64] + [ptr] * 4
                                     + [f64, f64, f64, i64] + [ptr] * 5)
    for kernel in (lib.pade_factor, lib.pade_steps, lib.jost_march,
                   lib.stationary_solve):
        kernel.restype = None
    return lib


def _build(flags: Sequence[str]):
    """The kernels compiled with ``flags`` into a temporary directory,
    loaded, and the directory removed."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="ends_scatter-") as tmp:
        path = os.path.join(tmp, "_kernels.so")
        _compile(flags, path)
        return _load(path)


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/ends_scatter``, ``~/.cache/ends_scatter`` when
    the variable is unset or empty."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return Path(base) / "ends_scatter"


def _source_key(sources: Sequence[Path], flags: Sequence[str]) -> str:
    """sha256 over the names and bytes of ``sources``, the ``flags`` and
    ``platform.machine()``: what the built library is made of."""
    import hashlib
    import platform

    digest = hashlib.sha256()
    for path in map(Path, sources):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    digest.update("\0".join([*flags, platform.machine()]).encode())
    return digest.hexdigest()


def _compiler_id():
    """The compiler as the cache tells builds apart: the resolved path,
    size and modification time of ``cc``, or None where it is not found.
    A switched, upgraded or rebuilt compiler changes it, as it changes
    what ``cc --version`` prints, without a subprocess in every
    process."""
    import shutil

    found = shutil.which(_CC)
    if found is None:
        return None
    path = os.path.realpath(found)
    stat = os.stat(path)
    return f"{path}\0{stat.st_size}\0{stat.st_mtime_ns}"


def _cached_path(flags: Sequence[str]):
    """The cached library of the kernels with ``flags``, built into the
    cache first if it is not there; None when it is not there and there
    is no compiler to build it.

    The file is named ``<source key>-<compiler key>.so``: the
    ``_source_key`` and the first 16 hex digits of the sha256 of the
    ``_compiler_id``.  A process that finds no compiler cannot tell which
    one built the file, so it loads a build of the same sources and flags
    by whichever compiler made it.  A build is written to a temporary
    file in the cache and renamed into place, so a process never loads a
    file that another one is still writing.  An unwritable cache raises
    OSError."""
    import hashlib
    import tempfile

    cache = _cache_dir()
    key = _source_key(_sources(), flags)
    compiler = _compiler_id()
    if compiler is None:
        return min(cache.glob(f"{key}-*.so"), default=None)
    compiler = hashlib.sha256(compiler.encode()).hexdigest()[:16]
    path = cache / f"{key}-{compiler}.so"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=cache)
        os.close(fd)
        try:
            _compile(flags, tmp)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return path


@functools.cache
def library():
    """The kernels compiled with ``_cflags()``, loaded once per process
    from the per-machine cache (built into it on the first use there).
    An unwritable cache, or a cached file that does not load, falls back
    to a build in a temporary directory."""
    flags = _cflags()
    try:
        path = _cached_path(flags)
        if path is not None:
            return _load(path)
    except OSError:
        pass
    return _build(flags)


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
