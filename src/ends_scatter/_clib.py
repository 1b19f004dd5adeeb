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
"""

from __future__ import annotations

import functools
import os
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
