"""The package's C kernels, built on first use.

Every ``*.c`` file beside this module is compiled in one call of the C
compiler ``cc`` into one shared library, loaded by ``ctypes`` (whose
foreign calls release the GIL), once per process: when the first
Propagator is made or the first comparison state of a non-separable end
is summed, never at import.  The kernels check no argument; their
callers check every array first.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Sequence

# the compiler that builds the kernels
_CC = "cc"


def _cflags() -> list:
    """The flags the kernels are compiled with: no fused multiply-add,
    and the SSE3 complex product of ``_pade.c`` on x86-64 (elsewhere that
    kernel takes the plain-C body of the helper, which rounds the same)."""
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
    lib.pade_steps.argtypes = [i64, i64] + [ptr] * 8
    lib.amplitude_rows.argtypes = ([i64, ptr, ptr, ptr, i64, i64, ptr, ptr,
                                    i64, ptr, f64, i64, ptr, ptr])
    for kernel in (lib.pade_steps, lib.amplitude_rows):
        kernel.restype = None
    return lib


@functools.cache
def library():
    """The kernels compiled with ``_cflags()``, built once per process."""
    return _build(_cflags())
