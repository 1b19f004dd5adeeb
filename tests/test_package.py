"""Static guards on the package surface.

No linter runs on the sources, so two of its checks live here: every
``__all__`` entry must exist (the benchmark's tracer wraps each one by
``getattr``), and no module or function may import a name it never uses.
A third guard keeps every subcommand clear of the heavy scipy
subpackages: only the reference solvers of ``oracle`` and the tests
import scipy.
A fourth keeps the reference implementations of ``oracle`` out of the
computation paths.  A fifth keeps every verdict in the CLI: no
numerical module takes a run tolerance, and ``fourier`` and
``propagator`` return no verdict of their own.  A sixth pins the number
of parameters each public callable takes in
``tests/data/public_parameters.json``.  Then the C kernels:
they compile with every warning an error, the package data ships every source, only the subcommands that
march Jost pairs, step the propagator or solve for the leading term load
them,
and they are built once per machine into a cache that a process without
the compiler reads.
Last the other foreign code, OpenBLAS: ``_clib.one_blas_thread`` lowers
its thread count to one and restores it, once over nested and concurrent
scopes, and does nothing without an OpenBLAS; the inner products that
Python callers reach outside ``cli.main`` run under it too.
"""

import ast
import fnmatch
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ends_scatter
from ends_scatter import _clib

SRC = Path(ends_scatter.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"ends_scatter.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert missing == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope: ast.AST):
    """Nodes of ``scope`` outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import, at module level or inside a function,
    that the module (resp. that function) never uses.  ``import x as x``
    re-exports x on purpose (the PEP 484 convention) and is not one."""
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, *_FUNCTIONS)):
            continue
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names
                         if a.asname != a.name]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names
                         if a.asname != a.name]
            else:
                continue
            unused += [f"{name} (line {node.lineno})" for name in names
                       if name not in used]
    return sorted(unused)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    assert _unused_imports(tree) == []


def test_unused_function_level_import_is_reported():
    tree = ast.parse("import scipy.linalg\n\n"
                     "def f():\n    import scipy.sparse\n    return 1\n\n"
                     "def g():\n    return scipy.linalg.norm\n")
    assert _unused_imports(tree) == ["scipy (line 4)"]


def test_only_a_same_name_alias_marks_a_re_export():
    tree = ast.parse("from os import path as path\n"
                     "from os import sep as separator\n"
                     "from os import getcwd\n")
    assert _unused_imports(tree) == ["getcwd (line 3)", "separator (line 2)"]


_TOLERANCES = {"tol_s", "tol_w", "tol_f"}
_VERDICTS = {"converged", "unitary_within_tol", "stabilized", "verdict"}
# the modules that read the run's tolerances and judge with them
_FRONT_END = ("cli", "config")


def _public_parameters(name: str):
    """(where, parameter names) of each public callable of module
    ``name``: every function in its ``__all__``, and of every class there
    its own ``__init__`` (a dataclass's generated one counts) and each
    method whose name has no leading underscore, static and class methods
    too.  ``self`` and ``cls`` are left out; properties are not callables
    here."""
    mod = importlib.import_module(f"ends_scatter.{name}")
    for attr in getattr(mod, "__all__", ()):
        obj = getattr(mod, attr)
        if not inspect.isclass(obj):
            yield attr, list(inspect.signature(obj).parameters)
            continue
        for key, member in vars(obj).items():
            fn = getattr(member, "__func__", member)
            if ((key == "__init__" or not key.startswith("_"))
                    and inspect.isfunction(fn)):
                params = list(inspect.signature(fn).parameters)
                yield f"{attr}.{key}", params[not isinstance(member, staticmethod):]


@pytest.mark.parametrize("name", [m for m in MODULES if m not in _FRONT_END])
def test_numerics_take_no_tolerance(name):
    """No public function, class or method outside the front end has a
    parameter named after a [run] tolerance."""
    taken = [f"{where}({p})" for where, params in _public_parameters(name)
             for p in sorted(set(params) & _TOLERANCES)]
    assert taken == []


# a Jost pair carries its operator, energy and sign, and an operator its
# model: a parameter for one of these beside its carrier is a second
# source of one value, which nothing checks against the first
_CARRIED = {"pair": {"op", "lam", "sign"}, "op": {"model"}}
# wave_operator takes its op's model, and refuses another, because
# perfbench/workloads.py, which the benchmark runs as it is, passes both
_CARRIED_ALLOWED = {"propagator.wave_operator"}


@pytest.mark.parametrize("name", ["resolvent", "fourier", "propagator",
                                  "dynamics", "oracle"])
def test_no_value_is_taken_beside_its_carrier(name):
    """No public function takes a Jost pair together with an op, lam or
    sign, or an op together with a model, but the allowed ones, which
    still take both."""
    found = {f"{name}.{where}": sorted(v for carrier, values in _CARRIED.items()
                                       if carrier in params
                                       for v in values & set(params))
             for where, params in _public_parameters(name)}
    found = {where: again for where, again in found.items() if again}
    allowed = {f for f in _CARRIED_ALLOWED if f.startswith(f"{name}.")}
    assert set(found) == allowed
    assert all(found[f] == ["model"] for f in allowed)


def test_public_parameter_count_is_pinned():
    """The public callables of each module with an ``__all__`` take the
    numbers of parameters in ``tests/data/public_parameters.json``, per
    module and callable.  A change that adds or removes a public
    parameter edits that table, so the count shows in its diff."""
    with open(Path(__file__).parent / "data" / "public_parameters.json") as fh:
        want = json.load(fh)
    got = {name: {where: len(params)
                  for where, params in _public_parameters(name)}
           for name in MODULES}
    assert {name: counts for name, counts in got.items() if counts} == want


@pytest.mark.parametrize("name", ["fourier", "propagator"])
def test_numerics_return_no_verdict(name):
    """fourier and propagator name no verdict key: their results are
    measurements, which the CLI compares with the tolerances."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    keys = sorted({node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in _VERDICTS})
    assert keys == []


def _oracle_imports(tree: ast.Module) -> list:
    """Names a module imports from ``oracle``, anywhere in it; an import
    of the oracle module itself counts as ``*``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "oracle" or (node.module or "").endswith(".oracle"):
                names += [a.name for a in node.names]
            elif node.level and node.module is None:
                names += ["*" for a in node.names if a.name == "oracle"]
        elif isinstance(node, ast.Import):
            names += ["*" for a in node.names if a.name.endswith(".oracle")]
    return sorted(names)


def test_reference_implementations_stay_out_of_the_computation_paths():
    """Only the package namespace and the CLI import from ``oracle``, and
    the CLI only the closed-form scattering of its ``oracle`` subcommand."""
    allowed = {"cli": ["closed_form_scattering"]}
    for name in MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text())
        assert _oracle_imports(tree) == allowed.get(name, []), name


def test_oracle_imports_are_found():
    tree = ast.parse("from .oracle import a, b\nfrom . import oracle\n"
                     "def f():\n    import ends_scatter.oracle\n"
                     "    from ends_scatter.oracle import c\n")
    assert _oracle_imports(tree) == ["*", "*", "a", "b", "c"]


# subcommands that touch no propagator or reference solver
_STATIONARY_RUNS = [
    ["model-check", "--preset", "A"],
    ["smatrix", "--preset", "D", "--lambda-grid", "0.6:1.3:3"],
    ["resolvent", "--preset", "A", "--lambda-grid", "0.4:0.6:2"],
    ["oracle", "--preset", "D"],
]
# scipy subpackages that cost most of scipy's import time
_HEAVY_SCIPY = ["integrate", "interpolate", "linalg", "sparse", "special",
                "optimize", "spatial", "fft"]


def _modules_loaded(runs, out_dir, code: int = 0) -> set:
    """Modules that a fresh interpreter holds after it imports the package
    and runs the CLI on each argv of ``runs``, each of which must exit
    with ``code``."""
    script = (
        "import json, sys\n"
        "import ends_scatter\n"
        "from ends_scatter import cli\n"
        f"for argv in {runs!r}:\n"
        f"    assert cli.main(argv + ['--out', {str(out_dir)!r}]) == {code}, argv\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _heavy_scipy_loaded(runs, out_dir, code: int = 0) -> list:
    """The heavy scipy subpackages among :func:`_modules_loaded`."""
    loaded = {m.split(".")[1] for m in _modules_loaded(runs, out_dir, code)
              if m.startswith("scipy.")}
    return sorted(loaded & set(_HEAVY_SCIPY))


def test_stationary_subcommands_load_no_scipy_subpackage(tmp_path):
    """A fresh interpreter imports the package and runs the stationary
    subcommands without loading any of the heavy scipy subpackages."""
    assert _heavy_scipy_loaded(_STATIONARY_RUNS, tmp_path) == []


@pytest.mark.parametrize("argv, code", [
    # the spectral profile's spline is the package's own
    (["dynamics", "--preset", "A", "--t-grid", "10,20"], 0),
    # so is the spline that seeds stationary_point's Newton solve on the
    # Dollard end (at t = 40 the cone is large enough to be seeded)
    (["dynamics", "--preset", "C", "--t-grid", "10,40"], 0),
    (["model-check", "--config", "{table}"], 0),
    # so are the propagator's band factors; t = 20 is too early for the
    # increments to reach tol_w
    (["waveop", "--preset", "A", "--t-grid", "10,20"], 3),
    (["transmission", "--preset", "D", "--t-grid", "10"], 0),
], ids=["dynamics", "dynamics-C", "table-profile", "waveop", "transmission"])
def test_other_subcommands_load_only_their_scipy(tmp_path, argv, code):
    """The subcommands that evolve a state load no heavy scipy subpackage
    either: only ``oracle``'s reference solvers and the tests use scipy."""
    table = tmp_path / "prof.csv"
    r = [1.0 + 0.5 * k for k in range(60)]
    table.write_text("\n".join(f"{a!r},{a + 0.1 * math.sin(a)!r}" for a in r))
    cfg = tmp_path / "table.cfg"
    cfg.write_text(f"[model]\nr0 = 2\n[ends.1]\nprofile = table: {table}\n"
                   "[ends.2]\nprofile = euclidean\n")
    argv = [arg.format(table=cfg) for arg in argv]
    assert _heavy_scipy_loaded([argv], tmp_path, code) == []


def test_dynamics_and_smatrix_leave_numpy_ma_unloaded(tmp_path):
    """The first ``np.unique`` of a process imports ``numpy.ma`` (17 ms
    cumulative under ``python -X importtime`` with numpy 2.4); the
    sort-and-neighbour form and ``np.bincount`` do not.  A fresh
    interpreter runs dynamics on C (the cone, the seeded stationary
    point and the amplitude's panels) and then smatrix on D (the
    extraction windows and their phase) without loading it."""
    runs = [["dynamics", "--preset", "C"], ["smatrix", "--preset", "D"]]
    assert "numpy.ma" not in _modules_loaded(runs, tmp_path)


def test_step_kernel_compiles_without_warnings(monkeypatch):
    """Every C kernel of the package is C99 that the compiler it is built
    with finds nothing to warn about: the package's own build (all
    sources in one call) with every warning an error, under every flag
    set ``_cflags()`` chooses that this host's compiler takes.  On an
    x86-64 host these are the x86-64 set, whose SSE3 build of ``_pade.c``
    also holds the AVX two-lane body, and the set of other machines,
    which holds the plain-C bodies only."""
    import platform

    machines = ([platform.machine()] if platform.machine().lower()
                not in ("x86_64", "amd64") else ["x86_64", "aarch64"])
    builds = []
    for machine in machines:
        monkeypatch.setattr(platform, "machine", lambda: machine)
        builds.append(_clib._cflags())
    monkeypatch.undo()
    assert len({tuple(b) for b in builds}) == len(machines)
    for build in builds:
        _clib._build(["-std=c99", "-Wall", "-Wextra", "-Werror", *build])


def test_package_data_ships_every_kernel_source():
    """An installed package compiles its kernels from the sources it
    ships, so package-data must cover every ``*.c`` beside the modules."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"][
            "ends_scatter"]
    sources = [p.name for p in (root / "src" / "ends_scatter").glob("*.c")]
    assert sources
    assert [name for name in sources
            if not any(fnmatch.fnmatch(name, pat) for pat in patterns)] == []


def test_kernels_are_built_only_when_needed(tmp_path):
    """A fresh interpreter imports the package and runs model-check and
    oracle without loading the kernels; smatrix and resolvent march Jost
    pairs, and dynamics solves for the leading term's stationary energies
    (on the separable preset A too), so each loads them."""
    out = str(tmp_path)
    builds_nothing = [_STATIONARY_RUNS[0], _STATIONARY_RUNS[3]]
    loads = [_STATIONARY_RUNS[1], _STATIONARY_RUNS[2],
             ["dynamics", "--preset", "A", "--t-grid", "10"],
             ["dynamics", "--preset", "C", "--t-grid", "10"]]
    script = (
        "import ends_scatter\n"
        "from ends_scatter import _clib, cli\n"
        "assert _clib.library.cache_info().currsize == 0\n"
        f"for argv in {builds_nothing!r}:\n"
        f"    assert cli.main(argv + ['--out', {out!r}]) == 0, argv\n"
        "    assert _clib.library.cache_info().currsize == 0, argv\n"
        f"for argv in {loads!r}:\n"
        "    _clib.library.cache_clear()\n"
        f"    assert cli.main(argv + ['--out', {out!r}]) == 0, argv\n"
        "    assert _clib.library.cache_info().currsize == 1, argv\n")
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_cached_kernels_load_without_the_compiler(tmp_path):
    """The first process builds the kernels into the cache; a second one,
    whose compiler is missing, loads that build and writes the same
    smatrix report, byte for byte.  The cache then holds one library and
    no temporary file."""
    cache = tmp_path / "cache"
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from ends_scatter import _clib, cli\n"
        "if sys.argv[2] == 'missing':\n"
        "    _clib._CC = 'no-such-cc'\n"
        "argv = ['smatrix', '--preset', 'D', '--out', sys.argv[1]]\n"
        "assert cli.main(argv) == 0\n"
        "assert Path(_clib.library()._name).parent == _clib._cache_dir()\n")
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               XDG_CACHE_HOME=str(cache))
    for out, compiler in (("built", "cc"), ("cached", "missing")):
        subprocess.run([sys.executable, "-c", script, str(tmp_path / out),
                        compiler], env=env, check=True)
    report = [(tmp_path / out / "smatrix.json").read_bytes()
              for out in ("built", "cached")]
    assert report[0] == report[1]
    files = list((cache / "ends_scatter").iterdir())
    assert len(files) == 1 and files[0].suffix == ".so"


def test_kernel_key_changes_with_a_source_byte_or_flag(tmp_path):
    """The cached library is named by what it is made of: the same
    sources and flags give the same key, and one changed source byte or
    flag a new one."""
    sources = []
    for source in _clib._sources():
        sources.append(tmp_path / source.name)
        sources[-1].write_bytes(source.read_bytes())
    flags = _clib._cflags()
    key = _clib._source_key(sources, flags)
    assert key == _clib._source_key(_clib._sources(), flags)
    assert _clib._source_key(sources, flags + ["-g"]) != key
    assert _clib._source_key(sources, flags[1:]) != key
    data = bytearray(sources[-1].read_bytes())
    data[-2] ^= 1
    sources[-1].write_bytes(bytes(data))
    assert _clib._source_key(sources, flags) != key


def test_unusable_cache_falls_back_to_a_temporary_build(tmp_path,
                                                        monkeypatch):
    """A cache directory that cannot be made (its parent is a file, which
    stops root too), and a cached file that does not load, each give the
    kernels from a build in a temporary directory."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    lib = _clib.library.__wrapped__()
    assert lib.jost_march and not lib._name.startswith(str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cached = _clib._cached_path(_clib._cflags())
    cached.write_bytes(b"not a shared library")
    lib = _clib.library.__wrapped__()
    assert lib.jost_march and not lib._name.startswith(str(tmp_path))


def test_blas_scope_restores_the_callers_count(openblas):
    """The scope runs OpenBLAS on one thread and gives the caller's count
    back on a normal exit and on an exception."""
    openblas.set(2)
    with _clib.one_blas_thread():
        assert openblas.counts() == [1] * len(openblas.counts())
    assert openblas.counts() == [2] * len(openblas.counts())
    with pytest.raises(ZeroDivisionError):
        with _clib.one_blas_thread():
            assert openblas.counts() == [1] * len(openblas.counts())
            1 / 0
    assert openblas.counts() == [2] * len(openblas.counts())


def _fake_openblas(monkeypatch, count):
    """_clib's lookup replaced by one fake OpenBLAS at ``count`` threads;
    returns the list of counts it is set to."""
    state, calls = [count], []

    def set_(n):
        calls.append(n)
        state[0] = n

    monkeypatch.setattr(_clib, "_openblas", lambda: ((lambda: state[0],
                                                       set_),))
    return calls


def test_nested_blas_scopes_do_nothing(monkeypatch):
    """Only the outermost scope sets the count, as a ``with`` block or a
    decorator, and only it restores the count."""
    calls = _fake_openblas(monkeypatch, 4)

    @_clib.one_blas_thread()
    def inner():
        with _clib.one_blas_thread():
            return list(calls)

    with _clib.one_blas_thread():
        assert inner() == [1]
        assert calls == [1]
    assert calls == [1, 4]


def test_concurrent_blas_scopes_share_one_depth(monkeypatch):
    """Scopes entered and left on more threads than cores, switching
    often: the count reads 1 inside every scope, and it is set once per
    stretch with a scope open and restored once at its end."""
    calls = _fake_openblas(monkeypatch, 4)
    count = _clib._openblas()[0][0]
    seen = []

    @_clib.one_blas_thread()
    def scoped():
        seen.append(count())

    def worker():
        for _ in range(200):
            scoped()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] * 1600
    assert count() == 4
    assert calls[::2] == [1] * (len(calls) // 2)
    assert calls[1::2] == [4] * (len(calls) // 2)


def test_inner_products_do_not_depend_on_the_blas_thread_count(openblas):
    """``RadialGrid.inner`` and ``adjoint_identity_check`` take BLAS dots
    of more than 10 000 nodes, which OpenBLAS splits over its threads;
    scoped to one thread, they return the same bits at 1 and 2 threads."""
    import numpy as np

    from ends_scatter.dynamics import SpectralProfile
    from ends_scatter.mode_reduction import ModeOperator, RadialGrid
    from ends_scatter.presets import model_a
    from ends_scatter.propagator import adjoint_identity_check

    model = model_a()
    grid = RadialGrid(60.0, 0.01)
    op = ModeOperator(model, grid, 0)
    ft_grid = RadialGrid(30.0, 0.02)
    h = SpectralProfile.bump_profile(center=0.55, width=0.25)
    u, v, west = (np.exp(-((grid.x - c) ** 2) / (2.0 * s**2) + 1j * k * grid.x)
                  for c, s, k in ((0.5, 1.0, 0.3), (-1.0, 1.5, -0.5),
                                  (2.0, 3.0, 0.7)))
    got = []
    for threads in (1, 2):
        openblas.set(threads)
        adj = adjoint_identity_check(op, h, west, [u, v], ft_grid=ft_grid)
        got.append((grid.inner(u, v), adj["defects"]))
        assert openblas.counts() == [threads] * len(openblas.counts())
    assert got[0] == got[1]
