from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ends_scatter import _clib

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """The kernels' per-machine cache in a temporary directory of this
    session, so that the suite neither reads nor writes the user's cache;
    the fresh interpreters that tests start inherit it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def openblas():
    """The thread counts of every OpenBLAS in this process, read and set
    through ``_clib``'s own lookup: ``counts()`` and ``set(n)``.  The
    counts on entry are restored afterwards; without an OpenBLAS the test
    is skipped."""
    pairs = _clib._openblas()
    if not pairs:
        pytest.skip("no OpenBLAS is loaded in this process")
    saved = [get() for get, _ in pairs]

    def set_all(n):
        for _, set_ in pairs:
            set_(n)

    yield SimpleNamespace(counts=lambda: [get() for get, _ in pairs],
                          set=set_all)
    for (_, set_), n in zip(pairs, saved):
        set_(n)
