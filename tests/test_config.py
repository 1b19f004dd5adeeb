import configparser
import textwrap
from dataclasses import fields

import numpy as np
import pytest

from ends_scatter import config
from ends_scatter.config import (ConfigError, GridConfig, RunConfig,
                                 default_config, load_config, parse_config)
from ends_scatter.presets import _CATALOGUE

FULL = """
[model]
r0 = 2.5
name = bespoke

[ends.1]
profile = conic: 1.5
q1_amplitude = 1.0
q1_power = 0.8

[ends.2]
profile = hyperbolic
decay = 1.0, 2.0, 0.5

[potential]
core = square: 1.2, 0.8

[grid]
rmax = 30
dx = 0.02
mmax = 1

[run]
lambda_grid = 0.4:0.9:5
t_grid = 5, 10, 20
end = 2
profile_center = 0.6
tol_w = 5e-4
"""


def test_default_config_presets():
    cfg = default_config("B")
    assert cfg.model.name == "B"
    assert cfg.grid.rmax == 60.0
    assert cfg.run.end == 1


def test_parse_full_config():
    cfg = parse_config(FULL)
    m = cfg.model
    assert m.name == "bespoke" and m.r0 == 2.5
    r = np.linspace(5.0, 20.0, 50)
    assert np.allclose(m.ends[0].f(r), 1.5 * r)         # conic opening
    assert m.ends[1].lambda0 == 0.125                   # hyperbolic end
    assert m.ends[1].decay == (1.0, 2.0, 0.5)
    # reference tail glued above the threshold
    assert abs(m.ends[0].q1(np.array([100.0]))[0] - 100.0**-0.8) < 1e-10
    # square core barrier
    assert np.allclose(m.potential(np.array([0.0, 0.5, 1.0])), [1.2, 1.2, 0.0])
    assert cfg.grid == GridConfig(30.0, 0.02, 1)
    assert cfg.run.lambda_grid == (0.4, 0.9, 5)
    assert cfg.run.t_grid == (5.0, 10.0, 20.0)
    assert cfg.run.end == 2
    assert cfg.run.tol_w == 5e-4
    assert cfg.run.tol_s == 1e-6  # untouched default
    assert np.allclose(cfg.run.lambdas, np.linspace(0.4, 0.9, 5))


def test_preset_shortcut_overrides_ends():
    cfg = parse_config("[model]\npreset = D\n")
    assert cfg.model.name == "D"
    assert cfg.model.potential(np.array([0.0]))[0] == 1.5


@pytest.mark.parametrize("text,match", [
    ("[grid]\nrmax = 10\n", "missing \\[model\\]"),
    ("[model]\npreset = Z\n", "unknown preset"),
    ("[model]\nr0 = 1.0\n", "r0 must be >= 2"),
    ("[model]\npreset = A\n\n[mystery]\nx = 1\n", "unknown config sections"),
    ("[model]\npreset = A\n[run]\nlambda_grid = 1:0.5:4\n", "lambda_grid"),
    ("[model]\npreset = A\n[run]\nt_grid = 10, 5\n", "t_grid"),
    ("[model]\npreset = A\n[run]\nt_grid = 0\n", "t_grid times must be positive"),
    ("[model]\npreset = A\n[run]\nt_grid = -10, 10\n",
     "t_grid times must be positive"),
    ("[model]\npreset = A\n[run]\nlambda_grid = 0:0.5:3\n",
     "lambda_grid lo must be positive"),
    ("[model]\npreset = A\n[run]\nprofile_center = 0.25\n",
     "profile_center must exceed profile_width"),
    ("[model]\npreset = A\n[run]\nmode = -1\n", "mode must be >= 0"),
    ("[model]\npreset = A\n[run]\nend = 3\n", "end must be"),
    ("[model]\npreset = A\n[grid]\ndx = -0.1\n", "must be positive"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = weird\n", "unknown profile"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = conic\n", "conic:ALPHA"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = euclidean\n[ends.2]\n"
     "profile = euclidean\n[potential]\ncore = square: 1.0, 5.0\n",
     "fit inside"),
    ("[model]\npreset = A\n[run]\nprofile_centre = 0.5\n",
     "\\[run\\] unknown key 'profile_centre'"),
    # the doubling residual is reported, not judged, so nothing reads it
    ("[model]\npreset = A\n[run]\ntol_f = 1e-4\n",
     "\\[run\\] unknown key 'tol_f'"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = euclidean\n[ends.2]\n"
     "profile = euclidean\n[potential]\ncores = square: 1.0, 0.5\n",
     "\\[potential\\] unknown key 'cores'"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = euclidean\nq1_amplitud = 1.0\n"
     "[ends.2]\nprofile = euclidean\n",
     "\\[ends.1\\] unknown key 'q1_amplitud'"),
    ("[DEFAULT]\nrmx = 30\n[model]\npreset = A\n",
     "\\[DEFAULT\\] unknown key 'rmx'"),
    ("[model]\npreset = D\n[ends.1]\nprofile = flat\n[potential]\n"
     "core = none\n", "\\[ends.1\\] is not read with \\[model\\] preset = D"),
    ("[model]\npreset = A\n[potential]\ncore = none\n",
     "\\[potential\\] is not read with \\[model\\] preset = A"),
    # NaN and infinity are refused where they are read, by key
    ("[model]\npreset = A\n[grid]\nrmax = nan\n",
     "\\[grid\\] rmax = 'nan' is not finite"),
    ("[model]\npreset = A\n[grid]\ndx = nan\n",
     "\\[grid\\] dx = 'nan' is not finite"),
    ("[model]\npreset = A\n[grid]\ndx = inf\n",
     "\\[grid\\] dx = 'inf' is not finite"),
    ("[model]\npreset = A\n[run]\ntol_s = nan\n",
     "\\[run\\] tol_s = 'nan' is not finite"),
    ("[model]\npreset = A\n[run]\ndt = nan\n",
     "\\[run\\] dt = 'nan' is not finite"),
    ("[model]\npreset = A\n[run]\nlambda_grid = 0.3:inf:4\n",
     "\\[run\\] lambda_grid = '0.3:inf:4' is not finite"),
    ("[model]\npreset = A\n[run]\nt_grid = 10, -inf\n",
     "\\[run\\] t_grid = '10, -inf' is not finite"),
    ("[model]\nr0 = nan\n", "\\[model\\] r0 = 'nan' is not finite"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = conic: nan\n",
     "conic opening must be positive and finite"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = euclidean\n[ends.2]\n"
     "profile = euclidean\n[potential]\ncore = square: inf, 0.5\n",
     "barrier height must be finite"),
    ("[model]\nr0 = 2\n[ends.1]\nprofile = euclidean\n[ends.2]\n"
     "profile = euclidean\n[potential]\ncore = square: 1.0, nan\n",
     "fit inside"),
])
def test_config_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_default_keys_are_read_and_keys_ignore_case():
    cfg = parse_config("[DEFAULT]\nrmax = 30\n[model]\npreset = A\n"
                       "[run]\ntol_W = 1e-4\n")
    assert cfg.grid.rmax == 30.0 and cfg.run.tol_w == 1e-4


def test_docstring_grammar_gives_the_defaults():
    """The [grid] and [run] lines of the module docstring name every field
    and parse to exactly the dataclass defaults."""
    doc = config.__doc__
    text = textwrap.dedent(doc[doc.index("    [grid]"):doc.index("All sections")])
    own = configparser.ConfigParser(inline_comment_prefixes=(";",))
    own.read_string(text)
    assert list(own["grid"]) == [f.name for f in fields(GridConfig)]
    assert list(own["run"]) == [f.name for f in fields(RunConfig)]
    cfg = parse_config("[model]\npreset = A\n" + text)
    assert cfg.grid == GridConfig() and cfg.run == RunConfig()


def test_every_catalogue_preset_parses():
    for name in _CATALOGUE:
        assert parse_config(f"[model]\npreset = {name}\n").model.name == name


def test_missing_end_section_without_preset():
    with pytest.raises(ConfigError, match="ends.2"):
        parse_config("[model]\nr0 = 2\n[ends.1]\nprofile = euclidean\n")


def test_table_profile_from_file(tmp_path):
    r = np.linspace(1.0, 30.0, 60)
    f = r + 0.1 * np.sin(r)
    path = tmp_path / "prof.csv"
    path.write_text("# r, f\n" + "\n".join(
        f"{float(a)!r},{float(b)!r}" for a, b in zip(r, f)))
    text = ("[model]\nr0 = 2\n"
            f"[ends.1]\nprofile = table: {path}\n"
            "[ends.2]\nprofile = euclidean\n")
    cfg = parse_config(text, base=str(tmp_path))
    assert np.allclose(cfg.model.ends[0].f(r[20:]), f[20:], rtol=1e-10)


def test_end_thresholds_stay_out_of_the_potential_tail(tmp_path):
    """With a configured tail, q1 = lambda0 + tail and q = q_geo + tail, so
    q - q1 decays on every end: on a table end whose threshold comes from
    the table's end slope, and on a hyperbolic end."""
    r = np.linspace(1.0, 10.0, 20)
    path = tmp_path / "prof.csv"
    path.write_text("\n".join(f"{float(a)!r},{float(np.exp(0.3 * a))!r}" for a in r))
    tail = "q1_amplitude = 0.5\nq1_power = 1.5\n"
    text = ("[model]\nr0 = 2\n"
            f"[ends.1]\nprofile = table: {path}\n{tail}"
            f"[ends.2]\nprofile = hyperbolic\n{tail}")
    m = parse_config(text, base=str(tmp_path)).model
    assert m.ends[0].lambda0 == pytest.approx(0.125 * 0.3**2, rel=1e-12)
    assert m.ends[1].lambda0 == 0.125
    far = np.array([1e3, 1e4])
    for side, end in zip((1.0, -1.0), m.ends):
        assert np.allclose(m.q(side * far), end.lambda0 + 0.5 * far**-1.5,
                           rtol=0, atol=1e-13)
        assert np.allclose(end.q1(far), end.lambda0 + 0.5 * far**-1.5,
                           rtol=0, atol=1e-13)


def test_table_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config("[model]\nr0 = 2\n[ends.1]\nprofile = table: nope.csv\n"
                     "[ends.2]\nprofile = euclidean\n", base=str(tmp_path))
    bad = tmp_path / "bad.csv"
    bad.write_text("1,1\n0.5,2\n2,3\n3,4\n")
    with pytest.raises(ConfigError, match="increase strictly"):
        parse_config("[model]\nr0 = 2\n[ends.1]\nprofile = table: bad.csv\n"
                     "[ends.2]\nprofile = euclidean\n", base=str(tmp_path))
    bad.write_text("1,1\n2,nan\n3,3\n4,4\n")
    with pytest.raises(ConfigError, match="table row \\['2', 'nan'\\] in .* "
                                          "is not finite"):
        parse_config("[model]\nr0 = 2\n[ends.1]\nprofile = table: bad.csv\n"
                     "[ends.2]\nprofile = euclidean\n", base=str(tmp_path))


def _table_core(tmp_path, x, core="none"):
    """A model with flat ends and the Gaussian exp(-x^2) sampled at ``x``
    as its [potential] table, beside ``core``; returns (model, nodes,
    values)."""
    v = np.exp(-x ** 2)
    (tmp_path / "core.csv").write_text("# x, V\n" + "\n".join(
        f"{float(a)!r},{float(b)!r}" for a, b in zip(x, v)))
    text = ("[model]\nr0 = 2\n[ends.1]\nprofile = flat\n"
            "[ends.2]\nprofile = flat\n"
            f"[potential]\ncore = {core}\ntable = core.csv\n")
    return parse_config(text, base=str(tmp_path)).model, x, v


def test_table_core_interpolates_its_rows_and_vanishes_outside(tmp_path):
    """A sampled core equals its table at the rows and is 0 beyond them."""
    model, x, v = _table_core(tmp_path, np.linspace(-0.9, 0.9, 10))
    assert np.array_equal(model.v_core(x), v)
    assert np.array_equal(model.v_core(np.array([-2.0, -0.95, 0.95, 5.0])),
                          np.zeros(4))


def test_table_core_ends_are_breakpoints(tmp_path):
    """The first and last rows of a sampled core are breakpoints of the
    potential, beside the glue boundary at r0 / 2."""
    model, x, _ = _table_core(tmp_path, np.linspace(-0.9, 0.9, 10))
    assert model.core_breakpoints == (x[0], x[-1])
    assert list(model.breakpoints()) == [-1.0, x[0], x[-1], 1.0]


def test_table_core_beyond_half_r0_is_refused(tmp_path):
    with pytest.raises(ConfigError, match="sampled core must live inside"):
        _table_core(tmp_path, np.linspace(-0.9, 1.1, 10))


def test_square_core_and_table_add(tmp_path):
    """core = square together with a table gives their sum, with the
    barrier's edges and the table's ends as breakpoints."""
    model, x, _ = _table_core(tmp_path, np.linspace(-0.9, 0.9, 10),
                              core="square: 1.5, 0.5")
    tab, _, _ = _table_core(tmp_path, x)
    probe = np.linspace(-1.5, 1.5, 31)
    barrier = np.where(np.abs(probe) <= 0.5, 1.5, 0.0)
    assert np.array_equal(model.v_core(probe), barrier + tab.v_core(probe))
    assert model.core_breakpoints == (-0.5, 0.5, x[0], x[-1])


def test_load_config_records_source(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("[model]\npreset = A\n")
    cfg = load_config(str(p))
    assert cfg.source == str(p)
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"))


def test_run_config_validation_direct():
    with pytest.raises(ConfigError):
        RunConfig(profile_width=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(dt=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(tol_s=0.0).validate()
