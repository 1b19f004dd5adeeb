import json
from pathlib import Path

import numpy as np
import pytest

from ends_scatter import cli, fourier, resolvent
from ends_scatter.cli import main
from ends_scatter.config import RunConfig, default_config, parse_config
from ends_scatter.fourier import scattering_matrix
from ends_scatter.mode_reduction import RadialGrid
from ends_scatter.presets import _CATALOGUE, model_a


def run(args, tmp_path, name):
    """Run the CLI and read its report.  A report that holds no error
    exits 0 when converged and 3 when not: the one exit-code rule."""
    code = main(args + ["--out", str(tmp_path)])
    with open(tmp_path / f"{name}.json") as fh:
        rep = json.load(fh)
    if "error" not in rep:
        assert code == (0 if rep["converged"] else 3)
    return code, rep


def test_model_check_reports_thresholds(tmp_path):
    code, rep = run(["model-check", "--preset", "B"], tmp_path, "model-check")
    assert code == 0
    assert rep["model"] == "B"
    assert rep["lambda_crit"] == 0.125
    assert rep["per_end"] == [0.0, 0.125]
    ends = rep["ends"]
    assert ends[0]["profile"] == "euclidean" and ends[0]["lambda0"] == 0.0
    assert ends[1]["profile"] == "hyperbolic" and ends[1]["lambda0"] == 0.125
    assert all(e["class"] == "short_range" for e in ends)
    assert rep["schema"] == 1 and rep["tool"] == "ends-scatter"


def test_model_check_classifies_dollard_tail(tmp_path):
    code, rep = run(["model-check", "--preset", "C"], tmp_path, "model-check")
    assert code == 0
    classes = [e["class"] for e in rep["ends"]]
    assert classes == ["dollard", "short_range"]
    assert abs(rep["ends"][0]["decay_exponent"] - 0.8) < 0.05


_TAILED_ENDS = "q1_amplitude = 0.5\nq1_power = 1.5\n"


@pytest.mark.parametrize("source", [*_CATALOGUE, "hyperbolic", "table"])
def test_model_check_reads_the_declared_thresholds(tmp_path, source):
    """model-check reports each end's lambda0 and the model's lambda_crit,
    the threshold every other subcommand uses, and the declared tail
    power as the decay exponent, also where a tail decays slowly."""
    if source in _CATALOGUE:
        args = ["--preset", source]
    else:
        prof = "hyperbolic"
        if source == "table":
            r = np.linspace(1.0, 10.0, 20)
            path = tmp_path / "prof.csv"
            path.write_text("\n".join(
                f"{float(a)!r},{float(np.exp(0.3 * a))!r}" for a in r))
            prof = f"table: {path}"
        cfg = tmp_path / "tailed.cfg"
        cfg.write_text(f"[model]\nr0 = 2\n[ends.1]\nprofile = {prof}\n"
                       f"{_TAILED_ENDS}[ends.2]\nprofile = euclidean\n")
        args = ["--config", str(cfg)]
    code, rep = run(["model-check", *args], tmp_path, "model-check")
    assert code == 0
    model = (_CATALOGUE[source]() if source in _CATALOGUE
             else parse_config(cfg.read_text(), base=str(tmp_path)).model)
    lam0 = [end.lambda0 for end in model.ends]
    assert rep["lambda_crit"] == model.lambda_crit
    assert rep["per_end"] == lam0
    assert [e["critical_energy"] for e in rep["ends"]] == lam0
    assert [e["lambda0"] for e in rep["ends"]] == lam0
    if source == "C":
        assert rep["ends"][0]["decay_exponent"] == 0.8
    elif source in ("hyperbolic", "table"):
        assert rep["ends"][0]["decay_exponent"] == 1.5


def test_oracle_subcommand(tmp_path):
    code, rep = run(["oracle", "--preset", "A", "--kind", "square_well",
                     "--v0", "1.5", "--half-width", "1.0",
                     "--lambda-grid", "0.5:2.0:4"], tmp_path, "oracle")
    assert code == 0
    assert len(rep["points"]) == 4
    for pt in rep["points"]:
        assert pt["flux_defect"] < 1e-9
        assert abs(pt["abs_t"] ** 2 + pt["abs_r"] ** 2 - 1.0) < 1e-9
    assert rep["worst_flux_defect"] == max(pt["flux_defect"] for pt in rep["points"])
    assert rep["tol_s"] == 1e-6 and rep["converged"] is True


def test_oracle_verdict_reads_the_flux_defect(tmp_path, monkeypatch):
    """A flux defect above [run] tol_s is non-convergence (exit 3)."""
    def leaky(kind, lam, v0=0.0, half_width=0.0):
        return {"t": 0.8 + 0.0j, "r": 0.6j, "flux_defect": 1e-3}
    monkeypatch.setattr(cli, "closed_form_scattering", leaky)
    code, rep = run(["oracle", "--preset", "A", "--lambda-grid", "0.5:2.0:4"],
                    tmp_path, "oracle")
    assert code == 3
    assert rep["converged"] is False
    assert rep["worst_flux_defect"] == 1e-3 and rep["tol_s"] == 1e-6


def test_missing_model_source_is_config_error(tmp_path, capsys):
    code = main(["model-check", "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "model-check.json").read_text())
    assert rep["converged"] is False and "error" in rep


def test_bad_config_file_is_config_error(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[model]\npreset = Z\n")
    code = main(["model-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("command", ["model-check", "resolvent"])
@pytest.mark.parametrize("decay", ["0, 1, 1", "1, -1, 1"])
def test_non_positive_decay_is_config_error(tmp_path, command, decay):
    """A decay constant of 0 or below is refused where the config is read,
    naming its section.  It used to pass ``model-check`` (exit 0) and make
    ``resolvent`` exit 3 with ``beta_c=0.0 must be positive``."""
    cfg = tmp_path / "decay.cfg"
    cfg.write_text("[model]\nr0 = 2\n[ends.1]\nprofile = euclidean\n"
                   f"decay = {decay}\n[ends.2]\nprofile = euclidean\n")
    code, rep = run([command, "--config", str(cfg)], tmp_path, command)
    assert code == 2
    assert "[ends.1] decay" in rep["error"]


def test_bad_override_is_config_error(tmp_path):
    code = main(["model-check", "--preset", "A", "--lambda-grid", "oops",
                 "--out", str(tmp_path)])
    assert code == 2


def test_non_positive_time_is_config_error(tmp_path, monkeypatch):
    """t = 0 is refused before any work (it used to run and report NaN
    norms as converged)."""
    def no_work(*args, **kwargs):
        raise AssertionError("leading_term called past the guard")

    monkeypatch.setattr(cli, "leading_term", no_work)
    code, rep = run(["dynamics", "--preset", "A", "--t-grid", "0"], tmp_path,
                    "dynamics")
    assert code == 2 and rep["converged"] is False and "t_grid" in rep["error"]


@pytest.mark.parametrize("command,work", [
    ("dynamics", "leading_term"),
    ("waveop", "wave_operator"),
    ("transmission", "scattering_sweep"),
], ids=["dynamics", "waveop", "transmission"])
def test_window_at_the_threshold_is_a_config_error(tmp_path, monkeypatch,
                                                   command, work):
    """A spectral window lam0 + 0.1 +- 0.25 reaches below the threshold;
    it is refused before any work (it used to exit 3 after set-up, with no
    admissible r_lambda at lam = -0.15)."""
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} called past the guard")

    monkeypatch.setattr(cli, work, no_work)
    cfg = tmp_path / "low.cfg"
    cfg.write_text("[model]\npreset = A\n\n[run]\nprofile_center = 0.1\n")
    code, rep = run([command, "--config", str(cfg)], tmp_path, command)
    assert code == 2 and rep["converged"] is False
    assert "profile_center must exceed profile_width" in rep["error"]


@pytest.mark.parametrize("command, source, message", [
    ("smatrix", ["--preset", "C", "--lambda-grid", "0.001:0.01:2"],
     "the smallest admissible r_lambda at lam = 0.001 is 32768, above 4096"),
    ("resolvent", ["--preset", "B", "--lambda-grid", "0.01:0.1:2"],
     "below the threshold 0.125 of end 1"),
    ("dynamics", "low", "r_lambda at lam = 0.001"),
    ("waveop", "low", "r_lambda at lam = 0.001"),
    ("transmission", "low", "r_lambda at lam = 0.001"),
], ids=["smatrix", "resolvent", "dynamics", "waveop", "transmission"])
def test_energy_without_r_lambda_is_a_config_error(tmp_path, monkeypatch,
                                                   command, source, message):
    """An energy at which r_lambda is refused (below a threshold of either
    end, or above 4096) is refused before any march or solve: preset C at
    lam = 0.001, whose window profile_center 0.006 +- 0.005 reaches it
    too, and resolvent on B below the hyperbolic end's 1/8.  Each used to
    exit 3 from inside the run."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the r_lambda check")

    for work in ("leading_term", "wave_operator", "scattering_sweep",
                 "jost_setups"):
        monkeypatch.setattr(cli, work, no_work)
    if source == "low":
        cfg = tmp_path / "low.cfg"
        cfg.write_text("[model]\npreset = C\n\n[run]\n"
                       "profile_center = 0.006\nprofile_width = 0.005\n")
        source = ["--config", str(cfg)]
    code, rep = run([command, *source], tmp_path, command)
    assert code == 2 and rep["converged"] is False
    assert message in rep["error"]


def test_arguments_argparse_refuses_write_no_report(tmp_path, capsys):
    """An unknown preset and a negative --tol in scientific notation (taken
    for a flag) are refused by argparse itself: exit 2, a usage message,
    and no output directory.  --tol=-1e-3 reaches the config parser,
    whose refusal writes its report."""
    for argv in (["smatrix", "--preset", "Q"],
                 ["smatrix", "--preset", "A", "--tol", "-1e-3"]):
        out = tmp_path / "refused"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "usage: ends-scatter smatrix" in capsys.readouterr().err
    code, rep = run(["smatrix", "--preset", "A", "--tol=-1e-3"], tmp_path,
                    "smatrix")
    assert code == 2 and rep["error"] == "[run] tol_s must be positive"


def test_preset_accepts_exactly_the_catalogue():
    parser = cli._build_parser()
    for command in cli._COMMANDS:
        for name in _CATALOGUE:
            assert parser.parse_args([command, "--preset", name]).preset == name
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--preset", "a"])


@pytest.mark.parametrize("flag, key, raw", [
    ("--lambda-grid", "lambda_grid", "0.4:0.9:5"),
    ("--t-grid", "t_grid", "5, 10 20"),
    ("--tol", "tol_s", "1e-8"),
])
def test_overrides_parse_like_the_config(flag, key, raw):
    args = cli._build_parser().parse_args(["smatrix", "--preset", "A", flag, raw])
    run = cli._apply_overrides(default_config("A"), args).run
    assert run == parse_config(f"[model]\npreset = A\n[run]\n{key} = {raw}\n").run


@pytest.mark.parametrize("flag", ["--lambda-grid", "--t-grid", "--tol"])
def test_empty_override_is_config_error(tmp_path, monkeypatch, flag):
    """An empty flag value is refused, not replaced by the config's."""
    def no_work(*args, **kwargs):
        raise AssertionError("scattering_sweep called past the guard")

    monkeypatch.setattr(cli, "scattering_sweep", no_work)
    code, rep = run(["smatrix", "--preset", "A", flag, ""], tmp_path, "smatrix")
    assert code == 2 and rep["error"] == f"{flag} is empty"


def test_malformed_tol_is_config_error(tmp_path):
    code = main(["smatrix", "--preset", "A", "--tol", "small",
                 "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "smatrix.json").read_text())
    assert code == 2 and "--tol = 'small' is not a number" in rep["error"]


def test_non_finite_tol_is_config_error(tmp_path, monkeypatch):
    """--tol nan is refused before any march (it used to run the sweep and
    exit 3, as no defect is at most NaN)."""
    def no_work(*args, **kwargs):
        raise AssertionError("scattering_sweep called past the guard")

    monkeypatch.setattr(cli, "scattering_sweep", no_work)
    code, rep = run(["smatrix", "--preset", "A", "--tol", "nan"], tmp_path,
                    "smatrix")
    assert code == 2 and rep["error"] == "--tol = 'nan' is not finite"


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    """One parser serves every call of a process, and no call leaves state
    in it: a run between two identical runs changes neither's bytes."""
    assert cli._build_parser() is cli._build_parser()
    argvs = [["smatrix", "--preset", "D", "--tol", "1e-30"],
             ["smatrix", "--preset", "D"],
             ["smatrix", "--preset", "D", "--tol", "1e-30"]]
    runs = []
    for k, argv in enumerate(argvs):
        out = tmp_path / str(k)
        code = main(argv + ["--out", str(out)])
        runs.append((code, (out / "smatrix.json").read_bytes()))
    assert runs[0] == runs[2] and runs[0][0] == 3
    assert runs[1][0] == 0
    assert json.loads(runs[1][1])["tol_s"] == RunConfig().tol_s


@pytest.mark.parametrize("preset", list(_CATALOGUE))
def test_resolvent_marches_every_energy_through_one_setup(tmp_path,
                                                          monkeypatch, preset):
    """``resolvent`` builds one Jost set-up for its run, and each energy's
    phi and diagnostics are the bits of the per-energy ``jost_pair``
    path."""
    setups, calls = [], []
    real_setups, real_resolvent = cli.jost_setups, cli.limiting_resolvent

    def counting(ops):
        setups.append(ops)
        return real_setups(ops)

    def recording(pair, psi):
        calls.append((pair, psi) + real_resolvent(pair, psi))
        return calls[-1][2:]

    monkeypatch.setattr(cli, "jost_setups", counting)
    monkeypatch.setattr(cli, "limiting_resolvent", recording)
    _, rep = run(["resolvent", "--preset", preset], tmp_path, "resolvent")
    assert len(setups) == 1
    assert [c[0].lam for c in calls] == rep["lambdas"]
    assert len(calls) == len(default_config(preset).run.lambdas)
    for (pair, psi, phi, diag), point in zip(calls, rep["points"]):
        pair_ref = resolvent.jost_pair(pair.op, pair.lam, +1)
        phi_ref, diag_ref = resolvent.limiting_resolvent(pair_ref, psi)
        assert np.array_equal(phi, phi_ref)
        assert diag == diag_ref
        assert point["interior_residual"] == diag_ref["interior_residual"]
        assert point["wronskian_drift"] == pair_ref.wronskian_drift


def test_model_check_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        d.mkdir()
        assert main(["model-check", "--preset", "C", "--out", str(d)]) == 0
    assert (d1 / "model-check.json").read_bytes() == \
        (d2 / "model-check.json").read_bytes()


def test_oracle_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        d.mkdir()
        assert main(["oracle", "--preset", "D", "--lambda-grid", "0.5:2.5:6",
                     "--out", str(d)]) == 0
    assert (d1 / "oracle.json").read_bytes() == (d2 / "oracle.json").read_bytes()


def test_tol_is_rejected_where_no_tolerance_is_read(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["resolvent", "--preset", "A", "--tol", "1e-3",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["resolvent", "--preset", "A", "--lambda-grid", "0.4:0.6:2"],
    ["dynamics", "--preset", "A", "--t-grid", "10,20,40"],
    ["waveop", "--preset", "A", "--t-grid", "10,20,40"],
    ["transmission", "--preset", "D", "--t-grid", "10"],
    # the low-rank comparison sum runs through BLAS matrix products
    pytest.param(["dynamics", "--preset", "C", "--t-grid", "10,20,40,80"],
                 id="dynamics-C"),
], ids=lambda argv: argv[0])
def test_subcommand_reports_are_byte_identical(tmp_path, argv):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        assert main(argv + ["--out", str(d)]) in (0, 3)
        rep = json.loads((d / f"{argv[0]}.json").read_text())
        assert rep["command"] == argv[0]
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["resolvent", "dynamics"])
def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path, openblas,
                                                        command):
    """The default run on preset A writes the same bytes whether OpenBLAS
    has one thread or two when it starts: the inner products of
    ``resolvent`` and the matrix products of ``dynamics`` would otherwise
    sum in an order set by the thread count."""
    outs = []
    for n in (1, 2):
        openblas.set(n)
        d = tmp_path / str(n)
        d.mkdir()
        assert main([command, "--preset", "A", "--out", str(d)]) == 0
        assert openblas.counts() == [n] * len(openblas.counts())
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert outs[0] == outs[1]


def test_dynamics_fails_on_a_stationary_residual(tmp_path, monkeypatch):
    real = cli.leading_term

    def failing(*args, **kwargs):
        r, u0, sf = real(*args, **kwargs)
        sf.diag["residual_ok"] = False
        return r, u0, sf

    monkeypatch.setattr(cli, "leading_term", failing)
    code, rep = run(["dynamics", "--preset", "A", "--t-grid", "10,20"],
                    tmp_path, "dynamics")
    assert code == 3
    assert rep["converged"] is False
    assert rep["worst_stationary_residual"] >= 0.0


def test_dynamics_fails_on_an_isometry_defect(tmp_path):
    """At t = 0.01 the outgoing front spans less than one node of the
    0.02 grid, so ||U_0(t) h|| misses ||h|| by about 0.2: the run
    reports the defect and fails, though every stationary residual
    passes."""
    code, rep = run(["dynamics", "--preset", "A", "--t-grid", "0.01"],
                    tmp_path, "dynamics")
    assert code == 3
    assert rep["converged"] is False
    assert rep["worst_isometry_defect"] > 0.1 > cli._ISOMETRY_TOL
    assert rep["worst_stationary_residual"] >= 0.0


def test_transmission_tol_reaches_the_verdict(tmp_path):
    reps = {}
    for tol in ("1", "1e-30"):
        d = tmp_path / tol
        d.mkdir()
        code = main(["transmission", "--preset", "D", "--t-grid", "10",
                     "--tol", tol, "--out", str(d)])
        reps[tol] = (code, (d / "transmission.json").read_bytes())
    strict = json.loads(reps["1e-30"][1])
    assert reps["1e-30"][0] == 3 and strict["converged"] is False
    assert strict["tol_s"] == 1e-30 and strict["worst_unitarity_defect"] > 0.0
    assert reps["1"][1] != reps["1e-30"][1]


@pytest.mark.parametrize("argv", [
    ["smatrix", "--preset", "D", "--lambda-grid", "0.6:1.3:3"],
    ["transmission", "--preset", "D", "--t-grid", "10"],
], ids=lambda argv: argv[0])
def test_a_nan_unitarity_defect_fails_the_verdict(tmp_path, monkeypatch, argv):
    """A NaN defect at the last energy is the worst defect, reported as
    "nan", and fails the run (Python's max would skip it after a number
    and exit 0)."""
    real = cli.scattering_sweep

    def nan_last(*args, **kwargs):
        data = real(*args, **kwargs)
        data[-1].unitarity_defect = float("nan")
        return data

    monkeypatch.setattr(cli, "scattering_sweep", nan_last)
    code, rep = run(argv, tmp_path, argv[0])
    assert code == 3 and rep["converged"] is False
    assert rep["worst_unitarity_defect"] == "nan"


def test_smatrix_reports_each_modes_doubling_residual(tmp_path):
    """Each smatrix point carries the doubling residual of every mode, the
    one the sweep returns; it is reported, not judged."""
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[model]\npreset = A\n\n[grid]\nmmax = 1\n")
    code, rep = run(["smatrix", "--config", str(cfg), "--lambda-grid",
                     "0.3:0.8:2"], tmp_path, "smatrix")
    assert code == 0
    grid = RadialGrid(60.0, 0.01)
    for point in rep["points"]:
        sd = scattering_matrix(model_a(), grid, point["lambda"], mmax=1)
        want = {str(p["m"]): p["doubling_residual"] for p in sd.diag["per_mode"]}
        assert point["doubling_residuals"] == want
        assert all(r > 1e-4 for r in want.values())


def test_transmission_predicts_from_the_run_mode(tmp_path):
    """With [run] mode = 1 the prediction reads mode 1's cross-ends
    block, not mode 0's (|S_10| of 0.630, 0.726 and 0.796 at these
    energies)."""
    cfg = tmp_path / "mode1.cfg"
    cfg.write_text("[model]\npreset = A\n\n[run]\nmode = 1\nt_grid = 10\n")
    _, rep = run(["transmission", "--config", str(cfg)], tmp_path,
                 "transmission")
    grid = RadialGrid(60.0, 0.01)
    want = [abs(scattering_matrix(model_a(), grid, lam, mmax=1).block(1)[1, 0])
            for lam in rep["lambda_nodes"]]
    assert rep["s_abs_nodes"] == want
    assert np.allclose(want, [0.0218, 0.0418, 0.0639], atol=5e-5)
    assert rep["sigma_min"] == min(want)


def test_smatrix_on_a_closed_channel_exits_nonconverged(tmp_path):
    """The m = 1 channel of the flat ends opens only at lambda = 1/2."""
    cfg = tmp_path / "closed.cfg"
    cfg.write_text("[model]\npreset = free\n\n"
                   "[grid]\nrmax = 30.0\ndx = 0.02\nmmax = 1\n\n"
                   "[run]\nlambda_grid = 0.3:0.5:1\n")
    code, rep = run(["smatrix", "--config", str(cfg)], tmp_path, "smatrix")
    assert code == 3
    assert rep["converged"] is False
    assert "channel is closed" in rep["error"]


def test_resolvent_fails_on_the_uniqueness_certificate(tmp_path, monkeypatch):
    real = cli.radiation_residual

    def failing(*args, **kwargs):
        return dict(real(*args, **kwargs), bstar0_relative=0.2)

    monkeypatch.setattr(cli, "radiation_residual", failing)
    code, rep = run(["resolvent", "--preset", "A", "--lambda-grid", "0.4:0.6:2"],
                    tmp_path, "resolvent")
    assert code == 3
    assert rep["converged"] is False
    assert all(p["positive"] and p["bstar0_relative"] == 0.2
               for p in rep["points"])


@pytest.mark.parametrize("stabilized", [True, False])
def test_transmission_verdict_reads_stabilization(tmp_path, monkeypatch,
                                                  stabilized):
    """An experiment that agrees with the prediction still fails when the
    end mass has not stabilized over the probe times: the CLI reads the
    stabilization against its own bound."""
    def experiment(*args, **kwargs):
        return {"measured_mass": 0.1, "predicted_mass": 0.1, "ratio": 1.0,
                "projection": {"stabilization": 0.01 if stabilized else 0.5}}

    monkeypatch.setattr(cli, "transmission_experiment", experiment)
    code, rep = run(["transmission", "--preset", "D", "--t-grid", "10"],
                    tmp_path, "transmission")
    assert rep["stabilized"] is stabilized
    assert rep["converged"] is stabilized
    assert code == (0 if stabilized else 3)



@pytest.mark.parametrize("command,march", [
    ("smatrix", "scattering_sweep"),
    ("resolvent", "limiting_resolvent"),
    ("transmission", "scattering_sweep"),
])
def test_under_resolved_grid_is_a_config_error(tmp_path, monkeypatch, command,
                                               march):
    """On preset D at dx = 0.5 the resolution guard refuses the run before
    any march: smatrix and resolvent reach lambda = 2, where it needs
    dx <= 0.26, and transmission's profile reaches 0.8 (dx <= 0.41)."""
    def no_march(*args, **kwargs):
        raise AssertionError(f"{march} called past the guard")

    monkeypatch.setattr(cli, march, no_march)
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("[model]\npreset = D\n\n"
                   "[grid]\nrmax = 30.0\ndx = 0.5\n\n"
                   "[run]\nlambda_grid = 0.6:2.0:4\n")
    code, rep = run([command, "--config", str(cfg)], tmp_path, command)
    assert code == 2
    assert rep["converged"] is False
    lam_max = "0.8" if command == "transmission" else "2"
    assert f"too coarse for lam={lam_max}:" in rep["error"]


@pytest.mark.parametrize("command, lam", [("smatrix", "0.3"),
                                          ("transmission", "0.301")])
def test_empty_extraction_window_is_a_config_error(tmp_path, monkeypatch,
                                                   command, lam):
    """Preset C at its defaults: at its lowest energy r_lambda is 32, so
    the dyadic extraction windows start at R = 64 and none fits in rmax
    60.  The run is refused before any Jost march, naming lambda and the
    rmax its windows need (4 r_lambda = 128)."""
    def no_march(*args, **kwargs):
        raise AssertionError("a Jost march set up past the window check")

    for mod in (fourier, resolvent):
        for work in ("jost_pair", "jost_setups", "march_pair"):
            monkeypatch.setattr(mod, work, no_march)
    argv = [command, "--preset", "C"] + (["--t-grid", "10"]
                                         if command == "transmission" else [])
    code, rep = run(argv, tmp_path, command)
    assert code == 2
    assert rep["converged"] is False
    assert f"no extraction window at lambda={lam}:" in rep["error"]
    assert "rmax must be at least 128 (got 60)" in rep["error"]


@pytest.mark.parametrize("command,ladder,work", [
    ("dynamics", [], "leading_term"),
    ("transmission", [], "scattering_sweep"),
    ("waveop", [], "wave_operator"),
    ("waveop", ["--preset", "A", "--t-grid", "10"], "wave_operator"),
], ids=["dynamics", "transmission", "waveop", "waveop-one-time"])
def test_short_time_ladder_is_a_config_error(tmp_path, monkeypatch, command,
                                             ladder, work):
    """dynamics and transmission need one time and waveop two, for its
    Cauchy increments; a shorter ladder (here an empty `t_grid =`, or a
    single --t-grid time) is refused before any work, with the report
    written."""
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} called past the guard")

    monkeypatch.setattr(cli, work, no_work)
    if not ladder:
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("[model]\npreset = A\n\n[run]\nt_grid =\n")
        ladder = ["--config", str(cfg)]
    code, rep = run([command, *ladder], tmp_path, command)
    assert code == 2
    assert rep["converged"] is False
    assert "t_grid" in rep["error"]


def test_waveop_under_resolved_grid_is_a_config_error(tmp_path, monkeypatch):
    """waveop propagates on its own grid of spacing 0.02; a profile at
    lambda ~ 400 needs dx <= 0.0185 there, so the guard refuses the run
    before the wave operator is built."""
    def no_work(*args, **kwargs):
        raise AssertionError("wave_operator called past the guard")

    monkeypatch.setattr(cli, "wave_operator", no_work)
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("[model]\npreset = A\n\n[run]\nprofile_center = 400\n")
    code, rep = run(["waveop", "--config", str(cfg)], tmp_path, "waveop")
    assert code == 2
    assert rep["converged"] is False
    assert "too coarse for lam=400.25:" in rep["error"]


def test_every_default_keeps_its_exit_code(tmp_path):
    """Each subcommand at each preset's defaults, run in process, exits
    with its code in ``tests/data/exit_codes.json`` (0 = converged, 2 =
    configuration error, 3 = not converged).  A change that moves a code
    edits that table, so the move shows in its diff."""
    with open(Path(__file__).parent / "data" / "exit_codes.json") as fh:
        want = json.load(fh)
    assert list(want) == list(cli._COMMANDS)
    got = {command: {preset: main([command, "--preset", preset, "--out",
                                    str(tmp_path / command / preset)])
                     for preset in _CATALOGUE}
           for command in cli._COMMANDS}
    assert got == want
