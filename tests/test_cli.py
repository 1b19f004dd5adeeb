import json

import pytest

from ends_scatter import cli
from ends_scatter.cli import main


def run(args, tmp_path, name):
    code = main(args + ["--out", str(tmp_path)])
    with open(tmp_path / f"{name}.json") as fh:
        return code, json.load(fh)


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


def test_oracle_subcommand(tmp_path):
    code, rep = run(["oracle", "--preset", "A", "--kind", "square_well",
                     "--v0", "1.5", "--half-width", "1.0",
                     "--lambda-grid", "0.5:2.0:4"], tmp_path, "oracle")
    assert code == 0
    assert len(rep["points"]) == 4
    for pt in rep["points"]:
        assert pt["flux_defect"] < 1e-9
        assert abs(pt["abs_t"] ** 2 + pt["abs_r"] ** 2 - 1.0) < 1e-9


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


def test_bad_override_is_config_error(tmp_path):
    code = main(["model-check", "--preset", "A", "--lambda-grid", "oops",
                 "--out", str(tmp_path)])
    assert code == 2


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
