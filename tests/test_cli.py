import json
import os

import numpy as np
import pytest

from mtmlab.cli import RunManifest, file_digest, load_config, main
from mtmlab.fields import Grid, SpinorField, l2_norm_sq, read_field_csv, write_field_csv
from mtmlab.lax import EVANS_TOL, MAX_SECANT_ITERATIONS


GAMMA = 1.5707963267948966


def run(args):
    return main(args)


def test_soliton_subcommand(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["soliton", "--gamma", str(GAMMA), "--grid-l", "30",
                "--grid-n", "4096", "--out", str(out)])
    assert code == 0
    f = read_field_csv(str(out))
    assert l2_norm_sq(f) == pytest.approx(2 * np.pi, abs=1e-8)
    man = RunManifest.from_json((tmp_path / "s.csv.manifest.json").read_text())
    assert man.subcommand == "soliton"
    assert man.outputs[str(out)] == file_digest(str(out))


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_missing_required_parameter(tmp_path):
    code = run(["soliton", "--out", str(tmp_path / "s.csv")])
    assert code == 2


def test_eigen_subcommand(tmp_path):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "2048", "--out", str(field)])
    out_json = tmp_path / "e.json"
    out_vec = tmp_path / "v.csv"
    code = run(["eigen", "--field", str(field), "--guess-re", "0.72",
                "--guess-im", "0.70", "--out-json", str(out_json),
                "--out-eigenvector", str(out_vec)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    lam = complex(payload["lambda_re"], payload["lambda_im"])
    assert abs(lam - np.exp(0.25j * np.pi)) < 1e-6
    assert payload["evans_residual"] < 1e-10
    assert payload["iterations"] >= 1
    assert out_vec.exists()


def test_backlund_down_and_up(tmp_path):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "2048", "--out", str(field)])
    vec = tmp_path / "v.csv"
    run(["eigen", "--field", str(field), "--guess-re", "0.7071", "--guess-im", "0.7071",
         "--out-json", str(tmp_path / "e.json"), "--out-eigenvector", str(vec)])
    lam = np.exp(0.25j * np.pi)
    down = tmp_path / "small.csv"
    code = run(["backlund", "--field", str(field), "--eigenvector", str(vec),
                "--lambda-re", str(lam.real), "--lambda-im", str(lam.imag),
                "--out", str(down)])
    assert code == 0
    assert l2_norm_sq(read_field_csv(str(down))) < 1e-12

    up = tmp_path / "rebuilt.csv"
    code = run(["backlund", "--field", str(down), "--direction", "up",
                "--lambda-re", str(lam.real), "--lambda-im", str(lam.imag),
                "--a", "0", "--theta", "0", "--out", str(up)])
    assert code == 0
    assert l2_norm_sq(read_field_csv(str(up))) == pytest.approx(2 * np.pi, abs=1e-4)


def test_backlund_missing_eigenvector_is_usage_error(tmp_path):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "1024", "--out", str(field)])
    code = run(["backlund", "--field", str(field), "--lambda-re", "0.7",
                "--lambda-im", "0.7", "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_evolve_subcommand(tmp_path):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "1024", "--out", str(field)])
    dx = 60.0 / 1024
    prefix = str(tmp_path / "run_")
    code = run(["evolve", "--field", str(field), "--dt", repr(dx), "--t-end", "0.5",
                "--stride", "4", "--out-prefix", prefix])
    assert code == 0
    series = (tmp_path / "run_series.csv").read_text().strip().split("\n")
    assert series[0] == "t,charge"
    charges = [float(row.split(",")[1]) for row in series[1:]]
    assert max(charges) - min(charges) < 1e-10 * charges[0]
    snaps = sorted(p for p in os.listdir(tmp_path) if p.startswith("run_")
                   and p.endswith(".csv") and "series" not in p)
    assert len(snaps) == len(charges)
    man = RunManifest.from_json((tmp_path / "run_manifest.json").read_text())
    for path, digest in man.outputs.items():
        assert file_digest(path) == digest


def test_evolve_wrong_dt_is_domain_error(tmp_path):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "1024", "--out", str(field)])
    code = run(["evolve", "--field", str(field), "--dt", "0.5", "--t-end", "1",
                "--out-prefix", str(tmp_path / "x_")])
    assert code == 1


def test_non_finite_inputs_are_typed_errors(tmp_path, capsys):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "1024", "--out", str(field)])
    capsys.readouterr()
    code = run(["evolve", "--field", str(field), "--dt", repr(60.0 / 1024), "--t-end", "inf",
                "--out-prefix", str(tmp_path / "x_")])
    assert code == 1
    assert "error: ParameterError" in capsys.readouterr().err
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", "0.01", "--t-end", "inf",
                "--grid-n", "1024", "--out-dir", str(tmp_path / "exp")])
    assert code == 1
    assert "error: ParameterError" in capsys.readouterr().err
    code = run(["soliton", "--gamma", str(GAMMA), "--grid-l", "nan",
                "--out", str(tmp_path / "nan.csv")])
    assert code == 1
    assert "error: FieldValidationError: grid bounds" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.7853981633974483\ngrid-n = 1024\n# comment line\n")
    out1 = tmp_path / "a.csv"
    assert run(["soliton", "--config", str(cfg), "--out", str(out1)]) == 0
    f1 = read_field_csv(str(out1))
    assert f1.grid.n == 1024                     # from config
    assert l2_norm_sq(f1) == pytest.approx(np.pi, abs=1e-6)
    out2 = tmp_path / "b.csv"
    assert run(["soliton", "--config", str(cfg), "--grid-n", "2048",
                "--out", str(out2)]) == 0
    assert read_field_csv(str(out2)).grid.n == 2048   # flag wins over config


def test_load_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    with pytest.raises(ValueError):
        load_config(str(bad))


def test_output_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["soliton", "--gamma", "1.0", "--grid-n", "1024", "--out", str(a)])
    run(["soliton", "--gamma", "1.0", "--grid-n", "1024", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MTMLAB_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path / "..")
    assert run(["soliton", "--gamma", "1.0", "--grid-n", "1024", "--out", "env.csv"]) == 0
    assert (tmp_path / "env.csv").exists()


def test_stability_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", "0.01",
                "--seed", "3", "--t-end", "2", "--pipeline", "both",
                "--grid-n", "2048", "--out-dir", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    iterations = int(out.split("secant iterations=")[1].split()[0])
    evaluations = int(out.split("fit evaluations=")[1].split()[0])
    evans = float(out.split("|E|=")[1].split()[0])
    assert 1 <= iterations <= MAX_SECANT_ITERATIONS and evans < EVANS_TOL
    assert 2 <= evaluations <= 60   # two reconstruction fits; 33 measured
    lines = (out_dir / "records.csv").read_text().strip().split("\n")
    assert lines[0] == "t,charge,dist,a_star,theta_star,lambda_re,lambda_im,small_norm"
    assert len(lines) == 3   # t = 0 and t = 2 plus header
    assert (out_dir / "summary.csv").exists()
    man = RunManifest.from_json((out_dir / "manifest.json").read_text())
    assert man.parameters["pipeline"] == "both"


def test_stability_sweep_csvs(tmp_path):
    out_dir = tmp_path / "sweepdir"
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", "0.01",
                "--epsilon", "0.1", "--seed", "3", "--t-end", "2",
                "--pipeline", "direct", "--grid-n", "2048",
                "--out-dir", str(out_dir)])
    assert code == 0
    summary = (out_dir / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == ("epsilon,status,lambda_err,pq0_norm,max_dist,fitted_c,max_cross_l2,"
                          "slope_lambda,slope_pq,slope_dist,fits_not_converged")
    assert len(summary) == 3
    assert [row.split(",")[-1] for row in summary[1:]] == ["0", "0"]
    assert (out_dir / "records_eps0p01.csv").exists()


def test_field_read_error_exit_code(tmp_path):
    code = run(["eigen", "--field", str(tmp_path / "missing.csv"),
                "--guess-re", "0.7", "--guess-im", "0.7",
                "--out-json", str(tmp_path / "e.json"),
                "--out-eigenvector", str(tmp_path / "v.csv")])
    assert code == 1


def test_domain_error_exit_code(tmp_path):
    # eigen search on the zero field fails with a domain error (exit 1)
    g = Grid.symmetric(30.0, 1024)
    field = tmp_path / "zero.csv"
    write_field_csv(SpinorField.zero(g), str(field))
    code = run(["eigen", "--field", str(field), "--guess-re", "0.7",
                "--guess-im", "0.7", "--out-json", str(tmp_path / "e.json"),
                "--out-eigenvector", str(tmp_path / "v.csv")])
    assert code == 1
