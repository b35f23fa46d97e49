import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from mtmlab.cli import file_digest, load_config, main
from mtmlab.fields import Grid, SpinorField, l2_norm_sq, read_field_csv, write_field_csv
from mtmlab.lax import EVANS_TOL, MAX_SECANT_ITERATIONS
from mtmlab.solitons import SpectralParameter, soliton_field

from helpers import read_manifest
from oracles import allocating_trajectory, bumped_soliton


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
    man = read_manifest(tmp_path / "s.csv.manifest.json")
    assert man.subcommand == "soliton"
    assert man.timings == {}
    assert man.outputs[str(out)] == file_digest(str(out))


@pytest.mark.parametrize("args,lam", [
    (["--lambda-re", "0.8", "--lambda-im", "0.8"], complex(0.8, 0.8)),
    (["--gamma", "1.2", "--delta", "1.25"], 1.25 * np.exp(0.6j)),
], ids=["lambda", "boosted"])
def test_soliton_from_lambda_or_boost(tmp_path, args, lam):
    """Given lambda, or gamma and delta != 1, the soliton of lambda = delta e^{i gamma/2}."""
    out = tmp_path / "s.csv"
    assert run(["soliton", *args, "--grid-n", "1024", "--out", str(out)]) == 0
    f = read_field_csv(str(out))
    p = SpectralParameter(lam)
    ref = soliton_field(p, 0.0, Grid.symmetric(30.0, 1024))
    assert np.max(np.abs(f.u - ref.u)) < 1e-14     # 4.6e-16 measured
    assert np.max(np.abs(f.v - ref.v)) < 1e-14
    params = read_manifest(f"{out}.manifest.json").parameters
    assert params["gamma"] == pytest.approx(p.gamma, abs=1e-15)
    assert params["delta"] == pytest.approx(p.delta, abs=1e-15)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["umask022", "umask077", "umask002"])
def test_outputs_get_the_mode_of_a_plain_open(tmp_path, umask, mode):
    """Snapshots and manifests are created with 0o666 less the umask."""
    out = tmp_path / "s.csv"
    old = os.umask(umask)
    try:
        code = run(["soliton", "--gamma", str(GAMMA), "--grid-n", "64", "--out", str(out)])
    finally:
        os.umask(old)
    assert code == 0
    for path in (out, tmp_path / "s.csv.manifest.json"):
        assert path.stat().st_mode & 0o777 == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.manifest.json"]


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
    man = read_manifest(f"{out_json}.manifest.json")
    assert man.outputs == {str(out_json): file_digest(str(out_json)),
                           str(out_vec): file_digest(str(out_vec))}
    assert set(man.timings) == {"read_s", "eigen_s", "write_s"}
    assert all(0.0 < t < man.wall_time_s for t in man.timings.values())


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
    man = read_manifest(f"{down}.manifest.json")
    assert man.inputs == {str(field): file_digest(str(field)), str(vec): file_digest(str(vec))}
    assert set(man.timings) == {"read_s", "backlund_s", "write_s"}
    assert all(0.0 < t < man.wall_time_s for t in man.timings.values())

    up = tmp_path / "rebuilt.csv"
    code = run(["backlund", "--field", str(down), "--direction", "up",
                "--lambda-re", str(lam.real), "--lambda-im", str(lam.imag),
                "--a", "0", "--theta", "0", "--out", str(up)])
    assert code == 0
    assert l2_norm_sq(read_field_csv(str(up))) == pytest.approx(2 * np.pi, abs=1e-4)
    timings = read_manifest(f"{up}.manifest.json").timings
    assert set(timings) == {"read_s", "backlund_s", "write_s"}
    assert timings["backlund_s"] > 0.0


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
    man = read_manifest(tmp_path / "run_manifest.json")
    for path, digest in man.outputs.items():
        assert file_digest(path) == digest
    assert set(man.timings) == {"evolve_s", "write_s"}
    assert all(0.0 < t < man.wall_time_s for t in man.timings.values())


@pytest.mark.parametrize("dt,t_end,stride,message", [
    ("0", "1", "64", "dt must be finite and nonzero, got 0.0"),
    ("nan", "1", "64", "dt must be finite and nonzero, got nan"),
    ("inf", "1", "64", "dt must be finite and nonzero, got inf"),
    ("0.5", "1", "64", "characteristic transport requires |dt| = dx (0.05859375), got 0.5"),
    (repr(60.0 / 1024), "0", "64", "t_end must be finite and positive, got 0.0"),
    (repr(60.0 / 1024), "-1", "64", "t_end must be finite and positive, got -1.0"),
    (repr(60.0 / 1024), "1", "0", "stride must be >= 1, got 0"),
])
def test_evolve_rejects_a_bad_step_before_snapshot_0(tmp_path, capsys, dt, t_end, stride,
                                                     message):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "1024", "--out", str(field)])
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    code = run(["evolve", "--field", str(field), "--dt", dt, "--t-end", t_end,
                "--stride", stride, "--out-prefix", str(tmp_path / "x_")])
    assert code == 1
    assert capsys.readouterr().err == f"error: ParameterError: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("stride_args,config", [
    (["--stride", "0"], None),
    (["--stride", "-3"], None),
    ([], "stride = 0\n"),
])
def test_evolve_rejects_a_stride_below_one(tmp_path, capsys, stride_args, config):
    field = tmp_path / "s.csv"
    run(["soliton", "--gamma", str(GAMMA), "--grid-n", "1024", "--out", str(field)])
    capsys.readouterr()
    args = ["evolve", "--field", str(field), "--dt", repr(60.0 / 1024), "--t-end", "0.5",
            "--out-prefix", str(tmp_path / "x_"), *stride_args]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert run(args) == 1
    assert "error: ParameterError" in capsys.readouterr().err
    assert not list(tmp_path.glob("x_*"))


@pytest.mark.parametrize("stride", (1, 3))
@pytest.mark.parametrize("dt_sign", (1, -1))
def test_evolve_snapshots_match_the_allocating_trajectory(tmp_path, stride, dt_sign):
    # 10 steps: at stride 3 the last span is one step long
    grid = Grid.symmetric(30.0, 256)
    f0 = bumped_soliton(grid, 0.05, 1.0, 4.0, 0.3, 0.5)
    field = tmp_path / "f0.csv"
    write_field_csv(f0, str(field))
    dt = dt_sign * grid.dx
    assert run(["evolve", "--field", str(field), "--dt", repr(dt), "--t-end", repr(10 * grid.dx),
                "--stride", str(stride), "--out-prefix", str(tmp_path / "run_")]) == 0
    want = allocating_trajectory(f0, dt, 10, stride)
    snaps = sorted(tmp_path.glob("run_[0-9][0-9][0-9][0-9].csv"))
    assert len(snaps) == len(want)
    for path, (wu, wv) in zip(snaps, want):
        f = read_field_csv(str(path))
        assert f.u.tobytes() == wu.tobytes() and f.v.tobytes() == wv.tobytes()
    series = (tmp_path / "run_series.csv").read_text().split("\n")
    assert series[1].split(",")[0] == "0"


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


def test_empty_epsilon_list_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon =\n")
    for args in (["--epsilon", ","], ["--config", str(cfg)]):
        code = run(["stability", "--gamma0", str(GAMMA), *args, "--out-dir", str(out_dir)])
        assert code == 2
        assert "usage error: --epsilon lists no value" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("command,line", [
    ("stability", "grid-n = 12.5"),
    ("stability", "seed = 1.5"),
    ("stability", "pipeline = Both"),
    ("stability", "shape = bump"),
    ("backlund", "direction = sideways"),
])
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, line):
    """A config value is checked as its flag is: exit 2 naming the key and the file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = {"stability": ["--gamma0", str(GAMMA), "--epsilon", "0.01", "--out-dir", str(out)],
            "backlund": ["--field", str(tmp_path / "s.csv"), "--lambda-re", "0.7",
                         "--lambda-im", "0.7", "--out", str(out)]}[command]
    assert run([command, "--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    key, value = (part.strip() for part in line.split("="))
    assert err.startswith(f"usage error: --{key}: invalid ")
    assert repr(value) in err and err.endswith(f" in config file {cfg}\n")
    assert not out.exists()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    """A mistyped key is not skipped: exit 2 naming the key and the file, nothing written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pipelin = direct\n")
    out_dir = tmp_path / "exp"
    code = run(["stability", "--config", str(cfg), "--gamma0", str(GAMMA),
                "--epsilon", "0.01", "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: unknown key 'pipelin' in config file {cfg}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["soliton", "stability"])
def test_config_line_without_equals_is_usage_error(tmp_path, capsys, command):
    """A malformed config line exits 2 like a bad value, naming file and line; nothing written."""
    cfg = tmp_path / "garbage.cfg"
    cfg.write_text("# header\ngamma 1.0\n")
    out = tmp_path / "out"
    argv = {"soliton": ["--out", str(out)],
            "stability": ["--gamma0", str(GAMMA), "--epsilon", "0.01",
                          "--out-dir", str(out)]}[command]
    assert run([command, "--config", str(cfg), *argv]) == 2
    assert capsys.readouterr().err == (
        f"usage error: {cfg}:2: expected 'key = value', got 'gamma 1.0\\n'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["soliton", "stability"])
def test_repeated_config_key_is_usage_error(tmp_path, capsys, command):
    """A key given twice (grid-n and grid_n are one key) exits 2 naming both lines; nothing written."""
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("grid-n = 256\n# comment\ngrid_n = 512\n")
    out = tmp_path / "out"
    argv = {"soliton": ["--gamma", str(GAMMA), "--out", str(out)],
            "stability": ["--gamma0", str(GAMMA), "--epsilon", "0.01",
                          "--out-dir", str(out)]}[command]
    assert run([command, "--config", str(cfg), *argv]) == 2
    assert capsys.readouterr().err == (
        f"usage error: {cfg}:3: key 'grid_n' repeats {cfg}:1\n")
    assert not out.exists()


def test_epsilon_that_is_not_a_number_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", "0.01",
                "--epsilon", "abc", "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == "usage error: --epsilon: invalid float value: 'abc'\n"
    assert not out_dir.exists()


def test_rejected_experiment_leaves_no_directory(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code = run(["stability", "--gamma0", "4", "--epsilon", "0.01", "--out-dir", str(out_dir)])
    assert code == 1
    assert "error: ParameterError: gamma must lie in (0, pi)" in capsys.readouterr().err
    assert not out_dir.exists()


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_IMPORT_PROBE = textwrap.dedent('''
    import json, os, sys
    import mtmlab
    from mtmlab import cli
    os.chdir(sys.argv[1])
    assert cli.main(["soliton", "--gamma", "1.5", "--grid-n", "256", "--out", "s.csv"]) == 0
    assert cli.main(["eigen", "--field", "s.csv", "--guess-re", "0.73", "--guess-im", "0.68",
                     "--out-json", "e.json", "--out-eigenvector", "v.csv"]) == 0
    with open("e.json") as fh:
        eig = json.load(fh)
    assert cli.main(["backlund", "--field", "s.csv", "--eigenvector", "v.csv",
                     "--lambda-re", repr(eig["lambda_re"]), "--lambda-im", repr(eig["lambda_im"]),
                     "--out", "small.csv"]) == 0
    assert cli.main(["evolve", "--field", "s.csv", "--dt", repr(60.0 / 256), "--t-end", "1",
                     "--out-prefix", "run_"]) == 0
    assert cli.main(["stability", "--gamma0", "1.5707963267948966", "--epsilon", "0.01",
                     "--t-end", "2", "--grid-n", "256", "--out-dir", "exp"]) == 0
    field = mtmlab.read_field_csv("s.csv")
    mtmlab.modulated_distance(field, mtmlab.SpectralParameter(complex(0.73, 0.68)), 0.0)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded[:5]
''')


def test_no_command_loads_scipy(tmp_path):
    """The package runs on numpy alone: every subcommand, the stability fits included."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    man = read_manifest(out_dir / "manifest.json")
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


def test_sweep_record_files_keep_every_epsilon_apart(tmp_path):
    """%g names an epsilon it round-trips; repr names the rest, so no run overwrites another."""
    out_dir = tmp_path / "sweepdir"
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", "0.01,0.01000001,1e-5,0",
                "--t-end", "1", "--pipeline", "direct", "--grid-n", "512",
                "--out-dir", str(out_dir)])
    assert code == 0
    names = ["records_eps0p01.csv", "records_eps0p01000001.csv",
             "records_eps1em05.csv", "records_eps0.csv"]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        names + ["manifest.json", "summary.csv"])
    man = read_manifest(out_dir / "manifest.json")
    assert sorted(os.path.basename(p) for p in man.outputs) == sorted(names + ["summary.csv"])
    first, second = (np.loadtxt(out_dir / n, delimiter=",", skiprows=1) for n in names[:2])
    assert not np.array_equal(first, second)


def test_repeated_epsilon_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "sweepdir"
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", "0.01,0.1",
                "--epsilon", "1e-2", "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == "usage error: --epsilon lists 0.01 twice\n"
    assert not out_dir.exists()


def test_stability_sweep_reports_a_failed_epsilon(tmp_path, capsys):
    """A failed epsilon is a stderr line, a `failed:` row and exit 1; the rest still run.

    At eps = 50 the perturbation swamps the soliton, and the eigenvalue
    search leaves the guess's neighborhood.
    """
    out_dir = tmp_path / "sweepdir"
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", "0.01,50",
                "--t-end", "1", "--pipeline", "direct", "--grid-n", "1024",
                "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "stability: eps=50.0 failed: secant iterate left the guess neighborhood" in err
    rows = [row.split(",") for row in (out_dir / "summary.csv").read_text().split("\n")[1:-1]]
    assert [row[0] for row in rows] == ["0.01", "50"]
    assert rows[0][1] == "ok"
    assert rows[1][1].startswith("failed: secant iterate left the guess neighborhood")
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "manifest.json", "records_eps0p01.csv", "summary.csv"]


@pytest.mark.parametrize("epsilons", ("0.01,-1", "0.01,nan"))
def test_every_epsilon_is_checked_before_the_directory(tmp_path, capsys, epsilons):
    out_dir = tmp_path / "exp"
    code = run(["stability", "--gamma0", str(GAMMA), "--epsilon", epsilons, "--t-end", "2",
                "--grid-n", "256", "--out-dir", str(out_dir)])
    assert code == 1
    bad = epsilons.split(",")[1]
    assert capsys.readouterr().err == (
        f"error: ParameterError: epsilon must be finite and nonnegative, got {float(bad)}\n")
    assert not out_dir.exists()


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
