import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gflowdp import cli, envs, exact, mdp


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SIMPLE = "[env]\nname = simple-dag\n"
GRID8 = """
[env]
name = hypergrid
dims = 2
side = 8

[train]
objective = tb
backward = maxent-learned
n_objective = bellman
learning_rate = 0.02
batch_size = 32
steps = 60
seed = 0

[eval]
metrics_every = 20
thresholds = 1.0, 2.0
"""


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_simple_dag(tmp_path, capsys):
    cfg = write_config(tmp_path, SIMPLE)
    rc = cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "states 4" in out and "edges 5" in out
    dag = (tmp_path / "out" / "mdp.dag").read_text()
    again = mdp.enumerate_mdp(mdp.parse_dag_text(dag))
    assert again.n_states == 4 and again.n_edges == 5


def test_enumerate_grid_counts(tmp_path, capsys):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 8\n")
    assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "states 128" in capsys.readouterr().out  # 64 lattice + 64 copies


def test_enumerate_unknown_env_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[env]\nname = molecules\n")
    assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_missing_config_is_usage_error(tmp_path):
    assert cli.main(["enumerate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)]) == 1


def test_unknown_subcommand_exits_one():
    assert cli.main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# exact


def test_exact_simple_dag_reference_entropies(tmp_path):
    cfg = write_config(tmp_path, SIMPLE)
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "exact_report.json").read_text())
    assert report["entropy_uniform"] == pytest.approx(1.5 * math.log(2), abs=1e-9)
    assert report["entropy_maxent"] == pytest.approx(math.log(3), abs=1e-9)
    assert report["logZ"] == pytest.approx(report["logZ_value"], abs=1e-9)
    tables = exact.ExactTables.from_json((tmp_path / "exact_tables.json").read_text())
    assert tables.mu.sum() > 0


def test_exact_words_terminal_count(tmp_path):
    cfg = write_config(
        tmp_path,
        "[env]\nname = words\nalphabet = 2\nlength = 5\nmode = append-either-side\n",
    )
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 0
    tables = exact.ExactTables.from_json((tmp_path / "exact_tables.json").read_text())
    m = mdp.enumerate_mdp(envs.WordsEnv(2, 5, "append-either-side"))
    for t in m.terminal_ids:
        assert tables.l[t] == pytest.approx(math.log(16), abs=1e-9)


def test_exact_large_grid_corner_count(tmp_path):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 64\n")
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 0
    tables = exact.ExactTables.from_json((tmp_path / "exact_tables.json").read_text())
    m = mdp.enumerate_mdp(envs.HypergridEnv(2, 64))
    corner = m.states.index(bytes([0, 63, 63]))
    expect = math.lgamma(127) - 2 * math.lgamma(64)
    assert tables.l[corner] == pytest.approx(expect, abs=1e-6)


# ---------------------------------------------------------------------------
# train


def test_train_deterministic_csv(tmp_path):
    cfg = write_config(tmp_path, GRID8)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == (
        "step,kl_forward,kl_reverse,entropy,max_entropy_bound,"
        "policy_loss,n_loss,n_mse,modes_found"
    )


def test_train_zero_steps_header_only(tmp_path):
    cfg = write_config(tmp_path, GRID8.replace("steps = 60", "steps = 0"))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1


def test_train_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, GRID8)
    assert cli.main(["train", "--config", cfg, "--seed", "7",
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["train", "--config", cfg, "--seed", "8",
                     "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b


def test_model_json_round_trip_reproduces_metrics(tmp_path):
    cfg = write_config(tmp_path, GRID8)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    model = cli.model_from_json((tmp_path / "model.json").read_text())
    m = mdp.enumerate_mdp(envs.HypergridEnv(2, 8))
    from gflowdp import metrics as gmetrics

    log_pi = model.forward_log_probs(m)
    last = (tmp_path / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert gmetrics.kl_terminal(m, log_pi, "forward") == pytest.approx(
        float(last[1]), abs=1e-12
    )
    assert exact.flow_entropy(m, log_pi) == pytest.approx(float(last[3]), abs=1e-12)
    l_exact = exact.count_paths(m)
    assert gmetrics.n_mse(model.l_hat, l_exact) == pytest.approx(
        float(last[7]), abs=1e-12
    )


# ---------------------------------------------------------------------------
# eval


def test_eval_exact_policy(tmp_path):
    cfg = write_config(tmp_path, GRID8)
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert report["kl_forward"] == pytest.approx(0.0, abs=1e-9)
    assert report["pearson"] == pytest.approx(1.0, abs=1e-9)
    assert report["modes"]["2.0"] == 4


def test_eval_trained_model(tmp_path):
    cfg = write_config(tmp_path, GRID8)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path),
                     "--model", str(tmp_path / "model.json")]) == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert report["n_mse"] is not None


# ---------------------------------------------------------------------------
# render-grid


def test_render_grid_mu(tmp_path):
    cfg = write_config(tmp_path, GRID8)
    assert cli.main(["render-grid", "--config", cfg, "--out", str(tmp_path)]) == 0
    pgm = (tmp_path / "grid_mu.pgm").read_bytes()
    assert pgm.startswith(b"P5\n8 8\n255\n")
    assert len(pgm) == len(b"P5\n8 8\n255\n") + 64
    rows = [
        [float(x) for x in line.split(",")]
        for line in (tmp_path / "grid_mu.csv").read_text().splitlines()
    ]
    assert sum(sum(r) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_render_grid_uniform_target(tmp_path):
    # every cell of a 2x2 grid is a corner, so the target is uniform
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 2\n")
    assert cli.main(["render-grid", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [
        [float(x) for x in line.split(",")]
        for line in (tmp_path / "grid_mu.csv").read_text().splitlines()
    ]
    flat = [x for r in rows for x in r]
    assert np.allclose(flat, 0.25, atol=1e-12)


def test_render_grid_fields_and_backward(tmp_path):
    cfg = write_config(tmp_path, GRID8)
    for field in ("target", "l"):
        assert cli.main(["render-grid", "--config", cfg, "--out", str(tmp_path),
                         "--field", field]) == 0
        assert (tmp_path / f"grid_{field}.pgm").exists()
    assert cli.main(["render-grid", "--config", cfg, "--out", str(tmp_path),
                     "--backward", "uniform"]) == 0


def test_render_grid_rejects_other_dims(tmp_path):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 4\nside = 3\n")
    assert cli.main(["render-grid", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, SIMPLE)
    assert cli.main(["render-grid", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# dag-file env and console entry


def test_dag_file_env(tmp_path):
    dag = tmp_path / "toy.dag"
    dag.write_text("initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\nterminal 2 0.3\n")
    cfg = write_config(tmp_path, f"[env]\nname = dag-file\npath = {dag}\n")
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "exact_report.json").read_text())
    assert report["n_states"] == 3


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "from gflowdp.cli import main; raise SystemExit(main(['enumerate']))"],
        capture_output=True,
        text=True,
    )
    # no config: the simple-dag default is not assumed; missing env name
    assert proc.returncode == 1


def test_render_grid_large_maxent_marginal(tmp_path):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 64\n")
    assert cli.main(["render-grid", "--config", cfg, "--out", str(tmp_path)]) == 0
    pgm = (tmp_path / "grid_mu.pgm").read_bytes()
    assert pgm.startswith(b"P5\n64 64\n255\n")
    rows = [
        [float(x) for x in line.split(",")]
        for line in (tmp_path / "grid_mu.csv").read_text().splitlines()
    ]
    assert sum(sum(r) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_eval_uniform_pearson_mode(tmp_path):
    cfg = write_config(tmp_path, GRID8 + "pearson_mode = uniform\n")
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert report["pearson"] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# bad input


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert lines and lines[-1].startswith("error: ")
    return lines[-1]


@pytest.mark.parametrize(
    "command, sections, flags",
    [
        ("train", "[train]\nsteps = 1\n[eval]\nmetrics_every = 0\n", []),
        ("train", "[train]\nsteps = 1\n", ["--threads", "0"]),
        ("train", "[train]\nsteps = 1\n", ["--seed", "-1"]),
        ("eval", "", ["--seed", "-1"]),
        ("train", "[train]\nsamples = nan\nbatch_size = 8\n", []),
        ("train", "[train]\nsamples = 100\nbatch_size = 0\n", []),
        ("train", "[train]\nsteps = 1\nlearning_rate = nan\n", []),
        ("train", "[train]\nsteps = 1\nlearning_rate = abc\n", []),
        ("train", "[train]\nsteps = 1\nreward_exponent = inf\n", []),
        ("train", "[train]\nsteps = 1\nlambda_stb = -1\n", []),
        ("train", "[train]\nsteps = 1\nlambda_stb = 0\n", []),
        ("train", "[train]\nsteps = 1\nhuber_delta = 0\n", []),
        ("train", "[train]\nsteps = 1\nhuber_beta = nan\n", []),
        ("eval", "[eval]\npearson_samples = -3\n", []),
        ("eval", "[eval]\nthresholds = 1.0, nan\n", []),
        ("eval", "[eval]\nmode_threshold = -1\n", []),
        ("enumerate", "max_states = lots\n", []),
    ],
)
def test_bad_numeric_input_is_a_one_line_usage_error(tmp_path, capsys, command, sections, flags):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 3\n" + sections)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert rc == 1
    _one_line_error(capsys)


@pytest.mark.parametrize("command", ["eval", "render-grid"])
@pytest.mark.parametrize("side", [3, 5])
def test_model_from_another_grid_is_a_runtime_error(tmp_path, capsys, command, side):
    grid = "[env]\nname = hypergrid\ndims = 2\nside = {}\n"
    train_cfg = write_config(tmp_path, grid.format(4) + "[train]\nsteps = 1\nbatch_size = 4\n",
                             "train.ini")
    assert cli.main(["train", "--config", train_cfg, "--out", str(tmp_path / "m")]) == 0
    other = write_config(tmp_path, grid.format(side), "other.ini")
    capsys.readouterr()
    rc = cli.main([command, "--config", other, "--out", str(tmp_path / "out"),
                   "--model", str(tmp_path / "m" / "model.json")])
    assert rc == 2
    assert "model forward_logits has" in _one_line_error(capsys)


@pytest.mark.parametrize("text", ["{}", "not json", '{"forward_logits": "abc"}'])
def test_malformed_model_file_is_a_runtime_error(tmp_path, capsys, text):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 3\n")
    model = tmp_path / "model.json"
    model.write_text(text)
    rc = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "out"), "--model", str(model)])
    assert rc == 2
    assert "malformed model file" in _one_line_error(capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dag_file_with_non_finite_target_is_a_runtime_error(tmp_path, capsys, value):
    dag = tmp_path / "bad.dag"
    dag.write_text(f"initial 0\n0 0 1\nterminal 1 {value}\n")
    cfg = write_config(tmp_path, f"[env]\nname = dag-file\npath = {dag}\n[train]\nsteps = 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _one_line_error(capsys) == f"error: line 3: log_target {value} is not finite"


def test_train_stb_with_huge_lambda_has_finite_losses(tmp_path):
    cfg = write_config(tmp_path, (
        "[env]\nname = bitvector\nlength = 3\n\n"
        "[train]\nobjective = stb\nlambda_stb = 1e300\nbatch_size = 16\nsteps = 4\nseed = 0\n\n"
        "[eval]\nmetrics_every = 2\n"
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        assert math.isfinite(row["policy_loss"]) and math.isfinite(row["n_loss"])
