import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gflowdp import cli, envs, exact, learner, mdp
from gflowdp.learner import PolicyModel
from gflowdp.numerics import json_float_texts

from conftest import (
    exact_tables_from_json,
    oracle_exact_tables_json,
    oracle_lists_json,
    oracle_model_json,
)


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


@pytest.mark.parametrize("side, states", [(3, 18), (8, 128)])  # lattice cells + their copies
def test_enumerate_grid_counts(tmp_path, capsys, side, states):
    cfg = write_config(tmp_path, f"[env]\nname = hypergrid\ndims = 2\nside = {side}\n")
    assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert f"states {states} " in capsys.readouterr().out


def test_enumerate_unknown_env_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[env]\nname = molecules\n")
    assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: bad env config: unknown env 'molecules'\n"


@pytest.mark.parametrize("max_states, rc, message", [
    (0, 1, "bad env config: max_states must be >= 1"),
    (1, 2, "more than 1 reachable states"),  # an exceeded budget is a runtime error
])
def test_enumerate_state_budget(tmp_path, capsys, max_states, rc, message):
    cfg = write_config(
        tmp_path, f"[env]\nname = hypergrid\ndims = 2\nside = 3\nmax_states = {max_states}\n")
    assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == rc
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exact_refuses_a_hypergrid_past_the_default_budget_at_once(tmp_path, capsys):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 7\nside = 10\n")  # 2e7 states
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: more than 1000000 reachable states\n"


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
    tables = exact_tables_from_json((tmp_path / "exact_tables.json").read_text())
    assert tables.mu.sum() > 0


def test_exact_words_terminal_count(tmp_path):
    cfg = write_config(
        tmp_path,
        "[env]\nname = words\nalphabet = 2\nlength = 5\nmode = append-either-side\n",
    )
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 0
    tables = exact_tables_from_json((tmp_path / "exact_tables.json").read_text())
    m = mdp.enumerate_mdp(envs.WordsEnv(2, 5, "append-either-side"))
    for t in m.terminal_ids:
        assert tables.l[t] == pytest.approx(math.log(16), abs=1e-9)


def test_exact_large_grid_corner_count(tmp_path):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 64\n")
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 0
    tables = exact_tables_from_json((tmp_path / "exact_tables.json").read_text())
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


def test_train_makes_at_most_batch_size_streams(tmp_path, monkeypatch):
    # walker b reads stream b % threads, so with 4 walkers streams 4..11 would never be read
    cfg = write_config(tmp_path, GRID8.replace("batch_size = 32", "batch_size = 4")
                       .replace("steps = 60", "steps = 6"))
    seen = {}
    collect_batch = learner.collect_batch

    def counting(mdp_, model, config, streams):
        seen.setdefault(threads, set()).add(len(streams))
        return collect_batch(mdp_, model, config, streams)

    monkeypatch.setattr(learner, "collect_batch", counting)
    for threads in ("3", "4", "12"):
        assert cli.main(["train", "--config", cfg, "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
    assert seen == {"3": {3}, "4": {4}, "12": {4}}
    for name in ("model.json", "metrics.csv"):
        assert (tmp_path / "4" / name).read_bytes() == (tmp_path / "12" / name).read_bytes()


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


def test_the_one_parser_gives_each_command_its_own_arguments(tmp_path):
    # main builds its parser once per process; a usage error and an --model
    # on earlier commands must leave nothing behind for the next one
    cfg = write_config(tmp_path, GRID8.replace("steps = 60", "steps = 2"))
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["eval", "--config", cfg, "--threads", "0"]) == 1
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "train")]) == 0
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "model"),
                     "--model", str(tmp_path / "train" / "model.json")]) == 0
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "cached")]) == 0
    fresh = cli.build_parser.__wrapped__().parse_args(
        ["eval", "--config", cfg, "--out", str(tmp_path / "fresh")])
    assert fresh.model is None
    assert fresh.fn(fresh) == 0
    cached = (tmp_path / "cached" / "eval_report.json").read_bytes()
    assert cached == (tmp_path / "fresh" / "eval_report.json").read_bytes()
    assert cached != (tmp_path / "model" / "eval_report.json").read_bytes()


def test_eval_pearson_stays_within_one(tmp_path):
    # rounding put the exact sampler's r a hair above 1 on this grid
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 3\n")
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert 1.0 - 1e-9 < report["pearson"] <= 1.0


# every env kind with its default parameters; a uniform target (or a single
# terminal) leaves the Pearson correlation undefined
EVERY_ENV = {
    "simple-dag": ("name = simple-dag\n", True),
    "hypergrid": ("name = hypergrid\ndims = 2\nside = 4\n", False),
    "words": ("name = words\nalphabet = 2\nlength = 4\nmode = append-either-side\n", True),
    "bitvector": ("name = bitvector\nlength = 3\n", True),
    "bitvector-reward": ("name = bitvector\nlength = 3\nones_reward = 0.5\n", False),
    "tree": ("name = tree\nlabels = 1\nmax_nodes = 5\n", True),
    "dag-file": ("name = dag-file\npath = {dag}\n", False),
}


@pytest.mark.parametrize("kind", EVERY_ENV)
def test_eval_with_default_settings_on_every_env(tmp_path, kind):
    dag = tmp_path / "toy.dag"
    dag.write_text("initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\nterminal 2 0.3\n")
    env, degenerate = EVERY_ENV[kind]
    cfg = write_config(tmp_path, "[env]\n" + env.format(dag=dag) + "[eval]\n")
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    assert report["kl_forward"] < 1e-9
    if degenerate:
        assert report["pearson"] is None
    else:
        assert report["pearson"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kind", [*EVERY_ENV, "one-state"])
def test_policies_json_is_the_indent_2_encoding(tmp_path, kind):
    dag = tmp_path / "toy.dag"
    if kind == "one-state":
        dag.write_text("initial 0\nterminal 0 0.5\n")
    else:
        dag.write_text("initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\nterminal 2 0.3\n")
    env = EVERY_ENV.get(kind, EVERY_ENV["dag-file"])[0]
    cfg = write_config(tmp_path, "[env]\n" + env.format(dag=dag))
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "policies.json").read_text()
    policies = json.loads(text)
    assert list(policies) == ["maxent_forward", "uniform_forward", "maxent_backward",
                              "uniform_backward"]
    assert text == json.dumps(policies, indent=2)
    if kind == "one-state":
        assert all(values == [] for values in policies.values())


def test_lists_json_matches_the_indent_2_encoder():
    doc = {"a": [0.1, -math.inf, 5e-324, 1e300, -0.0], "empty": [], "b\"q": [2.5]}
    for d in (doc, {}):
        assert "".join(cli.lists_json(d)) == json.dumps(d, indent=2)


@st.composite
def float_arrays(draw):
    """Up to 40 entries drawn from a pool of up to 8 floats, so values repeat."""
    special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-7])
    pool = draw(st.lists(st.one_of(st.floats(), special), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@given(float_arrays())
@example([])
@example([-0.0])
@example([-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, 5e-324, -1e300])  # all distinct
@settings(max_examples=300, deadline=None)
def test_json_float_texts_is_json_dumps_of_each_entry(values):
    texts = json_float_texts(np.array(values, dtype=float))
    assert texts.shape == (len(values),)
    assert texts.tolist() == [json.dumps(x) for x in values]


@pytest.mark.parametrize("kind", [*EVERY_ENV, "one-state"])
def test_json_writers_match_their_oracles(tmp_path, kind):
    dag = tmp_path / "toy.dag"
    if kind == "one-state":
        dag.write_text("initial 0\nterminal 0 0.5\n")
    else:
        dag.write_text("initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\nterminal 2 0.3\n")
    env = EVERY_ENV.get(kind, EVERY_ENV["dag-file"])[0]
    cfg = write_config(tmp_path, "[env]\n" + env.format(dag=dag) +
                       "[train]\nsteps = 3\nbatch_size = 8\n")
    out = tmp_path / "out"
    for command in ("exact", "train"):
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    tables = (out / "exact_tables.json").read_text()
    assert tables == oracle_exact_tables_json(exact_tables_from_json(tables))
    policies = (out / "policies.json").read_text()
    assert policies == oracle_lists_json(json.loads(policies))
    model = cli.model_from_json((out / "model.json").read_text())
    assert cli.model_to_json(model) == oracle_model_json(model)
    assert (out / "model.json").read_text() == oracle_model_json(model)


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique's first call imports numpy.ma, about 12 ms
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 4\n"
                       "[train]\nsteps = 3\nbatch_size = 8\n")
    out = str(tmp_path / "out")
    script = (
        "import sys\n"
        "from gflowdp.cli import main\n"
        f"for argv in (['enumerate'], ['exact'], ['train'], ['eval'], "
        f"['eval', '--model', {out + '/model.json'!r}]):\n"
        f"    assert main(argv + ['--config', {cfg!r}, '--out', {out!r}]) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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


def test_module_entry_runs_without_warnings(tmp_path):
    # the package must not import cli itself, or runpy warns before ``-m``
    cfg = write_config(tmp_path, SIMPLE)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gflowdp.cli", "enumerate", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""


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
        ("enumerate", "max_states = 0\n", []),
        ("enumerate", "max_states = -5\n", []),
        ("train", "[train]\nsteps = 1\nlearning_rat = 0.1\n", []),
        ("train", "[train]\nsteps = 1\nhuber = 0.5\n", []),
        ("eval", "[eval]\nthreshold = 2.0\n", []),
        ("exact", "[eval]\nmetric_every = 5\n", []),
        ("enumerate", "[env]\nside = 4\n", []),
        ("enumerate", "side 4\n", []),
        ("exact", "sidee = 9\n", []),
        ("train", "dim = 2\n[train]\nsteps = 1\n", []),
        ("eval", "path = mdp.dag\n", []),
        ("train", "[train]\nsteps = 1\nn_objective = none\n", []),
    ],
)
def test_bad_numeric_input_is_a_one_line_usage_error(tmp_path, capsys, command, sections, flags):
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 3\n" + sections)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert rc == 1
    _one_line_error(capsys)


@pytest.mark.parametrize("command, env, message", [
    *((command, env, message) for command in ("exact", "train", "eval") for env, message in [
        ("name = bitvector\nlength = 3\nones_reward = nan\n", "ones_reward must be finite"),
        ("name = bitvector\nlength = 3\nones_reward = inf\n", "ones_reward must be finite"),
        ("name = simple-dag\ntarget = nan\n", "target must be finite and positive"),
    ]),
    ("render-grid", "name = hypergrid\ndims = abc\nside = 3\n",
     "invalid literal for int() with base 10: 'abc'"),
    ("exact", "name = tree\nmax_nodes = 3\nlabels = 0\n", "labels must be >= 1"),
    ("exact", "name = words\nlength = 2\nalphabet = 0\n", "alphabet must be in [1, 255]"),
])
def test_bad_env_value_is_a_one_line_usage_error(tmp_path, capsys, command, env, message):
    cfg = write_config(tmp_path, f"[env]\n{env}[train]\nsteps = 1\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: bad env config: {message}\n"


# the env each [env] misspelling is tried on; the others use the 3x3 grid
MISSPELT_ENV = {
    "ones_rewrad": "name = bitvector\nlength = 3\n",
    "alphabet_size": "name = words\nlength = 2\n",
    "label": "name = tree\nmax_nodes = 3\n",
    "targets": "name = simple-dag\n",
}


@pytest.mark.parametrize("section, key", [
    ("train", "learning_rat"), ("eval", "threshold"), ("env", "sidee"),
    *(("env", key) for key in MISSPELT_ENV),
])
def test_unknown_config_key_is_named(tmp_path, capsys, section, key):
    env = MISSPELT_ENV.get(key, "name = hypergrid\ndims = 2\nside = 3\n")
    sections = {"env": env, "train": "steps = 1\n", "eval": ""}
    sections[section] += f"{key} = 0.1\n"
    cfg = write_config(tmp_path, "".join(f"[{name}]\n{body}" for name, body in sections.items()))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert _one_line_error(capsys) == f"error: bad {section} config: unknown key {key!r}"


@pytest.mark.parametrize("command, text, section", [
    ("exact", "[env]\nname = simple-dag\n[trian]\nsteps = 2\n", "trian"),
    ("eval", "[DEFAULT]\nsteps = 2\n[env]\nname = simple-dag\n", "DEFAULT"),
    # section names are case-sensitive, unlike keys
    ("exact", "[ENV]\nname = simple-dag\n", "ENV"),
])
def test_unknown_config_section_is_named(tmp_path, capsys, command, text, section):
    cfg = write_config(tmp_path, text)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert _one_line_error(capsys) == (
        f"error: unknown config section [{section}]: expected [env], [train] or [eval]")


def test_empty_default_section_is_accepted(tmp_path):
    cfg = write_config(tmp_path, "[DEFAULT]\n" + SIMPLE)
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "exact_report.json").exists()


def test_dag_file_with_an_unknown_key_is_named(tmp_path, capsys):
    dag = tmp_path / "toy.dag"
    dag.write_text("initial 0\n0 0 1\nterminal 1 0.0\n")
    cfg = write_config(tmp_path, f"[env]\nname = dag-file\npath = {dag}\nside = 3\n")
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert _one_line_error(capsys) == "error: bad env config: unknown key 'side'"


def test_missing_env_key_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, "[env]\nname = dag-file\n")
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert _one_line_error(capsys) == "error: bad env config: missing key 'path'"


def test_readme_env_table_matches_the_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| `name` | keys (default) |\n|---|---|\n")[1].split("\n\n")[0]
    table = {}
    for row in rows.splitlines():
        _, name, keys, _ = row.split("|")
        # a key, then its default in parentheses unless it is required
        table[name.strip().strip("`")] = {
            key: default or None
            for key, default in re.findall(r"`([a-z_]+)`(?: \(`?([^`;)]+))?", keys)}
    assert table == {
        name: {key: None if isinstance(default, type) else str(default)
               for key, default in keys.items()}
        for name, (_, keys) in cli.ENVS.items()}
    assert f"`max_states` (default {mdp.DEFAULT_MAX_STATES})" in readme


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = write_config(tmp_path, readme.split("```ini\n")[1].split("```")[0])
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path)]) == 0
    config = cli.build_train_config(cli.load_config(cfg), None)
    assert (config.objective, config.backward, config.n_objective) == (
        "tb", "maxent-learned", "bellman")
    assert (config.steps, config.huber.delta, config.ema_decay) == (2000, 0.25, 0.95)


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


def _grid3_model(**changes) -> str:
    """The zero model file of the 3x3 grid, each named table passed through
    its change."""
    doc = json.loads(cli.model_to_json(PolicyModel.init(mdp.enumerate_mdp(envs.HypergridEnv(2, 3)))))
    return json.dumps({**doc, **{name: change(doc[name]) for name, change in changes.items()}})


@pytest.mark.parametrize("text", [
    "{}", "not json", '{"forward_logits": "abc"}',
    pytest.param(_grid3_model(l_hat=lambda v: 3.0), id="scalar"),
    pytest.param(_grid3_model(forward_logits=lambda v: None), id="null"),
    pytest.param(_grid3_model(forward_logits=lambda v: [[x] for x in v]), id="nested"),
    pytest.param(_grid3_model(l_hat=lambda v: v[:-1] + [math.nan]), id="nan"),
    pytest.param(_grid3_model(log_z_hat=lambda v: math.inf), id="inf"),
])
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


def test_an_overflowing_second_moment_ends_the_run(tmp_path, capsys):
    # gradients up to beta/delta = 1e300 square past the largest double: a
    # step of m / sqrt(inf) would be 0, and the model would stop moving
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 4\n"
                                 "[train]\nsteps = 20\nbatch_size = 8\nhuber_delta = 1e-300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2 and caught == []
    err = capsys.readouterr().err
    assert err == "error: gradient whose square overflows in group 'forward'\n"


def test_dag_file_with_a_duplicate_terminal_is_a_runtime_error(tmp_path, capsys):
    dag = tmp_path / "twice.dag"
    dag.write_text("initial 0\n0 0 1\nterminal 1 0.0\nterminal 1 5.0\n")
    cfg = write_config(tmp_path, f"[env]\nname = dag-file\npath = {dag}\n")
    assert cli.main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: line 4: duplicate terminal line for state 1\n"


def test_learned_counts_without_an_n_objective_fail_before_enumeration(
        tmp_path, capsys, monkeypatch):
    # the CLI cannot pass exact counts, so nothing would train l_hat
    def enumerate_(cp):
        raise AssertionError("enumerated")

    monkeypatch.setattr(cli, "_enumerate", enumerate_)
    cfg = write_config(tmp_path, "[env]\nname = hypergrid\ndims = 2\nside = 4\n"
                       "[train]\nbackward = maxent-learned\nn_objective = none\nsteps = 1\n")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: bad train config: backward = maxent-learned needs n_objective = bellman or "
        "trajectory, not none: nothing would train its counts\n")
    assert not (tmp_path / "out").exists()


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
