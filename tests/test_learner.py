import bisect
import itertools
import json
from dataclasses import fields

import numpy as np
import pytest

from gflowdp import cli, exact, learner, metrics, objectives
from gflowdp.envs import BitVectorEnv, HypergridEnv
from gflowdp.learner import (
    BACKWARDS,
    N_OBJECTIVES,
    OBJECTIVES,
    PARAM_GROUPS,
    BackwardRequiresL,
    ModelMismatch,
    NonFiniteGradient,
    PolicyModel,
    RolloutBatch,
    TrainConfig,
    adam_init,
    collect_batch,
    compute_loss_and_grads,
    ema_update,
    optimizer_update,
    run_training,
    train_step,
)
from gflowdp.mdp import enumerate_mdp, parse_dag_text
from gflowdp.numerics import json_float_texts

import loop_oracles as loops
from conftest import batch_from_trajectories, model_at_exact, oracle_model_json


# ---------------------------------------------------------------------------
# sampling


def _sample(m, model, epsilon, n, rng):
    """``n`` trajectories from one ``collect_batch`` on one stream."""
    config = TrainConfig(batch_size=n, epsilon_uniform=epsilon)
    return collect_batch(m, model, config, [rng]).trajectories


def test_sample_uniform_exploration_path_frequencies(fig_diamond):
    # epsilon=1 ignores the logits: paths get 1/2, 1/4, 1/4
    model = PolicyModel.init(fig_diamond)
    model.forward_logits[:] = np.random.default_rng(0).normal(0, 3, fig_diamond.n_edges)
    counts = {}
    n = 20000
    for t in _sample(fig_diamond, model, 1.0, n, np.random.default_rng(123)):
        counts[tuple(t.states.tolist())] = counts.get(tuple(t.states.tolist()), 0) + 1
    freqs = sorted(v / n for v in counts.values())
    assert len(freqs) == 3
    assert freqs[0] == pytest.approx(0.25, abs=0.02)
    assert freqs[1] == pytest.approx(0.25, abs=0.02)
    assert freqs[2] == pytest.approx(0.50, abs=0.02)


def test_sample_deterministic_logits(fig_diamond):
    model = PolicyModel.init(fig_diamond)
    model.forward_logits[fig_diamond.out_slice(0)] = np.array([50.0, 0.0])
    ends = {tuple(t.states.tolist())
            for t in _sample(fig_diamond, model, 0.0, 50, np.random.default_rng(7))}
    assert len(ends) == 1


def test_sample_seed_reproducibility(grid33):
    model = PolicyModel.init(grid33)
    a = _sample(grid33, model, 0.3, 20, np.random.default_rng(5))
    b = _sample(grid33, model, 0.3, 20, np.random.default_rng(5))
    assert len(a) == len(b) == 20
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.edges, tb.edges)


def test_sampled_trajectories_are_legal(grid44):
    model = PolicyModel.init(grid44, np.random.default_rng(1), scale=0.5)
    for t in _sample(grid44, model, 0.1, 40, np.random.default_rng(2)):
        assert t.states[0] == grid44.initial
        assert grid44.terminal[t.end]
        assert np.array_equal(grid44.edge_src[t.edges], t.states[:-1])
        assert np.array_equal(grid44.edge_dst[t.edges], t.states[1:])


def test_lockstep_batch_matches_behavior_path_probabilities(fig_diamond):
    # three streams share 20000 walkers; each of the 3 paths is sampled with
    # the product of its behavior edge probabilities
    model = PolicyModel.init(fig_diamond, np.random.default_rng(0), scale=1.5)
    config = TrainConfig(batch_size=20000, epsilon_uniform=0.3)
    batch = collect_batch(fig_diamond, model, config, np.random.default_rng(9).spawn(3))
    degree = np.diff(fig_diamond.out_offset)[fig_diamond.edge_src]
    eps = config.epsilon_uniform
    p = (1 - eps) * np.exp(model.forward_log_probs(fig_diamond)) + eps / degree
    counts = {}
    for t in batch.trajectories:
        counts[tuple(t.edges.tolist())] = counts.get(tuple(t.edges.tolist()), 0) + 1
    paths = list(exact.iter_trajectories(fig_diamond))
    assert len(paths) == 3 and set(counts) <= {tuple(p) for p in paths}
    for path in paths:
        want = float(np.prod(p[path]))
        assert counts.get(tuple(path), 0) / config.batch_size == pytest.approx(want, abs=0.02)


class _ChosenUniforms:
    """A stream whose ``random(k)`` returns its next k chosen values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, k):
        drawn, self.values = self.values[:k], self.values[k:]
        return np.array(drawn, dtype=float)


def test_walk_ties_take_bisect_right():
    # zero-probability edges repeat CDF entries: state 0 has CDF [.5, .5, 1],
    # state 1 [0, .5, .5, 1] and state 3 [1, 1]; uniforms hit those entries
    m = enumerate_mdp(parse_dag_text(
        "initial 0\n0 0 1\n0 1 2\n0 2 3\n1 0 4\n1 1 5\n1 2 6\n1 3 7\n2 0 4\n3 0 5\n3 1 6\n"
        + "".join(f"terminal {t} 0.0\n" for t in (4, 5, 6, 7))))
    model = PolicyModel.init(m)
    for s, logits in ((0, [0, -np.inf, 0]), (1, [-np.inf, 0, -np.inf, 0]), (3, [0, -np.inf])):
        model.forward_logits[m.out_slice(m.states.index(b"%d" % s))] = logits
    cdf = learner._behavior_tables(m, model, 0.0)
    uniforms = [0.0, 0.25, 0.5, 0.75, 1 - 2**-53, 1.0]
    paths = list(itertools.product(uniforms, repeat=2))
    _, edge_rows = learner._walk(m, cdf, len(paths), [_ChosenUniforms(u) for u in paths])
    for row, u in zip(edge_rows, paths):
        s, want = m.initial, []
        while not m.terminal[s]:
            lo, hi = m.out_offset[s], m.out_offset[s + 1]
            want.append(min(bisect.bisect_right(cdf, u[len(want)], lo, hi), hi - 1))
            s = m.edge_dst[want[-1]]
        assert row[row >= 0].tolist() == want


class _RecordingStream:
    """A stream that draws from ``rng`` and logs ``(index, k, draws)`` for
    each ``random(k)``, into a log all streams of a walk share."""

    def __init__(self, index, rng, log):
        self.index, self.rng, self.log = index, rng, log

    def random(self, k):
        drawn = self.rng.random(k)
        self.log.append((self.index, k, drawn))
        return drawn


@pytest.mark.parametrize("n_streams", [1, 3, 14])  # 14: two more streams than walkers
def test_walk_draws_one_vector_a_step_per_stream_with_live_walkers(grid44, n_streams):
    n, m = 12, grid44
    model = PolicyModel.init(m, np.random.default_rng(2), scale=1.0)
    cdf = learner._behavior_tables(m, model, 0.2)
    log = []
    streams = [_RecordingStream(j, rng, log)
               for j, rng in enumerate(np.random.default_rng(3).spawn(n_streams))]
    state_rows, edge_rows = learner._walk(m, cdf, n, streams)
    lengths = (edge_rows >= 0).sum(axis=1)
    assert len(set(lengths.tolist())) > 1  # walkers stop at different steps
    # at step t, stream j draws once for its walkers j, j + n_streams, ...
    # that are still live, in walker order, and streams without any do not draw
    want = [(j, live) for t in range(lengths.max()) for j in range(n_streams)
            if (live := [b for b in range(j, n, n_streams) if lengths[b] > t])]
    assert [(j, k) for j, k, _ in log] == [(j, len(live)) for j, live in want]
    uniforms = {b: [] for b in range(n)}
    for (_, _, drawn), (_, live) in zip(log, want):
        for b, u in zip(live, drawn.tolist()):
            uniforms[b].append(u)
    # each row replays bisect_right on its walker's uniforms, and its states
    # are padded with its terminal
    for b in range(n):
        s, picks, states = m.initial, [], [m.initial]
        for u in uniforms[b]:
            lo, hi = m.out_offset[s], m.out_offset[s + 1]
            picks.append(min(bisect.bisect_right(cdf, u, lo, hi), hi - 1))
            s = m.edge_dst[picks[-1]]
            states.append(s)
        assert m.terminal[s] and edge_rows[b, :lengths[b]].tolist() == picks
        assert state_rows[b].tolist() == states + [s] * (edge_rows.shape[1] - lengths[b])


def test_lockstep_batch_is_reproducible(grid44):
    model = PolicyModel.init(grid44, np.random.default_rng(1), scale=0.5)
    config = TrainConfig(batch_size=50, epsilon_uniform=0.2)
    a, b = (collect_batch(grid44, model, config, np.random.default_rng(4).spawn(3))
            for _ in range(2))
    for f in fields(RolloutBatch):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_batch_rows_are_padded_with_the_terminal():
    # the initial steps straight to terminal 1 or walks 0 -> 2 -> 3 -> 4
    m = enumerate_mdp(parse_dag_text(
        "initial 0\n0 0 1\n0 1 2\n2 0 3\n3 0 4\nterminal 1 0.0\nterminal 4 0.0\n"))
    batch = collect_batch(m, PolicyModel.init(m), TrainConfig(batch_size=16, epsilon_uniform=1.0),
                          [np.random.default_rng(2)])
    one, four = m.states.index(b"1"), m.states.index(b"4")
    assert set(batch.lengths.tolist()) == {1, 3} and batch.state_rows.shape == (16, 4)
    for b, (n, row) in enumerate(zip(batch.lengths, batch.state_rows)):
        assert row[n:].tolist() == [batch.terminals[b]] * (4 - n)
        assert batch.terminals[b] == (one if n == 1 else four)
    # a zero-step walker next to a long one, as a hand-built batch
    zero = learner.SampledPath(states=np.array([one]), edges=np.zeros(0, dtype=np.int64))
    longest = batch.trajectories[int(np.argmax(batch.lengths))]
    mixed = batch_from_trajectories([zero, longest])
    assert mixed.state_rows[0].tolist() == [one] * 4
    assert mixed.lengths.tolist() == [0, 3]
    assert mixed.step_pos.tolist() == [3, 4, 5]
    # a batch of only zero-step walkers has rows of the terminal alone
    single = enumerate_mdp(parse_dag_text("initial 0\nterminal 0 0.5\n"))
    batch = collect_batch(single, PolicyModel.init(single), TrainConfig(batch_size=3),
                          [np.random.default_rng(0)])
    assert batch.state_rows.tolist() == [[0]] * 3 and batch.step_edge.size == 0


@pytest.mark.parametrize("n_streams", [1, 3])
def test_batch_without_walkers_has_no_trajectories(fig_diamond, n_streams):
    config = TrainConfig(batch_size=0)  # collect_batch does not validate its config
    streams = np.random.default_rng(0).spawn(n_streams)
    batch = collect_batch(fig_diamond, PolicyModel.init(fig_diamond), config, streams)
    assert batch.state_rows.shape == (0, 1) and batch.lengths.size == 0
    assert batch.trajectories == []
    with pytest.raises(ValueError, match="nonempty"):
        compute_loss_and_grads(fig_diamond, PolicyModel.init(fig_diamond), batch, config)


# ---------------------------------------------------------------------------
# gradients


def test_gradients_match_finite_differences(two_terminal):
    m = two_terminal
    l_exact = exact.count_paths(m)
    rng = np.random.default_rng(7)
    model = PolicyModel.init(m, rng, scale=0.7)
    batch = collect_batch(m, model, TrainConfig(batch_size=12, epsilon_uniform=0.2),
                          [np.random.default_rng(3)])
    h = 1e-5
    for obj, back, nobj in itertools.product(OBJECTIVES, BACKWARDS, N_OBJECTIVES):
        cfg = TrainConfig(objective=obj, backward=back, n_objective=nobj,
                          batch_size=12, lambda_stb=0.9)
        _, grads = compute_loss_and_grads(m, model, batch, cfg, exact_l=l_exact)
        analytic = model.pack_grads(m, grads)
        vec = model.pack(m)
        fd = np.zeros_like(vec)
        for i in range(len(vec)):
            plus, minus = vec.copy(), vec.copy()
            plus[i] += h
            minus[i] -= h
            s_p, _ = compute_loss_and_grads(
                m, model.unpack(m, plus), batch, cfg, exact_l=l_exact)
            s_m, _ = compute_loss_and_grads(
                m, model.unpack(m, minus), batch, cfg, exact_l=l_exact)
            fd[i] = (s_p["loss"] - s_m["loss"]) / (2 * h)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        rel = np.abs(analytic - fd) / scale
        assert rel.max() < 1e-5, (obj, back, nobj, rel.max())


def test_fixed_point_zero_loss_and_gradient(grid33):
    tables = exact.exact_tables(grid33)
    model = model_at_exact(grid33, tables)
    batch = collect_batch(grid33, model, TrainConfig(batch_size=16), [np.random.default_rng(0)])
    for obj, nobj in itertools.product(OBJECTIVES, N_OBJECTIVES):
        cfg = TrainConfig(objective=obj, backward="maxent-learned", n_objective=nobj)
        stats, grads = compute_loss_and_grads(grid33, model, batch, cfg, exact_l=tables.l)
        assert stats["loss"] < 1e-12, (obj, nobj)
        assert max(np.abs(g).max() for g in grads.values()) < 1e-9, (obj, nobj)


def test_fixed_point_training_is_stationary(grid33):
    tables = exact.exact_tables(grid33)
    model = model_at_exact(grid33, tables)
    reference = model.copy()
    cfg = TrainConfig(objective="tb", backward="maxent-learned", n_objective="trajectory",
                      batch_size=16, steps=100, seed=0)
    _, model = run_training(grid33, cfg, model=model)
    for key, p in model.param_groups().items():
        assert np.abs(p - reference.param_groups()[key]).max() < 1e-6, key


# ---------------------------------------------------------------------------
# optimizer


def _one_group(w):
    """The parameter groups of a model whose only nonempty table is ``w``,
    its ``forward_logits``; its Adam state; and its gradient mapping of a
    gradient ``g`` on ``w``."""
    model = PolicyModel(np.array(w, dtype=float), *[np.zeros(0)] * 4)
    return (model.param_groups(), adam_init(model),
            lambda g: model.split(np.array(g, dtype=float)))


def test_optimizer_zero_gradient_is_identity():
    params, state, grads = _one_group([1.0, -2.0])
    optimizer_update(params, grads(np.zeros(2)), state, 0.1)
    assert np.array_equal(params["forward"], [1.0, -2.0])


def test_optimizer_moves_against_constant_gradient():
    params, state, grads = _one_group([0.0])
    history = []
    for _ in range(50):
        optimizer_update(params, grads([2.5]), state, 0.01)
        history.append(params["forward"][0])
    assert all(b < a for a, b in zip(history, history[1:]))


def test_optimizer_scalar_quadratic_converges():
    params, state, grads = _one_group([3.0])
    for _ in range(10_000):
        grad = 2.0 * (params["forward"] - 0.5)
        optimizer_update(params, grads(grad), state, 1e-2)
    assert abs(params["forward"][0] - 0.5) < 1e-6


def test_optimizer_rejects_nonfinite_gradient():
    params, state, grads = _one_group([0.0])
    with pytest.raises(NonFiniteGradient):
        optimizer_update(params, grads([float("nan")]), state, 0.1)


@pytest.mark.parametrize("key", PARAM_GROUPS)
def test_optimizer_names_the_group_of_a_nonfinite_gradient(grid33, key):
    model = PolicyModel.init(grid33, np.random.default_rng(0), 0.5)
    before = model.params.copy()
    grads = model.split(np.ones_like(model.params))
    grads[key][-1] = float("nan")
    with pytest.raises(NonFiniteGradient, match=f"^non-finite gradient in group {key!r}$"):
        optimizer_update(model.param_groups(), grads, adam_init(model), 0.1)
    assert np.array_equal(model.params, before)


@pytest.mark.parametrize("env", [HypergridEnv(2, 8), BitVectorEnv(5)], ids=["grid8", "bitvec5"])
def test_flat_adam_repin_and_ema_match_the_per_group_loops(env):
    # 200 steps of sparse gradients with exact zeros and -0.0, and some far
    # below Adam's eps, where a change of operation order would show
    m = enumerate_mdp(env)
    rng = np.random.default_rng(7)
    model = PolicyModel.init(m, rng, 0.5)
    sampling, state = model.copy(), adam_init(model)
    want, want_sampling = model.copy(), model.copy()
    want_state = loops.adam_init(want)
    for _ in range(200):
        grads = model.split(np.empty_like(model.params))
        for g in grads.values():
            g[:] = rng.normal(0.0, 1.0, g.size) * 10.0 ** rng.integers(-18, 1, g.size)
            g[rng.random(g.size) < 0.5] = 0.0
            g[rng.random(g.size) < 0.2] = -0.0
        optimizer_update(model.param_groups(), grads, state, 0.01)
        model.repin(m)
        ema_update(sampling, model, 0.95)
        loops.optimizer_update(want.param_groups(), grads, want_state, 0.01)
        loops.repin(want, m)
        loops.ema_update(want_sampling, want, 0.95)
    assert np.array_equal(model.params.view(np.int64), want.params.view(np.int64))
    # the EMA averages the one table the sampler reads
    assert np.array_equal(sampling.forward_logits.view(np.int64),
                          want_sampling.forward_logits.view(np.int64))
    for have, oracle in [(state.m, want_state.m), (state.v, want_state.v)]:
        oracle = np.concatenate([oracle[k] for k in PARAM_GROUPS])
        assert np.array_equal(have.view(np.int64), oracle.view(np.int64))


def test_model_tables_are_views_of_one_buffer(grid33):
    tables = {f.name: np.arange(n, dtype=float) + k for k, (f, n) in enumerate(zip(
        fields(PolicyModel), [grid33.n_edges] * 2 + [grid33.n_states] * 2 + [1]))}
    model = PolicyModel(**tables)
    # the buffer holds the tables in the order of the groups, not of the fields
    assert np.array_equal(model.params, np.concatenate([tables[name] for name in learner.TABLES]))
    for name, table in tables.items():
        assert getattr(model, name).base is model.params, name
        assert not np.shares_memory(table, model.params), name
        table += 1.0  # the model owns its copy
    assert np.array_equal(model.params,
                          np.concatenate([tables[name] for name in learner.TABLES]) - 1.0)
    model.l_hat[3] = -7.0  # the views write through
    assert model.params[grid33.n_edges + 3] == -7.0
    twin = model.copy()
    assert not np.shares_memory(twin.params, model.params)
    assert np.array_equal(twin.params.view(np.int64), model.params.view(np.int64))
    for name in tables:
        assert getattr(twin, name).base is twin.params, name


def test_check_fits_names_the_first_table_that_does_not_fit(grid33):
    e, s = grid33.n_edges, grid33.n_states
    for name, short in [("forward_logits", e), ("backward_logits", e), ("l_hat", s),
                        ("log_f_hat", s)]:
        tables = {f.name: getattr(PolicyModel.init(grid33), f.name) for f in fields(PolicyModel)}
        tables[name] = np.zeros(short - 1)
        with pytest.raises(ModelMismatch, match=(
                f"^model {name} has {short - 1} entries but the MDP has {s} states and {e} "
                "edges$")):
            PolicyModel(**tables).check_fits(grid33)


def _runs_across_tables(n, ends):
    buffer = np.arange(n) // 5 + 0.5
    for k, end in enumerate(ends[:-1]):  # one run spans the end of l, log Z and log F
        buffer[end - 2:end + 2] = -k - 1.0
    return buffer


# buffers laid out as PolicyModel.params, in TABLES order ("trained": a model
# trained 5 steps); the writer collapses the runs of "zero", at most a
# quarter of its entries, and formats the others whole
MODEL_BUFFERS = {
    "trained": None,
    "zero": lambda n, ends: np.zeros(n),
    "runs-across-tables": _runs_across_tables,
    "signed-zeros": lambda n, ends: np.resize(
        [0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 1.0, 1.0], n),
    "extremes": lambda n, ends: np.resize(
        np.repeat([5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e-300], 3), n),
    "short-runs": lambda n, ends: np.resize([0.0, 0.0, -0.0, 1.0, 2.0], n),
    "all-distinct": lambda n, ends: np.random.default_rng(4).normal(size=n),
}


@pytest.mark.parametrize("kind", MODEL_BUFFERS)
def test_model_json_is_json_dumps_of_its_lists(grid33, kind):
    if kind == "trained":
        _, model = run_training(grid33, TrainConfig(batch_size=8, steps=5, seed=3))
    else:
        model = PolicyModel.init(grid33)
        model.params[:] = MODEL_BUFFERS[kind](model.params.size, model.ends)
    assert cli.model_to_json(model) == oracle_model_json(model)
    assert isinstance(json.loads(cli.model_to_json(model))["log_z_hat"], float)


@pytest.mark.parametrize("values", [[0.0, -0.0, 0.0, 1.0],
                                    [5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e-300]])
def test_model_json_repeats_the_text_of_long_runs(grid33, monkeypatch, values):
    # runs of 6 signed zeros or extremes, some across table ends: the writer
    # formats only the heads of the runs, cut at those ends
    model = PolicyModel.init(grid33)
    model.params[:] = np.resize(np.repeat(values, 6), model.params.size)
    formatted = []

    def texts(values):
        formatted.append(len(values))
        return json_float_texts(values)

    monkeypatch.setattr(cli, "json_float_texts", texts)
    assert cli.model_to_json(model) == oracle_model_json(model)
    assert 4 * formatted[0] <= model.params.size and len(formatted) == 1


# ---------------------------------------------------------------------------
# EMA


def test_ema_extremes_and_geometric_decay(grid33):
    train = PolicyModel.init(grid33, np.random.default_rng(0), scale=1.0)
    sampling = PolicyModel.init(grid33)
    # the EMA averages the forward logits, the one table the sampler reads,
    # and leaves the others as they are
    frozen = sampling.copy()
    ema_update(sampling, train, decay=0.0)
    assert np.allclose(sampling.forward_logits, train.forward_logits, atol=0)
    assert np.array_equal(sampling.params[grid33.n_edges:], frozen.params[grid33.n_edges:])

    sampling = PolicyModel.init(grid33)
    frozen = sampling.copy()
    ema_update(sampling, train, decay=1.0)
    assert np.array_equal(sampling.params, frozen.params)

    sampling = PolicyModel.init(grid33)
    gap = [np.abs(sampling.forward_logits - train.forward_logits).max()]
    for _ in range(3):
        ema_update(sampling, train, decay=0.95)
        gap.append(np.abs(sampling.forward_logits - train.forward_logits).max())
    for a, b in zip(gap, gap[1:]):
        assert b == pytest.approx(0.95 * a, rel=1e-9)


# ---------------------------------------------------------------------------
# train_step / run_training


def test_train_step_requires_l_sources(fig_diamond):
    model = PolicyModel.init(fig_diamond)
    batch = collect_batch(fig_diamond, model, TrainConfig(batch_size=4),
                          [np.random.default_rng(0)])
    opt = adam_init(model)
    cfg = TrainConfig(backward="maxent-known", n_objective="none")
    with pytest.raises(BackwardRequiresL):
        train_step(fig_diamond, model, batch, cfg, opt)
    cfg = TrainConfig(backward="maxent-learned", n_objective="none")
    with pytest.raises(BackwardRequiresL):
        train_step(fig_diamond, model, batch, cfg, opt)
    with pytest.raises(ValueError):
        compute_loss_and_grads(fig_diamond, model, batch_from_trajectories([]),
                               TrainConfig())


def test_run_training_zero_steps_is_empty(fig_diamond):
    rows, _ = run_training(fig_diamond, TrainConfig(steps=0))
    assert rows == []


def test_metrics_row_is_evaluate_policy_of_the_model(grid33):
    # the row measures against the tempered target p~**b, like evaluate_policy
    # of the trained model on that target
    cfg = TrainConfig(objective="tb", n_objective="bellman", learning_rate=0.02, batch_size=16,
                      steps=20, reward_exponent=2.0, seed=3)
    rows, model = run_training(grid33, cfg, metrics_every=20)
    tempered = grid33.with_log_target(grid33.log_target * 2.0)
    report = metrics.evaluate_policy(tempered, model.forward_log_probs(tempered),
                                     l_hat=model.l_hat)
    for name in ("kl_forward", "kl_reverse", "entropy", "max_entropy_bound", "n_mse"):
        assert getattr(rows[-1], name) == getattr(report, name), name


def test_run_training_deterministic(two_terminal):
    cfg = TrainConfig(objective="tb", backward="uniform", n_objective="bellman",
                      learning_rate=0.01, batch_size=8, steps=30, seed=9)
    rows_a, model_a = run_training(two_terminal, cfg, metrics_every=10)
    rows_b, model_b = run_training(two_terminal, cfg, metrics_every=10)
    assert rows_a == rows_b
    for key, p in model_a.param_groups().items():
        assert np.array_equal(p, model_b.param_groups()[key])


def test_run_training_diamond_defaults_reach_tiny_kl(fig_diamond):
    # single-terminal MDP: the terminal marginal matches the target from the
    # start, and the reference defaults keep it there
    cfg = TrainConfig(steps=50)
    rows, _ = run_training(fig_diamond, cfg, metrics_every=50)
    assert rows[-1].kl_forward < 1e-6


def test_run_training_two_terminal_converges(two_terminal):
    cfg = TrainConfig(objective="tb", backward="uniform", n_objective="bellman",
                      learning_rate=0.02, batch_size=32, epsilon_uniform=0.05,
                      steps=600, seed=1)
    rows, model = run_training(two_terminal, cfg, metrics_every=600)
    assert rows[-1].kl_forward < 1e-3
    assert rows[-1].n_mse < 1e-3


@pytest.mark.parametrize("objective", ["db", "stb", "fm"])
def test_run_training_flow_objectives_converge(two_terminal, objective):
    cfg = TrainConfig(objective=objective, backward="uniform", n_objective="none",
                      learning_rate=0.02, batch_size=32, epsilon_uniform=0.05,
                      steps=800, seed=2)
    rows, _ = run_training(two_terminal, cfg, metrics_every=800)
    assert rows[-1].kl_forward < 1e-2


def test_bitvector_known_and_uniform_backward_share_dynamics(bitvec3):
    # parent counts are constant per state, so the count-ratio backward IS the
    # uniform backward and training runs coincide step by step
    l = exact.count_paths(bitvec3)
    assert np.abs(exact.backward_maxent(bitvec3, l) - exact.backward_uniform(bitvec3)).max() < 1e-12
    base = dict(objective="tb", n_objective="none", learning_rate=0.01,
                batch_size=16, epsilon_uniform=0.01, steps=120, seed=5)
    _, m_uni = run_training(bitvec3, TrainConfig(backward="uniform", **base))
    _, m_known = run_training(bitvec3, TrainConfig(backward="maxent-known", **base),
                              exact_l=l)
    for key, p in m_uni.param_groups().items():
        assert np.abs(p - m_known.param_groups()[key]).max() < 1e-8, key


def test_tb_and_pcl_share_losses_and_dynamics_with_known_counts(two_terminal):
    # with known counts, trajectory-level consistency and trajectory balance
    # are the same objective: identical batch losses, identical parameters
    l = exact.count_paths(two_terminal)
    base = dict(backward="maxent-known", n_objective="none", learning_rate=0.01,
                batch_size=16, epsilon_uniform=0.02, steps=150, seed=3)
    rows_tb, m_tb = run_training(two_terminal, TrainConfig(objective="tb", **base),
                                 exact_l=l, metrics_every=1)
    rows_pcl, m_pcl = run_training(two_terminal, TrainConfig(objective="pcl", **base),
                                   exact_l=l, metrics_every=1)
    for a, b in zip(rows_tb, rows_pcl):
        assert a.policy_loss == pytest.approx(b.policy_loss, abs=1e-12)
    for key, p in m_tb.param_groups().items():
        assert np.abs(p - m_pcl.param_groups()[key]).max() < 1e-9, key


def test_maxent_fallback_with_imperfect_counts(grid44):
    # a wrong but finite count table still yields a normalized backward, so
    # trajectory balance still drives the policy onto the target
    l_exact = exact.count_paths(grid44)
    rng = np.random.default_rng(9)
    model = PolicyModel.init(grid44)
    model.l_hat[:] = np.abs(rng.normal(0.0, 1.5, grid44.n_states))
    model.repin(grid44)
    cfg = TrainConfig(objective="tb", backward="maxent-learned", n_objective="none",
                      learning_rate=0.01, batch_size=64, epsilon_uniform=0.01,
                      steps=2000, seed=3)
    rows, model = run_training(grid44, cfg, exact_l=l_exact, model=model,
                               metrics_every=2000)
    assert rows[-1].kl_forward < 1e-3


def test_reward_exponent_trains_powered_target(two_terminal):
    cfg = TrainConfig(objective="tb", backward="uniform", n_objective="none",
                      learning_rate=0.02, batch_size=32, epsilon_uniform=0.05,
                      reward_exponent=2.0, steps=600, seed=4)
    _, model = run_training(two_terminal, cfg)
    log_pi = model.forward_log_probs(two_terminal)
    dist = exact.terminal_distribution(two_terminal, log_pi)[two_terminal.terminal]
    powered = np.exp(2.0 * two_terminal.log_target[two_terminal.terminal])
    powered /= powered.sum()
    assert np.abs(dist - powered).max() < 0.02


def test_run_training_workers_change_streams_not_validity(two_terminal):
    cfg = TrainConfig(objective="tb", backward="uniform", n_objective="none",
                      learning_rate=0.02, batch_size=16, steps=40, seed=0)
    rows_1, _ = run_training(two_terminal, cfg, workers=1, metrics_every=40)
    rows_2, _ = run_training(two_terminal, cfg, workers=2, metrics_every=40)
    assert rows_1[-1].step == rows_2[-1].step
    # both deterministic in themselves
    rows_2b, _ = run_training(two_terminal, cfg, workers=2, metrics_every=40)
    assert rows_2 == rows_2b


def test_model_pack_unpack_round_trip(grid33):
    model = PolicyModel.init(grid33, np.random.default_rng(0), scale=0.8)
    vec = model.pack(grid33)
    again = model.unpack(grid33, vec)
    for key, p in model.param_groups().items():
        assert np.allclose(p, again.param_groups()[key], atol=0)
    # pinned entries survive the round trip untouched
    assert again.l_hat[grid33.initial] == 0.0


def test_stb_gradients_match_finite_differences_far_from_unit_lambda(two_terminal):
    m = two_terminal
    l_exact = exact.count_paths(m)
    model = PolicyModel.init(m, np.random.default_rng(11), scale=0.7)
    batch = collect_batch(m, model, TrainConfig(batch_size=12, epsilon_uniform=0.2),
                          [np.random.default_rng(5)])
    h = 1e-5
    for back in BACKWARDS:
        cfg = TrainConfig(objective="stb", backward=back, n_objective="trajectory",
                          lambda_stb=1e3)
        _, grads = compute_loss_and_grads(m, model, batch, cfg, exact_l=l_exact)
        analytic = model.pack_grads(m, grads)
        vec = model.pack(m)
        fd = np.zeros_like(vec)
        for i in range(len(vec)):
            plus, minus = vec.copy(), vec.copy()
            plus[i] += h
            minus[i] -= h
            s_p, _ = compute_loss_and_grads(m, model.unpack(m, plus), batch, cfg, l_exact)
            s_m, _ = compute_loss_and_grads(m, model.unpack(m, minus), batch, cfg, l_exact)
            fd[i] = (s_p["loss"] - s_m["loss"]) / (2 * h)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        assert (np.abs(analytic - fd) / scale).max() < 1e-5, back


@pytest.mark.parametrize("objective", ["tb", "pcl"])
def test_zero_step_trajectories_train_log_z(single_state, objective):
    # the only trajectory is the initial state, which is terminal: its whole
    # residual is log Z - log p~(s0), so log Z moves toward 0.5
    _, model = run_training(single_state, TrainConfig(objective=objective, batch_size=4,
                                                      steps=3))
    assert model.log_z == pytest.approx(0.0015, rel=1e-3)


def test_benchmark_tracer_hooks_exist(fig_diamond):
    # benchmarks/tracer.py patches these module attributes and replays
    # run_training's loop through these calls and batch fields; a missing or
    # changed one would make every traced run fail
    for module, name in [(learner, "cross_cumsum"), (learner, "backward_from_counts"),
                         (learner, "logsumexp"), (objectives, "logsumexp"),
                         (exact, "logsumexp")]:
        assert callable(getattr(module, name, None)), (module.__name__, name)
    assert {"step_edge", "terminals"} <= {f.name for f in fields(RolloutBatch)}
    m, config = fig_diamond, TrainConfig(batch_size=8)
    model = PolicyModel.init(m)
    sampling_model = model.copy()
    opt_state = learner.adam_init(model)
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(0).spawn(1)]
    batch = learner.collect_batch(m, sampling_model, config, streams)
    assert len(batch.step_edge) == int(batch.lengths.sum())
    assert all(m.terminal[int(x)] for x in batch.terminals)
    _, grads = learner.compute_loss_and_grads(m, model, batch, config, None)
    # optimizer_update reads the buffer through param_groups(), which still
    # names the five tables; the tracer compares models through its values()
    groups, before = model.param_groups(), model.params.copy()
    assert list(groups) == list(learner.PARAM_GROUPS) and groups.flat is model.params
    learner.optimizer_update(groups, grads, opt_state, config.learning_rate)
    assert not np.array_equal(model.params, before)
    model.repin(m)
    before = sampling_model.params.copy()
    learner.ema_update(sampling_model, model, config.ema_decay)
    assert not np.array_equal(sampling_model.params, before)
