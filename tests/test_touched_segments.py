"""The training loss computes its softmaxes and softmax VJPs only on the
segments a batch reads, and gives the bits of the whole-table computation
(``loop_oracles.dense_loss_and_grads``): one call at a time on random DAGs,
whole training runs on the workload MDPs, and the work that reaches the
logsumexp kernel."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracles as loops
from gflowdp import envs, exact, learner, numerics
from gflowdp.learner import (
    BACKWARDS,
    N_OBJECTIVES,
    OBJECTIVES,
    PARAM_GROUPS,
    PolicyModel,
    TrainConfig,
    collect_batch,
    compute_loss_and_grads,
    run_training,
)
from gflowdp.mdp import enumerate_mdp, parse_dag_text

from conftest import layered_dag_text, random_dag_text


def _in_edges(m, states):
    return np.concatenate([m.in_edge_ids(s) for s in states] + [np.zeros(0, dtype=np.int64)])


def _out_edges(m, states):
    return np.concatenate([m.out_edge_ids(s) for s in states] + [np.zeros(0, dtype=np.int64)])


@given(random_dag_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_loss_is_the_dense_loss_bit_for_bit(text, seed):
    m = enumerate_mdp(parse_dag_text(text))
    rng = np.random.default_rng(seed)
    model = PolicyModel.init(m, rng, 0.8)
    batch = collect_batch(m, model, TrainConfig(batch_size=6, epsilon_uniform=0.1), rng.spawn(2))
    l = exact.count_paths(m)
    steps = batch.step_edge
    children = np.unique(m.edge_dst[steps])
    visited = np.unique(batch.state_rows)
    # states whose l or log F a residual reads: the visited ones and their parents
    states = np.zeros(m.n_states, dtype=bool)
    states[visited] = True
    states[m.edge_src[_in_edges(m, visited)]] = True
    backward = np.zeros(m.n_edges, dtype=bool)
    backward[_in_edges(m, children)] = True
    for objective, backward_name, n_objective in itertools.product(
        OBJECTIVES, BACKWARDS, N_OBJECTIVES
    ):
        config = TrainConfig(objective=objective, backward=backward_name, n_objective=n_objective)
        stats, grads = compute_loss_and_grads(m, model, batch, config, l)
        want_stats, want_grads = loops.dense_loss_and_grads(m, model, batch, config, l)
        assert stats == want_stats, config
        for key in PARAM_GROUPS:
            assert np.array_equal(grads[key], want_grads[key]), (config, key)
        # the edges the policy residuals read: the steps, or for fm the
        # in-edges of the visited states (the steps' sources and terminals)
        read = steps
        if objective == "fm":
            read = _in_edges(m, np.unique(np.append(m.edge_src[steps], batch.terminals)))
        forward = np.zeros(m.n_edges, dtype=bool)
        forward[_out_edges(m, np.unique(m.edge_src[read]))] = True
        for key, touched in [("forward", forward), ("backward", backward),
                             ("l", states), ("log_f", states)]:
            assert np.all(grads[key][~touched] == 0.0), (config, key)


@given(st.one_of(random_dag_text(), layered_dag_text()))
@settings(max_examples=40, deadline=None)
def test_uniform_backward_is_the_softmax_of_zero_logits(text):
    # the loss sends the uniform backward through the softmax kernel: after
    # a segment's 0.0 head it adds n ones exactly, so 0.0 - log(n) is -log(n)
    # to the bit, but for n = 1, where -log(1) is -0.0 and the kernel gives 0.0
    m = enumerate_mdp(parse_dag_text(text))
    softmax = exact.backward_softmax(m, np.zeros(m.n_edges))
    assert np.array_equal(softmax.view(np.int64), (exact.backward_uniform(m) + 0.0).view(np.int64))


CRITERION_9 = dict(objective="tb", backward="maxent-learned", n_objective="bellman",
                   batch_size=64, learning_rate=0.015, epsilon_uniform=1e-3)


@pytest.mark.parametrize("env, config", [
    (envs.HypergridEnv(2, 8), dict(CRITERION_9, steps=50)),
    (envs.BitVectorEnv(5, 0.5), dict(objective="stb", backward="maxent-learned",
                                     n_objective="trajectory", steps=24)),
    (envs.HypergridEnv(2, 4), dict(objective="fm", backward="free", n_objective="trajectory",
                                   batch_size=16, learning_rate=0.01, steps=40)),
    (envs.HypergridEnv(2, 4), dict(objective="pcl", backward="free", n_objective="bellman",
                                   batch_size=16, learning_rate=0.01, steps=40)),
    (envs.HypergridEnv(2, 8), dict(CRITERION_9, backward="uniform", steps=50)),
    # two backwards through the kernel: the uniform one and q_l for the n loss
    (envs.BitVectorEnv(5, 0.5), dict(objective="db", backward="uniform",
                                     n_objective="trajectory", steps=24)),
], ids=["criterion-9-grid8", "stb-bitvec5", "fm-free-grid4", "pcl-free-grid4",
        "tb-uniform-grid8", "db-uniform-bitvec5"])
def test_training_is_the_dense_training_bit_for_bit(monkeypatch, env, config):
    # Adam turns summation noise of 1e-17 into parameter moves near 1e-12,
    # so one step could miss a change of summation order that many steps show
    m = enumerate_mdp(env)
    config = TrainConfig(seed=5, **config)
    rows, model = run_training(m, config, metrics_every=10)
    monkeypatch.setattr(learner, "compute_loss_and_grads", loops.dense_loss_and_grads)
    want_rows, want_model = run_training(m, config, metrics_every=10)
    assert rows == want_rows
    for key, table in model.param_groups().items():
        assert np.array_equal(table.view(np.int64), want_model.param_groups()[key].view(np.int64))


def test_loss_softmax_work_is_the_touched_segments(monkeypatch):
    # the kernel sees the out-segments of the visited states' parents (the
    # steps' sources among them), the in-segments of the visited states for
    # the learned backward, and those in-segments again for the Bellman count
    # residual: a returned full-table softmax would send it all E edges
    m = enumerate_mdp(envs.HypergridEnv(2, 64))
    config = TrainConfig(**CRITERION_9)
    model = PolicyModel.init(m)
    batch = collect_batch(m, model, config, [np.random.default_rng(0)])
    seen = []
    kernel = numerics.padded_logsumexp

    def counted(values, *tables):
        seen.append(len(values))
        return kernel(values, *tables)

    monkeypatch.setattr(numerics, "padded_logsumexp", counted)
    compute_loss_and_grads(m, model, batch, config)
    in_edges = _in_edges(m, np.unique(batch.state_rows))
    bound = len(_out_edges(m, np.unique(m.edge_src[in_edges]))) + 2 * len(in_edges)
    assert 0 < sum(seen) <= bound < m.n_edges // 10
