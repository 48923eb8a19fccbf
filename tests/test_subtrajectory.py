"""The batched sub-trajectory residual: its transpose, and its cell sets
against the per-trajectory residuals on trajectories sampled from random
DAGs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gflowdp.exact import backward_softmax
from gflowdp.learner import PolicyModel, TrainConfig, backward_from_counts, collect_batch
from gflowdp.mdp import enumerate_mdp, parse_dag_text
from gflowdp.objectives import (
    TrajectoryView,
    db_residual,
    n_trajectory_residual,
    stb_residuals,
    step_cells,
    subtrajectory_cells,
    tb_residual,
    trajectory_cells,
)

from conftest import random_dag_text
from loop_oracles import subtrajectory_residuals, subtrajectory_transpose

TOL = 1e-12


@given(st.lists(st.integers(0, 9), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_transpose_is_the_adjoint(lengths, seed):
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    n, t = len(lengths), int(lengths.max())
    # every cell (b, i, j) with i <= j + 1 <= T_b, so empty sums included
    b = rng.integers(0, n, 40)
    j = rng.integers(-1, lengths[b])
    i = rng.integers(0, j + 2)
    cells = (b, i, j)
    start, end = rng.normal(0, 3, (n, t + 1)), rng.normal(0, 3, (n, t + 1))
    x = np.where(np.arange(t)[None, :] < lengths[:, None], rng.normal(0, 3, (n, t)), 0.0)
    coef = rng.normal(0, 1, len(b))
    g_start, g_end, g_x = subtrajectory_transpose(coef, cells, start.shape)
    lhs = float(coef @ subtrajectory_residuals(start, end, x, cells))
    rhs = float((g_start * start).sum() + (g_end * end).sum() + (g_x * x).sum())
    assert abs(lhs - rhs) <= TOL * max(1.0, abs(lhs))


def _rows(batch, values):
    """Per-step values (one per flat step) as [B, T] rows, zero past the end."""
    x = np.zeros(batch.state_rows.size - len(batch.state_rows))
    x[batch.step_pos] = values
    return x.reshape(len(batch.state_rows), -1)


@given(random_dag_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cell_sets_match_per_trajectory_residuals(text, seed):
    m = enumerate_mdp(parse_dag_text(text))
    rng = np.random.default_rng(seed)
    model = PolicyModel.init(m, rng, 0.8)
    batch = collect_batch(m, model, TrainConfig(batch_size=6, epsilon_uniform=0.2),
                          rng.spawn(6))
    trajs = batch.trajectories
    rows, se = batch.state_rows, batch.step_edge
    log_pi, log_q = model.forward_log_probs(m), backward_softmax(m, model.backward_logits)
    log_f = model.clamped_log_f(m)
    l = model.l_hat
    log_ql = backward_from_counts(m, l)

    v = log_f[rows]
    head = v.copy()
    head[:, 0] = model.log_z
    x = _rows(batch, log_pi[se] - log_q[se])
    tb = subtrajectory_residuals(head, v, x, trajectory_cells(batch.lengths)[0])
    zero = np.zeros(rows.shape)
    n_traj = subtrajectory_residuals(
        zero, -l[rows], _rows(batch, log_ql[se]), trajectory_cells(batch.lengths)[0])
    db_cells, _ = step_cells(batch.lengths)
    db = subtrajectory_residuals(v, v, x, db_cells)
    stb_cells, stb_w = subtrajectory_cells(batch.lengths, 0.7)
    stb = subtrajectory_residuals(v, v, x, stb_cells)
    for b, traj in enumerate(trajs):
        view = TrajectoryView(
            log_pi=log_pi[traj.edges], log_q=log_q[traj.edges],
            reward=np.zeros(len(traj.edges)), value=log_f[traj.states], l=l[traj.states],
            log_target=float(m.log_target[traj.end]), log_z=model.log_z,
        )
        assert abs(tb[b] - tb_residual(view)) <= TOL
        assert abs(n_traj[b] - n_trajectory_residual(m, traj.states, l)) <= TOL
        for k, e in enumerate(traj.edges):
            s, d = int(m.edge_src[e]), int(m.edge_dst[e])
            at = (db_cells[0] == b) & (db_cells[1] == k)
            assert abs(db[at][0] - db_residual(log_f[s], log_pi[e], log_q[e], log_f[d])) <= TOL
        d, w = stb_residuals(view, 0.7)
        mine = stb_cells[0] == b
        i, j = stb_cells[1][mine], stb_cells[2][mine]
        assert np.abs(stb[mine] - d[i, j]).max(initial=0.0) <= TOL
        assert np.abs(stb_w[mine] * len(trajs) - w[i, j]).max(initial=0.0) <= TOL


def test_trajectory_cell_of_a_zero_step_trajectory_reads_both_ends():
    m = enumerate_mdp(parse_dag_text("initial 0\nterminal 0 0.5\n"))
    batch = collect_batch(m, PolicyModel.init(m), TrainConfig(batch_size=1, epsilon_uniform=0.0),
                          [np.random.default_rng(0)])
    v = m.log_target[batch.state_rows]
    head = np.full(v.shape, 0.2)
    res = subtrajectory_residuals(head, v, np.zeros((1, 0)), trajectory_cells(batch.lengths)[0])
    assert res.tolist() == [0.2 - 0.5]
