"""The level-synchronous DPs and segment reductions against the per-state
loops they replace (``loop_oracles``) and the brute-force oracles, on random
DAGs and on their reversals (``loop_oracles.invert_loop``)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_oracles as loops
from gflowdp import exact, learner
from gflowdp.learner import PolicyModel, TrainConfig
from gflowdp.mdp import enumerate_mdp, parse_dag_text
from gflowdp.numerics import logsumexp, segment_log_softmax, segment_logsumexp, segment_sum

from conftest import (
    batch_from_trajectories,
    layered_dag_text,
    oracle_path_counts,
    oracle_terminal_probs,
    random_dag_text,
    random_log_pi,
)

TOL = 1e-12


def close(a, b, tol=TOL):
    """Equal to ``tol`` (absolute, or relative above 1), infinities equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))
    return bool((same | near).all())


def both(text):
    m = enumerate_mdp(parse_dag_text(text))
    return m, loops.invert_loop(m)


# ---------------------------------------------------------------------------
# segment reductions


segment_lists = st.lists(
    st.lists(
        st.one_of(
            st.floats(min_value=-50.0, max_value=50.0),
            st.sampled_from([-math.inf, math.inf, math.nan]),
        ),
        max_size=12,
    ),
    min_size=1,
    max_size=8,
)


def flat(segments):
    """The segments' values laid end to end, and their lengths."""
    values = np.concatenate([np.asarray(seg, dtype=float) for seg in segments])
    return values, np.array([len(seg) for seg in segments])


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@given(segment_lists)
@settings(max_examples=200, deadline=None)
def test_segment_reductions_match_scalar_helpers(segments):
    values, lengths = flat(segments)
    with np.errstate(invalid="ignore", over="ignore"):
        want_lse = [logsumexp(seg) for seg in segments]
        want_sum = [np.asarray(seg, dtype=float).sum() for seg in segments]
        got_sum = segment_sum(values, lengths)
    assert close(segment_logsumexp(values, lengths), want_lse)
    assert close(got_sum, want_sum)


@given(segment_lists)
@example([[], [1.0, 2.0], [], [], [-math.inf]])
@settings(max_examples=200, deadline=None)
def test_segment_sum_is_the_insert_form_bit_for_bit(segments):
    values, lengths = flat(segments)
    starts = np.cumsum(lengths) - lengths
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.add.reduceat(np.insert(values, starts, 0.0), starts + np.arange(starts.size))
        got = segment_sum(values, lengths)
        sums = [np.asarray(seg, dtype=float).sum() for seg in segments]
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(got), bits(sums))


@given(segment_lists)
# an 11-term segment where add.reduceat without the 0.0 ahead adds in another order
@example([[1.0], [-1.9, 2.2, -3.5, -4.3, 1.9, 2.3, -2.9, 1.7, -0.9, 0.9, -3.8]])
@example([[], [0.5], [], [-math.inf, -math.inf], []])
@settings(max_examples=200, deadline=None)
def test_segment_logsumexp_is_the_scalar_helper_bit_for_bit(segments):
    # the exact DPs reduce each run with padded_logsumexp, the same kernel
    values, lengths = flat(segments)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.array([logsumexp(seg) for seg in segments])
        want_softmax = [np.asarray(seg, dtype=float) - logsumexp(seg) for seg in segments]
        got_softmax = segment_log_softmax(values, lengths)
    assert np.array_equal(bits(segment_logsumexp(values, lengths)), bits(want))
    assert np.array_equal(bits(got_softmax), bits(np.concatenate(want_softmax)))


def test_all_neg_inf_segment_is_neg_inf():
    values = np.array([-math.inf, -math.inf, 0.0, math.log(3.0)])
    out = segment_logsumexp(values, [2, 2])
    assert out[0] == -math.inf
    assert out[1] == pytest.approx(math.log(4.0), abs=TOL)


# ---------------------------------------------------------------------------
# structure


@given(st.one_of(random_dag_text(), layered_dag_text()), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_enumerated_tables_are_the_loop_freeze_of_their_edges(text, rnd):
    # edges by (src, action), in-edges by (dst, src, action), whichever way
    # the levels were found
    m = enumerate_mdp(parse_dag_text(text))
    edges = list(zip(m.edge_src.tolist(), m.edge_action.tolist(), m.edge_dst.tolist()))
    rnd.shuffle(edges)
    want = loops._freeze(list(m.states), m.terminal, m.log_target, edges)
    assert m.states == want.states
    for name in ("terminal", "log_target", "edge_src", "edge_action", "edge_dst", "out_offset",
                 "in_edges", "in_offset"):
        a, b = getattr(m, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@given(random_dag_text())
@settings(max_examples=40, deadline=None)
def test_levels_order_every_edge(text):
    for m in both(text):
        bounds = m.levels
        assert bounds[0] == 0 and bounds[-1] == m.n_states and (np.diff(bounds) > 0).all()
        run = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        assert (run[m.edge_src] < run[m.edge_dst]).all()  # every edge goes to a later run
        for a, b in zip(bounds, bounds[1:]):
            assert m.terminal[a:b].all() or not m.terminal[a:b].any()
        assert (np.diff(m.in_offset)[bounds[1]:] > 0).all()  # a parent past run 0
        assert m.levels is bounds  # cached on the instance
    # enumerate_mdp numbers by level: the runs are the longest-path levels of
    # the non-terminal states, then the terminals
    m = both(text)[0]
    depth = np.zeros(m.n_states, dtype=int)
    for s in range(m.n_states):
        parents = m.edge_src[m.in_edge_ids(s)]
        depth[s] = 1 + depth[parents].max() if parents.size else 0
    inner = depth[~m.terminal]
    assert m.terminal.tolist() == sorted(m.terminal.tolist())
    assert (np.diff(inner) >= 0).all()
    assert m.levels == [0, *np.cumsum(np.bincount(inner)).tolist(), m.n_states]


# ---------------------------------------------------------------------------
# exact DPs


@given(random_dag_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_dps_match_loops(text, seed):
    rng = np.random.default_rng(seed)
    for m in both(text):
        assert close(exact.count_paths(m), loops.count_paths(m))
        r_step, r_term = rng.normal(size=m.n_edges), rng.normal(size=m.n_states)
        for got, want in zip(exact.soft_value_iteration(m, r_step, r_term),
                             loops.soft_value_iteration(m, r_step, r_term)):
            assert close(got, want)
        assert close(exact.backward_uniform(m), loops.backward_uniform(m))
        l = exact.count_paths(m)
        for log_q in (exact.backward_maxent(m, l), exact.backward_uniform(m)):
            for got, want in zip(exact.forward_from_backward(m, log_q),
                                 loops.forward_from_backward(m, log_q)):
                assert close(got, want)
        log_pi = exact.soft_value_iteration(m, r_step, r_term)[2]
        mu = rng.uniform(size=m.n_states) * (rng.uniform(size=m.n_states) < 0.8)
        assert close(exact.flow_entropy(m, log_pi, mu), loops.flow_entropy(m, log_pi, mu))
        assert close(exact.marginals(m, log_pi), loops.marginals(m, log_pi))
        assert close(exact.flow_entropy(m, log_pi), loops.flow_entropy(m, log_pi))


# every edge i -> j with i < j on 12 states: segments of up to 11 edges, where
# reduceat and ndarray.sum add in different orders
COMPLETE_DAG = "initial 0\n" + "".join(
    f"{i} {j - i - 1} {j}\n" for j in range(12) for i in range(j)) + "terminal 11 0.0\n"
weights = st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-math.inf, math.inf, math.nan]))


@given(st.one_of(random_dag_text(), st.just(COMPLETE_DAG)), st.data())
@settings(max_examples=60, deadline=None)
def test_level_kernels_match_segment_logsumexp_bit_for_bit(text, data):
    for m in both(text):
        log_w = np.array(data.draw(st.lists(weights, min_size=m.n_edges, max_size=m.n_edges)))
        values = np.array(data.draw(st.lists(weights, min_size=m.n_states, max_size=m.n_states)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            runs = [(exact.push_forward(m, log_w, values),
                     loops.push_forward_levels(m, log_w, values)),
                    (exact.pull_backward(m, log_w, values),
                     loops.pull_backward_levels(m, log_w, values))]
        for got, want in runs:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_level_kernels_match_on_varied_weights():
    # hypothesis favours weights such as 0.0 whose sums are exact in any order;
    # normal weights show a run whose terms are added in another order
    rng = np.random.default_rng(0)
    for m in both(COMPLETE_DAG) * 20:
        log_w, values = rng.normal(0.0, 3.0, m.n_edges), rng.normal(0.0, 3.0, m.n_states)
        for got, want in ((exact.push_forward(m, log_w, values), loops.push_forward_levels(m, log_w, values)),
                          (exact.pull_backward(m, log_w, values), loops.pull_backward_levels(m, log_w, values))):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(random_dag_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_exact_dps_match_bruteforce(text, seed):
    m = enumerate_mdp(parse_dag_text(text))
    counts = oracle_path_counts(m)
    assert close(np.exp(exact.count_paths(m)), counts, 1e-9)
    log_pi = random_log_pi(m, np.random.default_rng(seed))
    t = m.terminal
    assert close(exact.marginals(m, log_pi)[t], oracle_terminal_probs(m, log_pi)[t], 1e-9)
    assert exact.flow_entropy(m, log_pi) == pytest.approx(
        exact.trajectory_entropy_bruteforce(m, log_pi), abs=1e-9)


@given(random_dag_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_zero_flow_names_the_same_state(text, seed):
    rng = np.random.default_rng(seed)
    for m in both(text):
        target = m.log_target.copy()
        target[m.terminal & (rng.uniform(size=m.n_states) < 0.5)] = -math.inf
        m = m.with_log_target(target)
        log_q = exact.backward_uniform(m)
        try:
            want = loops.forward_from_backward(m, log_q)
        except exact.ZeroFlow as exc:
            with pytest.raises(exact.ZeroFlow, match=f"^{exc}$"):
                exact.forward_from_backward(m, log_q)
        else:
            for got, ref in zip(exact.forward_from_backward(m, log_q), want):
                assert close(got, ref)


def test_nan_target_still_raises(two_terminal):
    target = two_terminal.log_target.copy()
    target[two_terminal.terminal_ids[0]] = math.nan
    with pytest.raises(exact.NonFiniteTarget):
        exact.forward_from_backward(two_terminal.with_log_target(target),
                                    exact.backward_uniform(two_terminal))


# ---------------------------------------------------------------------------
# training step


@given(random_dag_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_segment_softmax_and_counts_backward_match_loops(text, seed):
    rng = np.random.default_rng(seed)
    for m in both(text):
        logits, l = rng.normal(size=m.n_edges), rng.normal(size=m.n_states)
        model = PolicyModel.init(m)
        model.forward_logits[:], model.backward_logits[:] = logits, logits
        assert close(model.forward_log_probs(m), loops._segment_log_softmax(m, logits, True))
        assert close(exact.backward_softmax(m, model.backward_logits),
                     loops._segment_log_softmax(m, logits, False))
        assert close(exact.backward_maxent(m, l), loops.backward_from_counts(m, l))


@given(st.one_of(random_dag_text(), layered_dag_text()), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-3, 1.0]))
@example("initial 0\nterminal 0 0.5\n", 0, 1e-3)  # no edges
@example("initial 0\n0 0 1\n1 0 2\nterminal 2 0.0\n", 0, 1e-3)  # out-degree 1 only
@settings(max_examples=60, deadline=None)
def test_cached_out_segments_give_the_segment_softmax_and_cdf(text, seed, eps):
    # bit for bit: the layout cached on the MDP reduces each segment as
    # segment_log_softmax does, and the CDF of each segment is its np.cumsum
    m = enumerate_mdp(parse_dag_text(text))
    model = PolicyModel.init(m, np.random.default_rng(seed), 2.0)
    degree = np.diff(m.out_offset)
    log_pi = model.forward_log_probs(m)
    want = segment_log_softmax(model.forward_logits, degree)
    assert np.array_equal(log_pi.view(np.int64), want.view(np.int64))
    cdf = learner._behavior_tables(m, model, eps)
    p = (1.0 - eps) * np.exp(want) + eps / degree[m.edge_src]
    for s in np.flatnonzero(degree):
        sl = m.out_slice(s)
        assert np.array_equal(cdf[sl].view(np.int64), np.cumsum(p[sl]).view(np.int64)), s


@given(random_dag_text(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sampling_and_losses_match_loops(text, seed):
    m = enumerate_mdp(parse_dag_text(text))
    model = PolicyModel.init(m, np.random.default_rng(seed), 0.8)
    cdf = learner._behavior_tables(m, model, 0.1)
    tables = loops._behavior_tables(m, model, 0.1)
    for s in np.flatnonzero(~m.terminal):
        assert close(cdf[m.out_slice(s)], tables[s])
    # with one stream per walker, walker b reads stream b alone, as the loop did
    batch = learner.collect_batch(m, model, TrainConfig(batch_size=8, epsilon_uniform=0.1),
                                  np.random.default_rng(seed).spawn(8))
    for a, rng in zip(batch.trajectories, np.random.default_rng(seed).spawn(8)):
        b = loops._sample_one(m, tables, rng)
        for name in ("states", "edges"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    rebuilt = batch_from_trajectories(batch.trajectories)
    for name in ("state_rows", "lengths", "terminals", "step_pos", "step_edge"):
        assert np.array_equal(getattr(rebuilt, name), getattr(batch, name)), name
    l = exact.count_paths(m)
    for objective, backward, n_objective in itertools.product(
        learner.OBJECTIVES, learner.BACKWARDS, learner.N_OBJECTIVES
    ):
        config = TrainConfig(objective=objective, backward=backward, n_objective=n_objective)
        stats, grads = learner.compute_loss_and_grads(m, model, batch, config, l)
        want_stats, want_grads = loops.compute_loss_and_grads(m, model, batch, config, l)
        for key in want_stats:
            assert close(stats[key], want_stats[key]), (config, key)
        for key in want_grads:
            assert close(grads[key], want_grads[key]), (config, key)

