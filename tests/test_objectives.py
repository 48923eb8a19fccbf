import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gflowdp import exact, learner, mdp
from gflowdp.numerics import logsumexp
from gflowdp.objectives import (
    HuberParams,
    TrajectoryView,
    cross_cumsum,
    db_residual,
    fm_residual,
    n_bellman_residual,
    n_trajectory_residual,
    pcl_residuals,
    stb_residuals,
    tb_residual,
)

from conftest import oracle_trajectories, random_log_pi
from loop_oracles import _coef, huber, huber_grad


def exact_view(m, states, edges, tables, log_pi, log_q, value):
    """TrajectoryView filled from exact tables along one trajectory."""
    states = list(states)
    edges = list(edges)
    return TrajectoryView(
        log_pi=log_pi[edges],
        log_q=log_q[edges],
        reward=np.zeros(len(edges)),
        value=value[states],
        l=tables.l[states],
        log_target=float(m.log_target[states[-1]]),
        log_z=tables.logZ,
    )


@pytest.fixture(scope="module")
def solved_zoo(mdp_zoo):
    out = []
    for m in mdp_zoo:
        tables = exact.exact_tables(m)
        log_pi = exact.gsql_policy(m, tables.l)
        log_q = exact.backward_maxent(m, tables.l)
        out.append((m, tables, log_pi, log_q))
    return out


# ---------------------------------------------------------------------------
# every residual vanishes on exact tables


def test_all_residuals_zero_on_exact_tables(solved_zoo):
    for m, tables, log_pi, log_q in solved_zoo:
        log_f = tables.logF
        v_gsql = tables.V
        for e in range(m.n_edges):
            s, d = int(m.edge_src[e]), int(m.edge_dst[e])
            assert abs(db_residual(log_f[s], log_pi[e], log_q[e], log_f[d])) < 1e-12
        for s in range(m.n_states):
            out_ids = m.out_edge_ids(s)
            in_ids = m.in_edge_ids(s)
            out_terms = log_f[s] + log_pi[out_ids] if len(out_ids) else np.array([])
            in_terms = (
                log_f[m.edge_src[in_ids]] + log_pi[in_ids]
                if len(in_ids)
                else np.array([tables.logZ])
            )
            assert abs(fm_residual(m.log_target[s], out_terms, in_terms)) < 1e-12
            if len(in_ids):
                assert (
                    abs(n_bellman_residual(tables.l[s], tables.l[m.edge_src[in_ids]]))
                    < 1e-12
                )
        for states, edges in oracle_trajectories(m):
            flow_view = exact_view(m, states, edges, tables, log_pi, log_q, log_f)
            value_view = exact_view(m, states, edges, tables, log_pi, log_q, v_gsql)
            assert abs(tb_residual(flow_view)) < 1e-12
            if edges:
                d, _ = stb_residuals(flow_view)
                assert np.abs(d).max() < 1e-12
                assert np.abs(pcl_residuals(value_view)).max() < 1e-12
            assert abs(n_trajectory_residual(m, np.array(states), tables.l)) < 1e-12


# ---------------------------------------------------------------------------
# detailed balance


def test_db_residual_perturbation_is_linear():
    assert db_residual(0.3, -0.2, -0.5, 0.1) == pytest.approx(0.5)
    assert db_residual(0.3, -0.2 + 0.1, -0.5, 0.1) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# trajectory balance


def test_tb_logz_shift(solved_zoo):
    m, tables, log_pi, log_q = solved_zoo[0]
    states, edges = oracle_trajectories(m)[0]
    view = exact_view(m, states, edges, tables, log_pi, log_q, tables.logF)
    shifted = TrajectoryView(
        log_pi=view.log_pi,
        log_q=view.log_q,
        reward=view.reward,
        value=view.value,
        l=view.l,
        log_target=view.log_target,
        log_z=view.log_z + 0.7,
    )
    assert tb_residual(shifted) == pytest.approx(tb_residual(view) + 0.7, abs=1e-12)


def test_tb_matches_probability_space_product(grid33):
    rng = np.random.default_rng(5)
    log_pi = random_log_pi(grid33, rng)
    log_q = exact.backward_maxent(grid33, rng.normal(0, 1, grid33.n_states))
    log_z = 0.37
    tables = exact.exact_tables(grid33)
    for states, edges in oracle_trajectories(grid33)[:20]:
        view = exact_view(grid33, states, edges, tables, log_pi, log_q, tables.logF)
        view = TrajectoryView(
            log_pi=view.log_pi,
            log_q=view.log_q,
            reward=view.reward,
            value=view.value,
            l=view.l,
            log_target=view.log_target,
            log_z=log_z,
        )
        lhs = math.exp(log_z) * math.exp(float(log_pi[list(edges)].sum()))
        rhs = math.exp(float(grid33.log_target[states[-1]])) * math.exp(
            float(log_q[list(edges)].sum())
        )
        assert tb_residual(view) == pytest.approx(math.log(lhs / rhs), abs=1e-9)


# ---------------------------------------------------------------------------
# flow matching


def test_fm_doubled_flows(solved_zoo):
    # adding log 2 to every flow cancels at interior states; at terminals the
    # target side stays put so the residual is exactly -log 2
    m, tables, log_pi, _ = solved_zoo[2]
    log_f = tables.logF + math.log(2.0)
    for s in range(m.n_states):
        out_ids = m.out_edge_ids(s)
        in_ids = m.in_edge_ids(s)
        if len(in_ids) == 0:
            continue
        out_terms = log_f[s] + log_pi[out_ids] if len(out_ids) else np.array([])
        in_terms = log_f[m.edge_src[in_ids]] + log_pi[in_ids]
        res = fm_residual(m.log_target[s], out_terms, in_terms)
        if m.terminal[s]:
            assert res == pytest.approx(-math.log(2.0), abs=1e-12)
        else:
            assert abs(res) < 1e-12


# ---------------------------------------------------------------------------
# cross_cumsum


def test_cross_cumsum_unit_steps():
    d = cross_cumsum(np.zeros(4), np.ones(3))
    for i in range(3):
        for j in range(3):
            expect = j - i + 1 if j >= i else 0.0
            assert d[i, j] == pytest.approx(expect, abs=1e-12)


def test_cross_cumsum_pure_potential():
    v = np.array([0.3, -1.0, 2.0, 0.5])
    d = cross_cumsum(v, np.zeros(3))
    for i in range(3):
        for j in range(i, 3):
            assert d[i, j] == pytest.approx(v[i] - v[j + 1], abs=1e-12)


def _naive_cross(v, x):
    t = len(x)
    out = np.zeros((t, t))
    for i in range(t):
        for j in range(i, t):
            out[i, j] = v[i] - v[j + 1] + sum(x[i : j + 1])
    return out


@given(
    hnp.arrays(np.float64, st.integers(1, 64).map(lambda t: t + 1),
               elements=st.floats(-10, 10)),
)
@settings(max_examples=100, deadline=None)
def test_cross_cumsum_matches_naive(v):
    rng = np.random.default_rng(len(v))
    x = rng.normal(0, 3, len(v) - 1)
    assert np.allclose(cross_cumsum(v, x), _naive_cross(v, x), atol=1e-12)


def test_cross_cumsum_shape_mismatch():
    with pytest.raises(ValueError):
        cross_cumsum(np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# sub-trajectory balance


def test_stb_weights_uniform_at_lambda_one():
    view = TrajectoryView(
        log_pi=np.zeros(3),
        log_q=np.zeros(3),
        reward=np.zeros(3),
        value=np.zeros(4),
        l=np.zeros(4),
        log_target=0.0,
        log_z=0.0,
    )
    _, w = stb_residuals(view, lam=1.0)
    triangle = w[np.triu_indices(3)]
    assert np.allclose(triangle, 1.0 / 6.0, atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_stb_single_step_equals_db(solved_zoo):
    m, tables, log_pi, log_q = solved_zoo[1]
    rng = np.random.default_rng(0)
    log_f = tables.logF + rng.normal(0, 0.5, m.n_states)
    log_f[m.terminal] = m.log_target[m.terminal]
    for states, edges in oracle_trajectories(m)[:6]:
        if not edges:
            continue
        view = TrajectoryView(
            log_pi=log_pi[list(edges)],
            log_q=log_q[list(edges)],
            reward=np.zeros(len(edges)),
            value=log_f[list(states)],
            l=tables.l[list(states)],
            log_target=float(m.log_target[states[-1]]),
            log_z=tables.logZ,
        )
        d, _ = stb_residuals(view)
        for t, e in enumerate(edges):
            s, dd = int(m.edge_src[e]), int(m.edge_dst[e])
            expect = db_residual(log_f[s], log_pi[e], log_q[e], log_f[dd])
            assert d[t, t] == pytest.approx(expect, abs=1e-12)


def test_stb_lambda_weights_are_geometric():
    view = TrajectoryView(
        log_pi=np.zeros(4), log_q=np.zeros(4), reward=np.zeros(4),
        value=np.zeros(5), l=np.zeros(5), log_target=0.0, log_z=0.0,
    )
    lam = 0.5
    _, w = stb_residuals(view, lam=lam)
    i, j = np.triu_indices(4)
    raw = lam ** (j - i + 1)
    assert np.allclose(w[i, j], raw / raw.sum(), atol=1e-12)


@pytest.mark.parametrize("lam", [1e-300, 1e300])
def test_stb_weights_at_extreme_lambda(lam):
    t = 4
    view = TrajectoryView(
        log_pi=np.zeros(t), log_q=np.zeros(t), reward=np.zeros(t),
        value=np.zeros(t + 1), l=np.zeros(t + 1), log_target=0.0, log_z=0.0,
    )
    _, w = stb_residuals(view, lam=lam)
    assert np.isfinite(w).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    i, j = np.triu_indices(t)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = lam ** (j - i + 1.0)
        expect = raw / raw.sum()
    # where lam**length neither overflows nor underflows
    exact_raw = np.isfinite(expect) & (raw > 0)
    assert np.allclose(w[i, j][exact_raw], expect[exact_raw], rtol=1e-12, atol=0)
    # all the mass on the shortest or on the longest sub-trajectories
    short = (j - i + 1) == (1 if lam < 1 else t)
    assert w[i, j][short].sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# soft-consistency residuals


def test_pcl_additivity(grid33):
    rng = np.random.default_rng(8)
    log_pi = random_log_pi(grid33, rng)
    v = rng.normal(0, 1, grid33.n_states)
    for states, edges in oracle_trajectories(grid33)[:10]:
        t = len(edges)
        if t < 3:
            continue
        view = TrajectoryView(
            log_pi=log_pi[list(edges)],
            log_q=np.zeros(t),
            reward=rng.normal(0, 1, t),
            value=v[list(states)],
            l=np.zeros(t + 1),
            log_target=0.0,
            log_z=0.0,
        )
        d = pcl_residuals(view)
        for i in range(t):
            for j in range(i, t):
                for k in range(i, j):
                    # split states i -> k+1 -> j+1
                    assert d[i, j] == pytest.approx(
                        d[i, k] + d[k + 1, j], abs=1e-12
                    )


def test_pcl_full_trajectory_equals_tb_of_count_backward(solved_zoo):
    # same residual whether written with flows and the count backward or with
    # count-corrected soft values
    for m, tables, log_pi, log_q in solved_zoo:
        rng = np.random.default_rng(m.n_states)
        logits = rng.normal(0, 1, m.n_edges)
        model_pi = np.zeros(m.n_edges)
        for s in range(m.n_states):
            sl = m.out_slice(s)
            if sl.stop > sl.start:
                model_pi[sl] = logits[sl] - logsumexp(logits[sl])
        log_z = float(rng.normal())
        for states, edges in oracle_trajectories(m)[:10]:
            if not edges:
                continue
            states_l, edges_l = list(states), list(edges)
            tb_view = TrajectoryView(
                log_pi=model_pi[edges_l],
                log_q=log_q[edges_l],
                reward=np.zeros(len(edges_l)),
                value=tables.logF[states_l],
                l=tables.l[states_l],
                log_target=float(m.log_target[states[-1]]),
                log_z=log_z,
            )
            value = tables.V.copy()
            pcl_view = TrajectoryView(
                log_pi=model_pi[edges_l],
                log_q=np.zeros(len(edges_l)),
                reward=np.zeros(len(edges_l)),
                value=np.concatenate([[log_z], value[states_l][1:]]),
                l=tables.l[states_l],
                log_target=float(m.log_target[states[-1]]),
                log_z=log_z,
            )
            full_pcl = pcl_residuals(pcl_view)[0, -1]
            assert tb_residual(tb_view) == pytest.approx(full_pcl, abs=1e-12)


# ---------------------------------------------------------------------------
# path-count residuals


def test_n_bellman_single_parent():
    assert n_bellman_residual(1.3, [0.9]) == pytest.approx(0.4, abs=1e-12)


def test_n_bellman_value_iteration_recovers_counts(grid33):
    rng = np.random.default_rng(2)
    l = rng.normal(0, 1, grid33.n_states)
    l[grid33.initial] = 0.0
    for _ in range(grid33.n_states):
        for s in range(grid33.n_states):
            ids = grid33.in_edge_ids(s)
            if len(ids):
                l[s] = logsumexp(l[grid33.edge_src[ids]])
    expect = exact.count_paths(grid33)
    assert np.allclose(l, expect, atol=1e-6)
    for s in range(grid33.n_states):
        ids = grid33.in_edge_ids(s)
        if len(ids):
            assert abs(n_bellman_residual(l[s], l[grid33.edge_src[ids]])) < 1e-9


def test_n_trajectory_chain_telescopes_to_terminal_estimate(chain):
    rng = np.random.default_rng(6)
    l = rng.normal(0, 1, chain.n_states)
    l[chain.initial] = 0.0
    states = np.arange(chain.n_states)  # the chain is one trajectory
    # single-parent chains make every backward step deterministic, so the
    # residual reduces to the terminal estimate alone
    assert n_trajectory_residual(chain, states, l) == pytest.approx(
        float(l[-1]), abs=1e-12
    )


def test_n_trajectory_perturbation_matches_finite_difference(grid33):
    rng = np.random.default_rng(9)
    l = exact.count_paths(grid33) + rng.normal(0, 0.3, grid33.n_states)
    l[grid33.initial] = 0.0
    states, _ = oracle_trajectories(grid33)[7]
    states = np.array(states)
    probe = int(states[len(states) // 2])
    h = 1e-6

    def f(value):
        trial = l.copy()
        trial[probe] = value
        return n_trajectory_residual(grid33, states, trial)

    fd = (f(l[probe] + h) - f(l[probe] - h)) / (2 * h)
    # analytic: +1 per occurrence as a source minus the softmax weights of the
    # parent sets it belongs to, along this trajectory
    grad = 0.0
    for t in range(len(states) - 1):
        s, s_next = int(states[t]), int(states[t + 1])
        ids = grid33.in_edge_ids(s_next)
        srcs = grid33.edge_src[ids]
        w = np.exp(l[srcs] - logsumexp(l[srcs]))
        if s == probe:
            grad += 1.0
        grad -= float(w[srcs == probe].sum())
    if states[-1] == probe:
        grad += 1.0
    assert fd == pytest.approx(grad, abs=1e-5)


# ---------------------------------------------------------------------------
# Huber


def test_huber_reference_values():
    params = HuberParams(delta=0.25, beta=1.0)
    assert huber(0.0, params) == 0.0
    assert huber(1.0, params) == pytest.approx(2.0)
    assert huber(3.0, params) == pytest.approx(10.0)
    assert huber(-3.0, params) == pytest.approx(10.0)


def test_huber_continuity_and_gradient_bound():
    params = HuberParams(delta=0.25, beta=1.0)
    eps = 1e-9
    assert huber(1.0 - eps, params) == pytest.approx(huber(1.0 + eps, params), abs=1e-7)
    xs = np.linspace(-5, 5, 2001)
    assert np.abs(huber_grad(xs, params)).max() <= params.beta / params.delta + 1e-12
    # gradient matches finite differences away from the kink
    for x in (-2.3, -0.4, 0.0, 0.7, 4.1):
        h = 1e-6
        fd = (huber(x + h, params) - huber(x - h, params)) / (2 * h)
        assert huber_grad(x, params) == pytest.approx(fd, abs=1e-6)


def _edge_residuals(params):
    tol, beta = learner.RESIDUAL_TOL, params.beta
    edges = [0.0, tol, np.nextafter(tol, 0.0), np.nextafter(tol, np.inf), beta,
             np.nextafter(beta, 0.0), np.nextafter(beta, np.inf), 1e150, 5e-324]
    return np.array(edges + [-x for x in edges])


@pytest.mark.parametrize("params", [HuberParams(), HuberParams(delta=1e-3, beta=0.3)],
                         ids=["default", "delta1e-3-beta0.3"])
@given(st.lists(st.floats(-1e150, 1e150), max_size=40))
@settings(max_examples=100, deadline=None)
def test_fused_huber_is_huber_and_the_deadbanded_gradient_bit_for_bit(params, values):
    # learner._huber computes the gradient as clip(r, -beta, beta) / delta, in
    # one pass with the value; the oracle is huber and huber_grad behind the
    # RESIDUAL_TOL deadband, each entry compared by its bits (signed zeros too)
    res = np.concatenate([_edge_residuals(params), values])
    value, grad = learner._huber(res, params)
    assert np.array_equal(value.view(np.int64), huber(res, params).view(np.int64))
    assert np.array_equal(grad.view(np.int64), _coef(res, params).view(np.int64))


def test_huber_params_validation():
    with pytest.raises(ValueError):
        HuberParams(delta=0.0)
    with pytest.raises(ValueError):
        HuberParams(beta=-1.0)


# ---------------------------------------------------------------------------
# anchored residual families


def _soft_vi_instance(m, seed):
    rng = np.random.default_rng(seed)
    r_step = rng.normal(0, 0.7, m.n_edges)
    r_term = rng.normal(0, 0.7, m.n_states)
    v, _, log_pi = exact.soft_value_iteration(m, r_step, r_term)
    return r_step, r_term, v, log_pi


def _single_step_residuals(m, v, log_pi, r_step):
    out = []
    for e in range(m.n_edges):
        s, d = int(m.edge_src[e]), int(m.edge_dst[e])
        out.append(v[s] + log_pi[e] - r_step[e] - v[d])
    return np.array(out)


def test_anchored_families_zero_on_solved_values(grid33):
    m = grid33
    r_step, r_term, v, log_pi = _soft_vi_instance(m, 0)
    for states, edges in oracle_trajectories(m):
        x = log_pi[list(edges)] - r_step[list(edges)]
        prefix = np.concatenate([[0.0], np.cumsum(x)])
        for i in range(len(states)):
            # terminal-anchored: states i..T
            assert v[states[i]] + (prefix[-1] - prefix[i]) - v[states[-1]] == pytest.approx(0, abs=1e-9)
            # initial-anchored: states 0..i
            assert v[states[0]] + prefix[i] - v[states[i]] == pytest.approx(0, abs=1e-9)
        # full trajectory
        assert v[states[0]] + prefix[-1] - v[states[-1]] == pytest.approx(0, abs=1e-9)


def _family_lstsq(m, equations, pinned):
    """Solve sum of unknown V coefficients = rhs in least squares.

    equations: list of (coeff dict state->weight, rhs); pinned: state->value.
    Returns (solved V over all states, normalized system residual).
    """
    free = [s for s in range(m.n_states) if s not in pinned]
    col = {s: i for i, s in enumerate(free)}
    a = np.zeros((len(equations), len(free)))
    b = np.zeros(len(equations))
    for row, (coeffs, rhs) in enumerate(equations):
        b[row] = rhs
        for s, w in coeffs.items():
            if s in pinned:
                b[row] -= w * pinned[s]
            else:
                a[row, col[s]] += w
    sol, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    v = np.zeros(m.n_states)
    for s, value in pinned.items():
        v[s] = value
    for s, i in col.items():
        v[s] = sol[i]
    residual = float(np.abs(a @ sol - b).max())
    return v, residual


def test_terminal_anchored_family_forces_single_step(grid33):
    """Solving only the terminal-anchored equations recovers values that
    satisfy every single-step consistency constraint."""
    m = grid33
    assert m.n_states <= 50
    r_step, r_term, v_true, log_pi = _soft_vi_instance(m, 1)
    pinned = {int(t): float(r_term[t]) for t in m.terminal_ids}
    equations = []
    for states, edges in oracle_trajectories(m):
        x = log_pi[list(edges)] - r_step[list(edges)]
        suffix = np.concatenate([[0.0], np.cumsum(x[::-1])])[::-1]
        for i in range(len(edges)):
            equations.append(({states[i]: 1.0, states[-1]: -1.0}, -suffix[i]))
    v, sys_res = _family_lstsq(m, equations, pinned)
    assert sys_res < 1e-9  # feasible for a consistency-respecting policy
    assert np.abs(v - v_true).max() < 1e-9
    assert np.abs(_single_step_residuals(m, v, log_pi, r_step)).max() < 1e-9


def test_initial_anchored_family_forces_single_step(grid33):
    m = grid33
    r_step, r_term, v_true, log_pi = _soft_vi_instance(m, 2)
    pinned = {int(t): float(r_term[t]) for t in m.terminal_ids}
    equations = []
    for states, edges in oracle_trajectories(m):
        x = log_pi[list(edges)] - r_step[list(edges)]
        prefix = np.concatenate([[0.0], np.cumsum(x)])
        for i in range(1, len(states)):
            equations.append(({states[0]: 1.0, states[i]: -1.0}, -prefix[i]))
    v, sys_res = _family_lstsq(m, equations, pinned)
    assert sys_res < 1e-9
    assert np.abs(v - v_true).max() < 1e-9
    assert np.abs(_single_step_residuals(m, v, log_pi, r_step)).max() < 1e-9


def test_full_trajectory_family_constructs_consistent_values(grid33):
    """With only full-trajectory equations, interior values are defined by
    prefix sums; the construction is consistent across trajectories and
    satisfies every single-step constraint."""
    m = grid33
    r_step, r_term, v_true, log_pi = _soft_vi_instance(m, 3)
    # anchor V(s0) from the full-trajectory equations
    anchors = []
    for states, edges in oracle_trajectories(m):
        x = log_pi[list(edges)] - r_step[list(edges)]
        anchors.append(r_term[states[-1]] - float(np.sum(x)))
    v0 = np.mean(anchors)
    assert np.ptp(anchors) < 1e-9  # the family is satisfiable at one V(s0)
    constructed = {m.initial: v0}
    for states, edges in oracle_trajectories(m):
        x = log_pi[list(edges)] - r_step[list(edges)]
        prefix = np.concatenate([[0.0], np.cumsum(x)])
        for i, s in enumerate(states):
            value = v0 + prefix[i]
            if s in constructed:
                assert abs(constructed[s] - value) < 1e-9  # well-defined
            else:
                constructed[s] = value
    v = np.array([constructed[s] for s in range(m.n_states)])
    assert np.abs(v - v_true).max() < 1e-9
    assert np.abs(_single_step_residuals(m, v, log_pi, r_step)).max() < 1e-9


def test_anchored_family_infeasible_for_inconsistent_policy(grid33):
    # a random policy admits no value table zeroing the terminal family
    m = grid33
    rng = np.random.default_rng(4)
    log_pi = random_log_pi(m, rng)
    r_step = np.zeros(m.n_edges)
    r_term = rng.normal(0, 1, m.n_states)
    pinned = {int(t): float(r_term[t]) for t in m.terminal_ids}
    equations = []
    for states, edges in oracle_trajectories(m):
        x = log_pi[list(edges)]
        suffix = np.concatenate([[0.0], np.cumsum(x[::-1])])[::-1]
        for i in range(len(edges)):
            equations.append(({states[i]: 1.0, states[-1]: -1.0}, -suffix[i]))
    _, sys_res = _family_lstsq(m, equations, pinned)
    assert sys_res > 1e-6
