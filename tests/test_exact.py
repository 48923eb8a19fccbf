import math

import numpy as np
import pytest

import loop_oracles as loops
from gflowdp import envs, mdp
from gflowdp.exact import (
    NonFiniteTarget,
    TrajectoryBudgetExceeded,
    ZeroFlow,
    backward_maxent,
    backward_uniform,
    count_paths,
    exact_tables,
    flow_entropy,
    forward_from_backward,
    gsql_policy,
    gsql_solution,
    iter_trajectories,
    log_partition,
    marginals,
    max_entropy_bound,
    push_forward,
    soft_value_iteration,
    target_distribution,
    terminal_distribution,
    trajectory_entropy_bruteforce,
)
from gflowdp.numerics import logsumexp

from conftest import (
    exact_tables_from_json,
    find_state,
    oracle_path_counts,
    oracle_terminal_probs,
    oracle_trajectories,
    oracle_trajectory_probs,
    random_log_pi,
)

LN2, LN3 = math.log(2.0), math.log(3.0)


def diamond_ids(m):
    return {name: find_state(m, name.encode()) for name in ("s0", "s1", "s2", "sT")}


# ---------------------------------------------------------------------------
# count_paths


def test_count_paths_diamond(fig_diamond):
    l = count_paths(fig_diamond)
    ids = diamond_ids(fig_diamond)
    assert l[ids["s0"]] == 0.0
    assert l[ids["sT"]] == pytest.approx(LN3, abs=1e-12)


def test_count_paths_vs_oracle(mdp_zoo):
    for m in mdp_zoo:
        counts = oracle_path_counts(m)
        l = count_paths(m)
        for s in range(m.n_states):
            assert math.exp(l[s]) == pytest.approx(counts[s], rel=1e-9)


def test_count_paths_64_grid_corner():
    m = mdp.enumerate_mdp(envs.HypergridEnv(2, 64))
    l = count_paths(m)
    corner = find_state(m, bytes([0, 63, 63]))
    expect = math.lgamma(127) - 2 * math.lgamma(64)  # log((2*63)! / 63! / 63!)
    assert l[corner] == pytest.approx(expect, abs=1e-6)


def test_count_paths_is_inverted_soft_value(mdp_zoo):
    # on every original state, the count table is the zero-reward soft value
    # function of the reversed DAG
    for m in mdp_zoo:
        inv = loops.invert_loop(m)
        v_inv, _, _ = soft_value_iteration(inv)
        l = count_paths(m)
        rho = inv.n_states - 1 - np.arange(m.n_states)
        assert np.allclose(v_inv[rho], l, atol=1e-9)


def test_push_forward_reads_log_init_only_at_the_initial_state(mdp_zoo):
    # every other state has parents, so its log_init is overwritten unread
    rng = np.random.default_rng(11)
    for m in mdp_zoo:
        log_w = rng.normal(size=m.n_edges)
        seed_only = np.full(m.n_states, -math.inf)
        seed_only[m.initial] = 0.0
        noisy = np.where(np.arange(m.n_states) == m.initial, 0.0, rng.normal(size=m.n_states))
        want = push_forward(m, log_w, seed_only)
        assert np.array_equal(push_forward(m, log_w, noisy), want)
        assert np.allclose(want, loops.push_forward_levels(m, log_w, seed_only), atol=1e-12)


def test_trajectory_uniform_marginals_are_count_products(mdp_zoo):
    # with c(s) the number of paths from s to a terminal (the reversed DAG's
    # counts), pi(s -> s') = c(s') / c(s) draws every complete trajectory
    # with probability 1 / c(s0), so state s is visited with n(s) c(s) / c(s0)
    for m in mdp_zoo:
        inv = loops.invert_loop(m)
        c = count_paths(inv)[inv.n_states - 1 - np.arange(m.n_states)]
        log_pi = c[m.edge_dst] - c[m.edge_src]
        out_mass = np.bincount(m.edge_src, weights=np.exp(log_pi), minlength=m.n_states)
        assert np.allclose(out_mass[~m.terminal], 1.0, rtol=1e-12)
        assert np.allclose(marginals(m, log_pi), np.exp(count_paths(m) + c - c[m.initial]),
                           rtol=1e-9)


# ---------------------------------------------------------------------------
# soft value iteration


def test_soft_value_single_action_chain(chain):
    rng = np.random.default_rng(0)
    r_step = rng.normal(0, 1, chain.n_edges)
    r_term = rng.normal(0, 1, chain.n_states)
    v, q, log_pi = soft_value_iteration(chain, r_step, r_term)
    assert np.allclose(log_pi, 0.0, atol=1e-12)  # deterministic policy
    # one-action logsumexp collapses to the sum of rewards
    expect = r_term[3] + r_step.sum()
    assert v[0] == pytest.approx(expect, abs=1e-12)


def test_soft_value_linear_reward_terminal_bias(two_terminal):
    # zero step rewards, terminal reward p~ itself: mass goes as n exp(p~)
    p_tilde = np.exp(two_terminal.log_target)
    r_term = np.where(two_terminal.terminal, p_tilde, 0.0)
    _, _, log_pi = soft_value_iteration(two_terminal, terminal_rewards=r_term)
    dist = terminal_distribution(two_terminal, log_pi)
    n = np.array(oracle_path_counts(two_terminal), dtype=float)
    expect = n * np.exp(r_term)
    expect[~two_terminal.terminal] = 0.0
    expect /= expect.sum()
    assert np.allclose(dist, expect, atol=1e-12)


def test_soft_value_equal_rewards_uniform_trajectories(fig_diamond):
    _, _, log_pi = soft_value_iteration(fig_diamond)
    probs = [p for _, _, p in oracle_trajectory_probs(fig_diamond, log_pi)]
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_trajectory_probability_identity(mdp_zoo):
    # log P(sub-trajectory) telescopes through values and rewards
    rng = np.random.default_rng(42)
    for m in mdp_zoo:
        r_step = rng.normal(0, 0.5, m.n_edges)
        r_term = rng.normal(0, 0.5, m.n_states)
        v, _, log_pi = soft_value_iteration(m, r_step, r_term)
        for states, edges, _ in oracle_trajectory_probs(m, log_pi):
            for i in range(len(edges)):
                for j in range(i + 1, len(edges) + 1):
                    span = list(edges[i:j])
                    lhs = float(log_pi[span].sum())
                    rhs = v[states[j]] + float(r_step[span].sum()) - v[states[i]]
                    assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# GSQL


def test_gsql_diamond_trajectories_uniform(fig_diamond):
    log_pi = gsql_policy(fig_diamond, count_paths(fig_diamond))
    probs = [p for _, _, p in oracle_trajectory_probs(fig_diamond, log_pi)]
    assert np.allclose(sorted(probs), [1 / 3, 1 / 3, 1 / 3], atol=1e-9)


def test_gsql_terminal_distribution_matches_target(mdp_zoo):
    for m in mdp_zoo:
        log_pi = gsql_policy(m, count_paths(m))
        dist = terminal_distribution(m, log_pi)
        assert np.allclose(dist, target_distribution(m), atol=1e-9)
        # conservation
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_gsql_single_terminal_probability_one(fig_diamond):
    log_pi = gsql_policy(fig_diamond, count_paths(fig_diamond))
    ids = diamond_ids(fig_diamond)
    assert terminal_distribution(fig_diamond, log_pi)[ids["sT"]] == pytest.approx(1.0)


def test_gsql_oracle_distribution_grid(grid33):
    log_pi = gsql_policy(grid33, count_paths(grid33))
    oracle = oracle_terminal_probs(grid33, log_pi)
    assert np.allclose(oracle, target_distribution(grid33), atol=1e-9)


def test_gsql_rejects_nonfinite_target(fig_diamond):
    bad_target = fig_diamond.log_target.copy()
    bad_target[fig_diamond.terminal_ids[0]] = float("-inf")
    bad = fig_diamond.with_log_target(bad_target)
    with pytest.raises(NonFiniteTarget):
        gsql_policy(bad, count_paths(bad))


# ---------------------------------------------------------------------------
# partition function


def test_log_partition_two_unit_terminals():
    text = "initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\nterminal 2 0.0\n"
    m = mdp.enumerate_mdp(mdp.parse_dag_text(text))
    direct, via_value = log_partition(m, count_paths(m))
    assert direct == pytest.approx(LN2, abs=1e-12)
    assert via_value == pytest.approx(LN2, abs=1e-9)


def test_log_partition_diamond_scaled_target():
    m = mdp.enumerate_mdp(envs.SimpleDagEnv(target=5.0))
    direct, via_value = log_partition(m, count_paths(m))
    assert direct == pytest.approx(math.log(5.0), abs=1e-12)
    assert via_value == pytest.approx(math.log(5.0), abs=1e-9)


def test_log_partition_identity_8x8():
    m = mdp.enumerate_mdp(envs.HypergridEnv(2, 8))
    direct, via_value = log_partition(m, count_paths(m))
    assert via_value == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# marginals


def test_marginals_chain_deterministic(chain):
    _, _, log_pi = soft_value_iteration(chain)
    assert np.allclose(marginals(chain, log_pi), 1.0, atol=1e-12)


def test_marginals_uniform_backward_diamond(fig_diamond):
    _, log_pi = forward_from_backward(fig_diamond, backward_uniform(fig_diamond))
    ids = diamond_ids(fig_diamond)
    mu = marginals(fig_diamond, log_pi)
    assert mu[ids["s0"]] == pytest.approx(1.0)
    assert mu[ids["s2"]] == pytest.approx(0.75, abs=1e-12)
    assert mu[ids["s1"]] == pytest.approx(0.50, abs=1e-12)
    probs = {
        states: p for states, _, p in oracle_trajectory_probs(fig_diamond, log_pi)
    }
    assert np.allclose(sorted(probs.values()), [0.25, 0.25, 0.5], atol=1e-12)


def test_marginals_conserve_mass_random_policy(grid44):
    rng = np.random.default_rng(3)
    log_pi = random_log_pi(grid44, rng)
    mu = marginals(grid44, log_pi)
    assert mu[grid44.terminal].sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# backward policies


def test_backward_maxent_diamond(fig_diamond):
    ids = diamond_ids(fig_diamond)
    q = np.exp(backward_maxent(fig_diamond, count_paths(fig_diamond)))
    got = {
        (int(fig_diamond.edge_src[e]), int(fig_diamond.edge_dst[e])): q[e]
        for e in range(fig_diamond.n_edges)
    }
    assert got[(ids["s1"], ids["sT"])] == pytest.approx(2 / 3, abs=1e-12)
    assert got[(ids["s2"], ids["sT"])] == pytest.approx(1 / 3, abs=1e-12)
    assert got[(ids["s0"], ids["s1"])] == pytest.approx(1 / 2, abs=1e-12)
    assert got[(ids["s2"], ids["s1"])] == pytest.approx(1 / 2, abs=1e-12)


def test_backward_uniform_diamond(fig_diamond):
    ids = diamond_ids(fig_diamond)
    q = np.exp(backward_uniform(fig_diamond))
    for e in fig_diamond.in_edge_ids(ids["sT"]):
        assert q[e] == pytest.approx(0.5, abs=1e-12)
    for e in fig_diamond.in_edge_ids(ids["s2"]):
        assert q[e] == pytest.approx(1.0, abs=1e-12)  # single parent


def test_backward_normalization(mdp_zoo):
    for m in mdp_zoo:
        l = count_paths(m)
        for log_q in (backward_maxent(m, l), backward_uniform(m)):
            for s in range(m.n_states):
                ids = m.in_edge_ids(s)
                if len(ids):
                    assert logsumexp(log_q[ids]) == pytest.approx(0.0, abs=1e-12)


def test_backward_maxent_of_exact_counts_is_the_count_ratio(mdp_zoo):
    # the normalized in-edge softmax of exact counts is l(s) - l(s') per edge
    for m in mdp_zoo:
        for g in (m, loops.invert_loop(m)):
            l = count_paths(g)
            got = backward_maxent(g, l)
            assert np.abs(got - (l[g.edge_src] - l[g.edge_dst])).max(initial=0.0) <= 1e-12


def test_backward_maxent_telescoping(mdp_zoo):
    # products of the count-ratio backward telescope to count ratios
    for m in mdp_zoo:
        l = count_paths(m)
        log_q = backward_maxent(m, l)
        for states, edges in oracle_trajectories(m):
            for i in range(len(edges)):
                for j in range(i + 1, len(edges) + 1):
                    got = float(log_q[list(edges[i:j])].sum())
                    expect = l[states[i]] - l[states[j]]
                    assert got == pytest.approx(expect, abs=1e-9)


def test_backward_maxent_uniform_over_backward_trajectories(mdp_zoo):
    # every trajectory into a fixed terminal has backward probability 1/n(t)
    for m in mdp_zoo:
        l = count_paths(m)
        log_q = backward_maxent(m, l)
        for states, edges in oracle_trajectories(m):
            back_p = math.exp(float(log_q[list(edges)].sum()))
            assert back_p == pytest.approx(math.exp(-l[states[-1]]), rel=1e-9)


# ---------------------------------------------------------------------------
# forward_from_backward


def test_forward_from_backward_diamond_values(fig_diamond):
    ids = diamond_ids(fig_diamond)
    _, log_pi_u = forward_from_backward(fig_diamond, backward_uniform(fig_diamond))
    pi = np.exp(log_pi_u)
    edge = {
        (int(fig_diamond.edge_src[e]), int(fig_diamond.edge_dst[e])): e
        for e in range(fig_diamond.n_edges)
    }
    assert pi[edge[(ids["s0"], ids["s1"])]] == pytest.approx(0.25, abs=1e-12)
    assert pi[edge[(ids["s0"], ids["s2"])]] == pytest.approx(0.75, abs=1e-12)
    l = count_paths(fig_diamond)
    _, log_pi_m = forward_from_backward(fig_diamond, backward_maxent(fig_diamond, l))
    pi = np.exp(log_pi_m)
    assert pi[edge[(ids["s0"], ids["s1"])]] == pytest.approx(1 / 3, abs=1e-12)
    assert pi[edge[(ids["s0"], ids["s2"])]] == pytest.approx(2 / 3, abs=1e-12)


def test_forward_from_backward_path_graph_deterministic(chain):
    _, log_pi = forward_from_backward(chain, backward_uniform(chain))
    assert np.allclose(log_pi, 0.0, atol=1e-12)


def test_forward_from_backward_detailed_balance(mdp_zoo):
    for m in mdp_zoo:
        l = count_paths(m)
        for log_q in (backward_uniform(m), backward_maxent(m, l)):
            log_f, log_pi = forward_from_backward(m, log_q)
            for e in range(m.n_edges):
                s, d = int(m.edge_src[e]), int(m.edge_dst[e])
                residual = log_f[s] + log_pi[e] - log_q[e] - log_f[d]
                assert abs(residual) < 1e-12


def test_forward_from_backward_agrees_with_gsql(mdp_zoo):
    # two independent routes to the same policy: soft values vs flow recursion
    for m in mdp_zoo:
        l = count_paths(m)
        log_pi_value = gsql_policy(m, l)
        _, log_pi_flow = forward_from_backward(m, backward_maxent(m, l))
        assert np.allclose(np.exp(log_pi_value), np.exp(log_pi_flow), atol=1e-9)


def test_forward_from_backward_zero_flow_and_renormalization():
    # terminal 3 carries no mass: state 1 only reaches it, state 0 renormalizes
    text = "initial 0\n0 0 1\n0 1 2\n1 0 3\n2 0 4\nterminal 3 0.0\nterminal 4 0.0\n"
    m = mdp.enumerate_mdp(mdp.parse_dag_text(text))
    target = m.log_target.copy()
    target[find_state(m, b"3")] = float("-inf")
    dead = m.with_log_target(target)
    with pytest.raises(ZeroFlow):
        forward_from_backward(dead, backward_uniform(dead))
    # drop the dead branch: 0 -> 2 -> 4 only; the surviving action gets all mass
    text2 = "initial 0\n0 0 1\n0 1 2\n1 0 3\n2 0 4\nterminal 3 -1e300\nterminal 4 0.0\n"
    m2 = mdp.enumerate_mdp(mdp.parse_dag_text(text2))
    _, log_pi = forward_from_backward(m2, backward_uniform(m2))
    pi_live = math.exp(log_pi[1])  # edge 0 -> 2
    assert pi_live == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# entropies


def test_flow_entropy_diamond_values(fig_diamond):
    l = count_paths(fig_diamond)
    _, log_pi_u = forward_from_backward(fig_diamond, backward_uniform(fig_diamond))
    assert flow_entropy(fig_diamond, log_pi_u) == pytest.approx(1.5 * LN2, abs=1e-12)
    log_pi_m = gsql_policy(fig_diamond, l)
    assert flow_entropy(fig_diamond, log_pi_m) == pytest.approx(LN3, abs=1e-12)


def test_flow_entropy_deterministic_policy(chain):
    _, _, log_pi = soft_value_iteration(chain)
    assert flow_entropy(chain, log_pi) == 0.0


def test_trajectory_entropy_matches_flow_entropy(mdp_zoo):
    rng = np.random.default_rng(11)
    for m in mdp_zoo:
        log_pi = random_log_pi(m, rng)
        fe = flow_entropy(m, log_pi)
        te = trajectory_entropy_bruteforce(m, log_pi)
        assert te == pytest.approx(fe, abs=1e-9)


def test_trajectory_entropy_diamond_and_single_path(fig_diamond, chain):
    log_pi = gsql_policy(fig_diamond, count_paths(fig_diamond))
    assert trajectory_entropy_bruteforce(fig_diamond, log_pi) == pytest.approx(
        LN3, abs=1e-9
    )
    _, _, chain_pi = soft_value_iteration(chain)
    assert trajectory_entropy_bruteforce(chain, chain_pi) == 0.0


def test_trajectory_budget(grid33):
    with pytest.raises(TrajectoryBudgetExceeded):
        trajectory_entropy_bruteforce(grid33, gsql_policy(grid33, count_paths(grid33)), budget=5)


def test_max_entropy_bound_values(fig_diamond, chain, grid44):
    l = count_paths(fig_diamond)
    assert max_entropy_bound(fig_diamond, l) == pytest.approx(LN3, abs=1e-12)
    # unique paths everywhere: the bound collapses to the target entropy
    text = "initial 0\n0 0 1\n0 1 2\nterminal 1 0.3\nterminal 2 -0.4\n"
    tree = mdp.enumerate_mdp(mdp.parse_dag_text(text))
    p = target_distribution(tree)[tree.terminal]
    h_p = -(p * np.log(p)).sum()
    assert max_entropy_bound(tree, count_paths(tree)) == pytest.approx(h_p, abs=1e-12)
    # the count-corrected policy attains the bound
    l44 = count_paths(grid44)
    log_pi = gsql_policy(grid44, l44)
    assert flow_entropy(grid44, log_pi) == pytest.approx(
        max_entropy_bound(grid44, l44), abs=1e-9
    )


def test_entropy_ordering(mdp_zoo, fig_diamond, tree_env_mdp):
    for m in mdp_zoo:
        l = count_paths(m)
        e_max = flow_entropy(m, gsql_policy(m, l))
        _, log_pi_u = forward_from_backward(m, backward_uniform(m))
        e_uni = flow_entropy(m, log_pi_u)
        assert e_max >= e_uni - 1e-12
        assert e_max == pytest.approx(max_entropy_bound(m, l), abs=1e-9)
    for strict in (fig_diamond, tree_env_mdp):
        l = count_paths(strict)
        _, log_pi_u = forward_from_backward(strict, backward_uniform(strict))
        gap = flow_entropy(strict, gsql_policy(strict, l)) - flow_entropy(
            strict, log_pi_u
        )
        assert gap > 1e-3


# ---------------------------------------------------------------------------
# tables


def test_exact_tables_json_round_trip(grid33):
    tables = exact_tables(grid33)
    again = exact_tables_from_json(tables.to_json())
    assert np.allclose(again.l, tables.l, atol=0)
    assert np.allclose(again.V, tables.V, atol=0)
    assert np.allclose(again.mu, tables.mu, atol=0)
    assert np.allclose(again.logF, tables.logF, atol=0)
    assert again.logZ == tables.logZ


def test_exact_tables_internal_identities(mdp_zoo):
    for m in mdp_zoo:
        t = exact_tables(m)
        assert t.logZ == pytest.approx(logsumexp(m.log_target[m.terminal]), abs=1e-12)
        assert t.V[m.initial] == pytest.approx(t.logZ, abs=1e-9)
        assert t.mu[m.terminal].sum() == pytest.approx(1.0, abs=1e-12)
        assert t.l[m.initial] == 0.0
        # flows are the marginals scaled by the partition function
        mask = t.mu > 0
        assert np.allclose(
            t.logF[mask], t.logZ + np.log(t.mu[mask]), atol=1e-9
        )


def test_iter_trajectories_counts(mdp_zoo):
    for m in mdp_zoo:
        total = sum(oracle_path_counts(m)[t] for t in m.terminal_ids)
        assert sum(1 for _ in iter_trajectories(m)) == total
