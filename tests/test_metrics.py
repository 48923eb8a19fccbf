import json
import math

import numpy as np
import pytest

from gflowdp import envs, exact, mdp
from gflowdp.metrics import (
    DegenerateVariance,
    EvalReport,
    SupportMismatch,
    evaluate_policy,
    kl_terminal,
    mode_count,
    n_mse,
    pearson_logprob,
)

from conftest import oracle_terminal_probs, random_log_pi


# ---------------------------------------------------------------------------
# KL


def test_kl_zero_for_exact_policy(grid33):
    log_pi = exact.gsql_policy(grid33, exact.count_paths(grid33))
    assert kl_terminal(grid33, log_pi, "forward") == pytest.approx(0.0, abs=1e-9)
    assert kl_terminal(grid33, log_pi, "reverse") == pytest.approx(0.0, abs=1e-9)
    assert evaluate_policy(grid33, log_pi).l1 == pytest.approx(0.0, abs=1e-9)


def test_kl_single_terminal_always_zero(fig_diamond):
    rng = np.random.default_rng(0)
    log_pi = random_log_pi(fig_diamond, rng)
    assert kl_terminal(fig_diamond, log_pi, "forward") == pytest.approx(0.0, abs=1e-12)


def test_kl_matches_enumeration_oracle(grid44):
    rng = np.random.default_rng(1)
    log_pi = random_log_pi(grid44, rng)
    mu = oracle_terminal_probs(grid44, log_pi)[grid44.terminal]
    p = exact.target_distribution(grid44)[grid44.terminal]
    expect_fwd = float((mu * (np.log(mu) - np.log(p))).sum())
    expect_rev = float((p * (np.log(p) - np.log(mu))).sum())
    assert kl_terminal(grid44, log_pi, "forward") == pytest.approx(expect_fwd, abs=1e-9)
    assert kl_terminal(grid44, log_pi, "reverse") == pytest.approx(expect_rev, abs=1e-9)


def test_kl_nonnegative(mdp_zoo):
    rng = np.random.default_rng(2)
    for m in mdp_zoo:
        log_pi = random_log_pi(m, rng)
        assert kl_terminal(m, log_pi, "forward") >= 0.0
        assert kl_terminal(m, log_pi, "reverse") >= 0.0


def test_kl_support_mismatch():
    text = "initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\nterminal 2 0.0\n"
    m = mdp.enumerate_mdp(mdp.parse_dag_text(text))
    log_pi = np.array([0.0, float("-inf")])  # never reaches terminal 2
    with pytest.raises(SupportMismatch):
        kl_terminal(m, log_pi, "reverse")
    # forward direction is still defined under the 0 log 0 convention
    assert kl_terminal(m, log_pi, "forward") == pytest.approx(math.log(2.0))


def test_kl_reverse_reads_tiny_marginals_in_log_space(two_terminal):
    # terminal 4 is reached with probability e^-800 / 2, which underflows as
    # a plain double but is a positive-target terminal with positive mass
    m = two_terminal
    label = [int(st) for st in m.states]
    by_edge = {(0, 1): 0.0, (0, 2): -800.0, (1, 3): 0.0, (2, 3): math.log(0.5),
               (2, 4): math.log(0.5)}
    log_pi = np.array([by_edge[label[s], label[d]] for s, d in zip(m.edge_src, m.edge_dst)])
    t3, t4 = label.index(3), label.index(4)
    p3, p4 = 0.7 / 0.9, 0.2 / 0.9
    want = p3 * math.log(p3) + p4 * (math.log(p4) + 800.0 - math.log(0.5))
    assert kl_terminal(m, log_pi, "reverse") == pytest.approx(want, rel=1e-12)
    assert exact.marginals(m, log_pi)[t4] == 0.0
    assert exact.log_marginals(m, log_pi)[t4] == pytest.approx(-800.0 + math.log(0.5))
    assert exact.log_marginals(m, log_pi)[t3] == pytest.approx(0.0, abs=1e-12)


def test_kl_direction_validation(grid33):
    with pytest.raises(ValueError):
        kl_terminal(grid33, exact.gsql_policy(grid33, exact.count_paths(grid33)), "both")


# ---------------------------------------------------------------------------
# Pearson


def test_pearson_exact_sampler_is_one(grid33):
    log_pi = exact.gsql_policy(grid33, exact.count_paths(grid33))
    mu = exact.terminal_distribution(grid33, log_pi)
    log_mu = np.where(mu > 0, np.log(np.where(mu > 0, mu, 1.0)), -np.inf)
    samples = grid33.terminal_ids
    assert pearson_logprob(samples, log_mu, grid33.log_target) == pytest.approx(
        1.0, abs=1e-9
    )


def test_pearson_degenerate_cases(grid33):
    log_target = grid33.log_target
    constant = np.zeros(grid33.n_states)
    with pytest.raises(DegenerateVariance):
        pearson_logprob(grid33.terminal_ids, constant, log_target)
    with pytest.raises(DegenerateVariance):
        pearson_logprob([int(grid33.terminal_ids[0])] * 5, constant, log_target)


def test_pearson_sign():
    log_p = np.array([0.0, 1.0, 2.0, 3.0])
    log_t = np.array([3.0, 2.0, 1.0, 0.0])
    assert pearson_logprob([0, 1, 2, 3], log_p, log_t) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# modes


def test_mode_count_empty():
    counts = mode_count([], np.zeros(4), [0.5, 1.0])
    assert counts == {0.5: 0, 1.0: 0}
    assert mode_count([1, 2], np.zeros(4), ()) == {}


def test_mode_count_deduplicates():
    log_target = np.log(np.array([0.3, 1.5, 2.5]))
    counts = mode_count([1, 1, 2, 2, 2], log_target, [1.0, 2.0])
    assert counts == {1.0: 2, 2.0: 1}


def test_mode_count_monotone_and_exact_on_grid():
    m = mdp.enumerate_mdp(envs.HypergridEnv(2, 8))
    thresholds = [0.5, 1.0, 2.0, 2.6]
    counts = mode_count(m.terminal_ids, m.log_target, thresholds)
    values = [counts[t] for t in thresholds]
    assert values == sorted(values, reverse=True)
    # direct evaluation over the lattice
    expect = sum(
        1
        for x in range(8)
        for y in range(8)
        if envs.hypergrid_target([x, y], 8) >= 2.0
    )
    assert counts[2.0] == expect


# ---------------------------------------------------------------------------
# count error


def test_n_mse_basics(grid33):
    l = exact.count_paths(grid33)
    assert n_mse(l, l) == 0.0
    assert n_mse(l + 1.0, l) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# report


def test_entropy_bound_attained_only_by_count_corrected_policy(grid33):
    l = exact.count_paths(grid33)
    bound = exact.max_entropy_bound(grid33, l)
    log_pi_max = exact.gsql_policy(grid33, l)
    assert exact.flow_entropy(grid33, log_pi_max) == pytest.approx(bound, abs=1e-9)
    _, log_pi_uni = exact.forward_from_backward(grid33, exact.backward_uniform(grid33))
    e_uni = exact.flow_entropy(grid33, log_pi_uni)
    assert e_uni < bound - 1e-6
    # both sample the target, so both entropies respect the bound
    assert kl_terminal(grid33, log_pi_uni, "forward") == pytest.approx(0.0, abs=1e-9)
    assert not np.allclose(np.exp(log_pi_uni), np.exp(log_pi_max), atol=1e-6)


def test_evaluate_policy_report(grid33):
    l = exact.count_paths(grid33)
    log_pi = exact.gsql_policy(grid33, l)
    report = evaluate_policy(
        grid33,
        log_pi,
        l_hat=l + 0.5,
        thresholds=(0.5, 2.0),
        pearson_samples=grid33.terminal_ids,
    )
    assert report.kl_forward == pytest.approx(0.0, abs=1e-9)
    assert report.pearson == pytest.approx(1.0, abs=1e-9)
    assert report.n_mse == pytest.approx(0.25)
    assert report.entropy <= report.max_entropy_bound + 1e-9
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "kl_forward", "kl_reverse", "l1", "entropy", "max_entropy_bound",
        "pearson", "n_mse", "modes",
    }
    # on the 3x3 grid only the four corners clear 0.5 (they score 0.6)
    assert doc["modes"]["0.5"] == 4
    assert doc["modes"]["2.0"] == 0
