import math

import numpy as np
import pytest
from hypothesis import given, settings

from gflowdp import envs, exact, mdp
from gflowdp.mdp import (
    CycleDetected,
    DagFormatError,
    ExplicitDagEnv,
    MultipleInitials,
    ParentMismatch,
    StateBudgetExceeded,
    dump_dag_text,
    enumerate_mdp,
    invert,
    parse_dag_text,
    validate,
)

from conftest import oracle_path_counts, random_dag_text


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_diamond_counts(fig_diamond):
    assert fig_diamond.n_states == 4
    assert fig_diamond.n_edges == 5
    assert int(fig_diamond.terminal.sum()) == 1


def test_enumerate_single_state(single_state):
    assert single_state.n_states == 1
    assert single_state.n_edges == 0
    assert single_state.terminal[0]
    assert single_state.initial == 0


def test_enumerate_grid33_states_and_edges(grid33):
    assert grid33.n_states == 18  # 9 lattice + 9 terminal copies
    # independent BFS edge count over the raw env
    env = envs.HypergridEnv(2, 3)
    seen = {env.initial_state()}
    frontier = [env.initial_state()]
    n_edges = 0
    while frontier:
        s = frontier.pop()
        if env.is_terminal(s):
            continue
        for a in range(env.n_actions(s)):
            c = env.step(s, a)
            n_edges += 1
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    assert len(seen) == grid33.n_states
    assert n_edges == grid33.n_edges


def test_enumerate_topological_and_initial_index(mdp_zoo):
    for m in mdp_zoo:
        assert m.initial == 0
        assert (m.edge_src < m.edge_dst).all()


def test_enumerate_deterministic():
    a = enumerate_mdp(envs.HypergridEnv(2, 4))
    b = enumerate_mdp(envs.HypergridEnv(2, 4))
    assert a.states == b.states
    assert np.array_equal(a.edge_src, b.edge_src)
    assert np.array_equal(a.edge_dst, b.edge_dst)
    assert np.array_equal(a.edge_action, b.edge_action)


def test_enumerate_budget():
    with pytest.raises(StateBudgetExceeded):
        enumerate_mdp(envs.HypergridEnv(2, 4), max_states=5)


class _CyclicEnv:
    """Claims 0 -> 1 -> 0, which no acyclic contract allows."""

    def initial_state(self):
        return b"0"

    def n_actions(self, state):
        return 1

    def step(self, state, action):
        return b"1" if state == b"0" else b"0"

    def is_terminal(self, state):
        return False

    def log_target(self, state):
        return float("-inf")

    def parents(self, state):
        return []


def test_enumerate_cycle_detected():
    with pytest.raises(CycleDetected):
        enumerate_mdp(_CyclicEnv())


class _BadParentsEnv(envs.SimpleDagEnv):
    def parents(self, state):
        return []  # forgets every parent


class _LyingParentsEnv(envs.SimpleDagEnv):
    def parents(self, state):
        good = super().parents(state)
        if state == b"sT":
            return [(b"s0", 0)] + list(good)  # s0 action 0 goes to s1, not sT
        return good


def test_enumerate_parent_mismatch():
    with pytest.raises(ParentMismatch):
        enumerate_mdp(_BadParentsEnv())
    with pytest.raises(ParentMismatch):
        enumerate_mdp(_LyingParentsEnv())


def test_parent_child_duality(mdp_zoo):
    for m in mdp_zoo:
        n_children = sum(len(m.children(s)) for s in range(m.n_states))
        n_parents = sum(len(m.parents_of(s)) for s in range(m.n_states))
        assert n_children == n_parents == m.n_edges


# ---------------------------------------------------------------------------
# invert


def test_invert_involution_edge_set(mdp_zoo):
    for m in mdp_zoo:
        back = invert(invert(m))
        assert back.states == m.states
        assert back.edge_set() == m.edge_set()
        assert np.array_equal(back.terminal, m.terminal)
        assert back.initials == m.initials


def test_invert_diamond_structure(fig_diamond):
    inv = invert(fig_diamond)
    assert validate(inv).ok
    # the old terminal becomes the single initial-role state with two actions
    assert len(inv.initials) == 1
    s_t = inv.initials[0]
    assert inv.states[s_t] == b"sT"
    assert len(inv.children(s_t)) == 2
    # the old initial is the terminal role
    term = int(np.flatnonzero(inv.terminal)[0])
    assert inv.states[term] == b"s0"


def test_invert_words_append_right_unique_chain():
    m = enumerate_mdp(envs.WordsEnv(2, 3, "append-right"))
    inv = invert(m)
    for s in range(inv.n_states):
        if not inv.terminal[s]:
            assert len(inv.children(s)) == 1


def test_invert_multi_initial_flagged(grid33):
    inv = invert(grid33)
    assert inv.multi_initial
    with pytest.raises(MultipleInitials):
        _ = inv.initial
    assert validate(inv).ok


def test_invert_counts_total_trajectories(fig_diamond, two_terminal, grid33):
    # paths from every terminal backward to s0 total the forward trajectory count
    for m in (fig_diamond, two_terminal, grid33):
        l_inv = exact.count_paths(invert(m))
        s0_inv = invert(m).n_states - 1  # reverse topological reindexing
        total = sum(oracle_path_counts(m)[t] for t in m.terminal_ids)
        assert math.isclose(math.exp(l_inv[s0_inv]), total, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_on_zoo(mdp_zoo):
    for m in mdp_zoo:
        report = validate(m)
        assert report.ok, report.failure


def test_validate_rejects_index_order_violation(fig_diamond):
    m = fig_diamond
    bad = mdp.EnumeratedMdp(
        states=m.states,
        initials=m.initials,
        terminal=m.terminal,
        log_target=m.log_target,
        edge_src=m.edge_dst.copy(),  # reversed edge direction
        edge_action=m.edge_action,
        edge_dst=m.edge_src.copy(),
        out_offset=m.out_offset,
        in_edges=m.in_edges,
        in_offset=m.in_offset,
        parent_slot=m.parent_slot,
    )
    report = validate(bad)
    assert not report.ok


def test_validate_rejects_asymmetric_parents(fig_diamond):
    m = fig_diamond
    bad_in = m.in_edges.copy()
    bad_in[[0, 1]] = bad_in[[1, 0]]  # swap two edges across dst groups
    bad = mdp.EnumeratedMdp(
        states=m.states,
        initials=m.initials,
        terminal=m.terminal,
        log_target=m.log_target,
        edge_src=m.edge_src,
        edge_action=m.edge_action,
        edge_dst=m.edge_dst,
        out_offset=m.out_offset,
        in_edges=bad_in,
        in_offset=m.in_offset,
        parent_slot=m.parent_slot,
    )
    report = validate(bad)
    assert not report.ok


def test_validate_rejects_bad_log_target(fig_diamond):
    bad = fig_diamond.with_log_target(np.zeros(fig_diamond.n_states))
    assert not validate(bad).ok


# ---------------------------------------------------------------------------
# DAG text format


def test_dag_text_round_trip(mdp_zoo):
    for m in mdp_zoo:
        if m.multi_initial:
            continue
        again = enumerate_mdp(parse_dag_text(dump_dag_text(m)))
        assert again.n_states == m.n_states
        assert np.array_equal(again.edge_src, m.edge_src)
        assert np.array_equal(again.edge_dst, m.edge_dst)
        assert np.array_equal(again.edge_action, m.edge_action)
        assert np.array_equal(again.terminal, m.terminal)
        assert np.allclose(again.log_target[again.terminal], m.log_target[m.terminal])


def test_dag_text_comments_and_whitespace():
    env = parse_dag_text("# c\n  initial 0 # more\n 0 0 1 \n\nterminal 1 -0.5\n")
    m = enumerate_mdp(env)
    assert m.n_states == 2
    assert m.log_target[1] == -0.5


@pytest.mark.parametrize(
    "text",
    [
        "0 0 1\nterminal 1 0.0\n",  # missing initial
        "initial 0\n0 0 1\n",  # missing terminals
        "initial 0\ninitial 1\nterminal 0 0.0\n",  # duplicate initial
        "initial 0\n0 5 1\nterminal 1 0.0\n",  # non-dense action ids
        "initial 0\n0 0 1\n1 0 2\nterminal 1 0.0\nterminal 2 0.0\n",  # terminal with edges
        "initial 0\n0 zero 1\nterminal 1 0.0\n",  # unparsable token
    ],
)
def test_dag_text_format_errors(text):
    with pytest.raises(DagFormatError):
        parse_dag_text(text)


# ---------------------------------------------------------------------------
# property tests over random DAGs


@given(random_dag_text())
@settings(max_examples=40, deadline=None)
def test_random_dag_invariants_and_counts(text):
    m = enumerate_mdp(parse_dag_text(text))
    report = validate(m)
    assert report.ok, report.failure
    counts = oracle_path_counts(m)
    l = exact.count_paths(m)
    for s in range(m.n_states):
        assert math.isclose(math.exp(l[s]), counts[s], rel_tol=1e-9)
    # inversion preserves the edge multiset, reversed (compare by encoding
    # since inversion reindexes states)
    inv = invert(m)
    assert validate(inv).ok
    inv_edges = {(inv.states[d], inv.states[s]) for s, d in inv.edge_set()}
    assert inv_edges == {(m.states[s], m.states[d]) for s, d in m.edge_set()}
