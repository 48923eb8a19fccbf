import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracles as loops
from gflowdp import envs, exact, mdp
from gflowdp.mdp import (
    CycleDetected,
    DagFormatError,
    ExplicitDagEnv,
    MultipleInitials,
    ParentMismatch,
    StateBudgetExceeded,
    ValidationReport,
    dump_dag_text,
    enumerate_mdp,
    invert,
    parse_dag_text,
    validate,
)

from conftest import oracle_path_counts, random_dag_text

TABLES = ("terminal", "log_target", "edge_src", "edge_action", "edge_dst",
          "out_offset", "in_edges", "in_offset", "parent_slot")


def assert_same_tables(a, b):
    assert a.states == b.states and a.initials == b.initials
    for name in TABLES:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


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


class _CountingEnv:
    """Forwards every call to ``env`` and counts the ``step`` calls."""

    def __init__(self, env):
        self.env, self.steps = env, 0

    def __getattr__(self, name):
        return getattr(self.env, name)

    def step(self, state, action):
        self.steps += 1
        return self.env.step(state, action)


@pytest.mark.parametrize("env", [
    envs.SimpleDagEnv(),
    envs.HypergridEnv(3, 4),
    envs.TreeBuildEnv(1, 5),
    envs.BitVectorEnv(4),
    envs.WordsEnv(2, 4, "append-either-side"),
], ids=lambda env: type(env).__name__)
def test_enumerate_steps_each_edge_once(env):
    # parents() lists exactly the discovered pairs, so none is replayed
    counting = _CountingEnv(env)
    m = enumerate_mdp(counting)
    assert counting.steps == m.n_edges


class _ExtraParentEnv(envs.SimpleDagEnv):
    """Also declares (x, 0) as a parent of sT; x is unreachable and its one
    action lands on ``lands_on``."""

    def __init__(self, lands_on):
        super().__init__()
        self.lands_on = lands_on

    def step(self, state, action):
        return self.lands_on if state == b"x" else super().step(state, action)

    def parents(self, state):
        return super().parents(state) + ([(b"x", 0)] if state == b"sT" else [])


def test_enumerate_replays_declared_pairs_it_did_not_step():
    m = enumerate_mdp(_ExtraParentEnv(b"sT"))
    assert_same_tables(m, enumerate_mdp(envs.SimpleDagEnv()))
    with pytest.raises(ParentMismatch, match="which does not replay to it"):
        enumerate_mdp(_ExtraParentEnv(b"s1"))


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


def test_invert_matches_loop_on_zoo(mdp_zoo):
    for m in mdp_zoo:
        assert_same_tables(invert(m), loops.invert_loop(m))
        assert_same_tables(invert(invert(m)), loops.invert_loop(loops.invert_loop(m)))


@given(random_dag_text())
@settings(max_examples=60, deadline=None)
def test_invert_matches_loop_on_random_dags(text):
    m = enumerate_mdp(parse_dag_text(text))
    assert_same_tables(invert(m), loops.invert_loop(m))
    assert_same_tables(invert(invert(m)), loops.invert_loop(loops.invert_loop(m)))


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
        for checked in (m, invert(m)):
            report = validate(checked)
            assert report.ok, report.failure


def _set(name, index, value):
    """A corruption that sets one entry of one table."""
    def corrupt(m):
        table = getattr(m, name).copy()
        table[index] = value
        return replace(m, **{name: table})
    return corrupt


FOREIGN_OUT_0 = "out_offset slice of state 0 contains foreign edges"
FOREIGN_IN_0 = "in_offset slice of state 0 contains foreign edges"

# One corruption of the two-terminal DAG per validate message: the corrupted
# MDP, the message, and the message of the seed's loop (the same except for
# decreasing offsets, which the loop did not check as such).  Its states are
# 0 '0', 1 '2', 2 '4' (terminal), 3 '1', 4 '3' (terminal); its edges are
# 0->3, 0->1, 1->4, 1->2, 3->4.
CORRUPTIONS = [
    (lambda m: replace(m, states=m.states[:1] + m.states[:-1]), "duplicate state encodings", None),
    (lambda m: replace(m, initials=()), "initial states must be nonempty and distinct", None),
    (lambda m: replace(m, initials=(0, 0)), "initial states must be nonempty and distinct", None),
    (lambda m: replace(m, out_offset=m.out_offset[:-1]), "malformed out_offset", None),
    (_set("out_offset", 0, 1), "malformed out_offset", None),
    (_set("out_offset", -1, 4), "malformed out_offset", None),
    (_set("out_offset", 1, 5), "malformed out_offset", FOREIGN_OUT_0),
    (lambda m: replace(m, in_offset=m.in_offset[1:]), "malformed in_offset", None),
    (_set("in_offset", 0, 1), "malformed in_offset", None),
    (_set("in_offset", -1, 6), "malformed in_offset", None),
    (_set("in_offset", 1, 2), "malformed in_offset", FOREIGN_IN_0),
    (_set("edge_dst", 4, 5), "edge 4 references an unknown state", None),
    (_set("edge_src", 2, -1), "edge 2 references an unknown state", None),
    (_set("edge_dst", 0, 0), "acyclicity: edge 0 -> 0 violates topological index order", None),
    (_set("out_offset", 1, 1), "out_offset slice of state 1 contains foreign edges", None),
    (_set("edge_action", 3, 2), "state 1 action ids are not dense 0..k-1", None),
    (_set("terminal", 3, True), "terminal state 3 has children", None),
    (_set("terminal", 2, False), "non-terminal state 2 has no children", None),
    (_set("in_edges", 0, 3),
     "in_edges is not a permutation of edge ids (parent/child duality)", None),
    (lambda m: replace(m, in_edges=m.in_edges[[1, 0, 2, 3, 4]]),
     "in_offset slice of state 1 contains foreign edges", None),
    (_set("parent_slot", 4, 0), "parent_slot ranks of state 4 are wrong", None),
    (_set("log_target", 2, np.inf), "terminal state 2 has non-finite log_target", None),
    (_set("log_target", 4, np.nan), "terminal state 4 has non-finite log_target", None),
    (_set("log_target", 1, 0.0), "non-terminal state 1 has a finite log_target", None),
    (_set("log_target", 3, np.nan), "non-terminal state 3 has a finite log_target", None),
    # the inverted DAG has initials 0 and 2; without 2, state 2 is unreachable
    (lambda m: replace(invert(m), initials=(0,)), "state 2 unreachable from initials", None),
]


@pytest.mark.parametrize("corrupt, message, loop_message", CORRUPTIONS)
def test_validate_reports_each_invariant_like_the_loop(two_terminal, corrupt, message,
                                                      loop_message):
    bad = corrupt(two_terminal)
    assert validate(bad) == ValidationReport(ok=False, failure=message)
    assert loops.validate_loop(bad) == ValidationReport(ok=False, failure=loop_message or message)


def test_validate_names_the_lowest_state_of_a_group(two_terminal):
    # state 3's actions are not dense, and state 1 is a terminal with
    # children: the later check fails at the lower state, which wins
    bad = _set("terminal", 1, True)(_set("edge_action", 4, 1)(two_terminal))
    assert validate(bad).failure == loops.validate_loop(bad).failure == (
        "terminal state 1 has children")


@given(random_dag_text(),
       st.lists(st.tuples(st.sampled_from(TABLES), st.integers(0, 40), st.integers(-1, 11)),
                min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_validate_matches_loop_on_random_corruptions(text, changes):
    m = enumerate_mdp(parse_dag_text(text))
    for name, index, value in changes:
        table = getattr(m, name).copy()
        index %= len(table)
        if table.dtype == bool:
            table[index] = not table[index]
        elif table.dtype == float:
            table[index] = (0.0, -np.inf, np.inf, np.nan)[value % 4]
        else:
            table[index] = value
        m = replace(m, **{name: table})
    report, loop = validate(m), loops.validate_loop(m)
    if all((np.diff(offset) >= 0).all() for offset in (m.out_offset, m.in_offset)):
        assert report == loop
    else:  # the loop did not check this, and slicing could hide it
        assert report.failure in ("malformed out_offset", "malformed in_offset")


def test_validate_rejects_an_offset_beyond_the_edges():
    # the loop's out_slice(0) clips 0:2 to the one edge and accepts this
    m = enumerate_mdp(parse_dag_text("initial 0\n0 0 1\nterminal 1 0.0\n"))
    bad = _set("out_offset", 1, 2)(m)
    assert loops.validate_loop(bad).ok
    assert validate(bad) == ValidationReport(ok=False, failure="malformed out_offset")


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
        "initial 0\n0 0 1\nterminal 1 nan\n",  # non-finite log targets
        "initial 0\n0 0 1\nterminal 1 inf\n",
        "initial 0\n0 0 1\nterminal 1 -inf\n",
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
    assert validate(inv) == loops.validate_loop(inv) and validate(m) == loops.validate_loop(m)
    inv_edges = {(inv.states[d], inv.states[s]) for s, d in inv.edge_set()}
    assert inv_edges == {(m.states[s], m.states[d]) for s, d in m.edge_set()}
