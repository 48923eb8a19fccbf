import itertools
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
    ParentMismatch,
    StateBudgetExceeded,
    ValidationReport,
    dump_dag_text,
    enumerate_mdp,
    parse_dag_text,
    validate,
)

from conftest import (
    edge_set,
    layered_dag_text,
    oracle_path_counts,
    parents_of,
    random_dag_text,
)

TABLES = ("terminal", "log_target", "edge_src", "edge_action", "edge_dst",
          "out_offset", "in_edges", "in_offset")


def assert_same_tables(a, b):
    assert a.states == b.states
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


@pytest.mark.parametrize("text", [
    "initial 0\n0 0 1\n1 0 2\n2 0 1\n2 1 3\nterminal 3 0.0\n",  # 0 -> 1 -> 2 -> 1
    "initial 0\n0 0 1\n1 0 1\n1 1 2\nterminal 2 0.0\n",  # self-loop at 1
    # 0 -> 1 -> 2 -> 1 below 0 -> 5 <- 2: state 5 is found first but lies below the cycle
    "initial 0\n0 0 5\n0 1 1\n1 0 2\n2 0 1\n2 1 5\nterminal 5 0.0\n",
    "initial 1\n1 0 2\n2 0 1\n2 1 3\nterminal 3 0.0\n",  # 1 -> 2 -> 1 through the root
])
def test_enumerate_cycle_below_the_root(text):
    env = parse_dag_text(text)
    for f in (enumerate_mdp, loops.enumerate_mdp_dfs):
        with pytest.raises(CycleDetected, match="^state b'1' lies on a cycle$"):
            f(env)


class _BadParentsEnv(envs.SimpleDagEnv):
    def parents(self, state):
        return []  # forgets every parent


class _LyingParentsEnv(envs.SimpleDagEnv):
    def parents(self, state):
        good = super().parents(state)
        if state == b"sT":
            return [(b"s0", 0)] + list(good)  # s0 action 0 goes to s1, not sT
        return good


class _OutOfRangeParentEnv(envs.SimpleDagEnv):
    def parents(self, state):
        return super().parents(state) + ([(b"s0", 2)] if state == b"sT" else [])  # s0 has 2 actions


def _mismatch(enumerate_fn, env) -> str:
    with pytest.raises(ParentMismatch) as info:
        enumerate_fn(env)
    return str(info.value)


def test_enumerate_parent_mismatch():
    # each message as the per-state enumeration words it
    cases = [
        (_BadParentsEnv, "parents(b's2') is missing the pairs [(b's0', 1)]"),
        (_LyingParentsEnv, "parents(b'sT') lists (b's0', 0) which does not replay to it"),
        (lambda: _ExtraParentEnv(b"s1"),
         "parents(b'sT') lists (b'x', 0) which does not replay to it"),
        (_OutOfRangeParentEnv, "parents(b'sT') lists (b's0', 2) which does not replay to it"),
    ]
    for make, message in cases:
        assert _mismatch(enumerate_mdp, make()) == message
        assert _mismatch(loops.enumerate_mdp_dfs, make()) == message


class _DroppedParentEnv:
    """``env`` whose ``parents`` of the ``k``-th state it is asked about
    lists no pair."""

    def __init__(self, env, k):
        self.env, self.k = env, k

    def __getattr__(self, name):
        return getattr(self.env, name)

    def parents(self, state):
        pairs = list(self.env.parents(state))
        self.k -= 1
        return [] if self.k == -1 else pairs


class _CountingEnv:
    """Forwards every call to ``env``, counts the ``step`` calls and lists,
    in call order, the states that ``n_actions``, ``is_terminal``,
    ``log_target`` and ``parents`` were asked about."""

    def __init__(self, env):
        self.env, self.steps = env, 0
        self.asked = {name: [] for name in ("n_actions", "is_terminal", "log_target", "parents")}

    def __getattr__(self, name):
        if name not in self.asked:
            return getattr(self.env, name)

        def ask(state):
            self.asked[name].append(state)
            return getattr(self.env, name)(state)

        return ask

    def step(self, state, action):
        self.steps += 1
        return self.env.step(state, action)


ENV_ZOO = [
    envs.SimpleDagEnv(),
    envs.HypergridEnv(3, 4),
    envs.TreeBuildEnv(1, 5),
    envs.BitVectorEnv(4),
    envs.WordsEnv(2, 4, "append-either-side"),
]


@pytest.mark.parametrize("env", ENV_ZOO, ids=lambda env: type(env).__name__)
def test_enumerate_steps_each_edge_once(env):
    # parents() lists exactly the discovered pairs, so none is replayed
    counting = _CountingEnv(env)
    m = enumerate_mdp(counting)
    assert counting.steps == m.n_edges


@pytest.mark.parametrize("env", ENV_ZOO, ids=lambda env: type(env).__name__)
def test_enumerate_env_call_budget(env):
    # one is_terminal() and one parents() per state, one log_target() per
    # terminal and one n_actions() per non-terminal state: a repeated call
    # fails here
    counting = _CountingEnv(env)
    m = enumerate_mdp(counting)
    assert np.array_equal(m.terminal, [env.is_terminal(s) for s in m.states])
    asked = {name: sorted(states) for name, states in counting.asked.items()}
    assert asked["is_terminal"] == asked["parents"] == sorted(m.states)
    assert asked["log_target"] == sorted(s for s, t in zip(m.states, m.terminal) if t)
    assert asked["n_actions"] == sorted(s for s, t in zip(m.states, m.terminal) if not t)


@pytest.mark.parametrize("env", ENV_ZOO + [envs.HypergridEnv(4, 4)],
                         ids=lambda env: type(env).__name__)
def test_enumerate_matches_dfs_oracle(env):
    assert_same_tables(enumerate_mdp(env), loops.enumerate_mdp_dfs(env))


# on a layered DAG the discovery frontiers are the levels; a skipping edge,
# like most random DAGs, makes the Kahn pass find them
@given(st.one_of(random_dag_text(), layered_dag_text(), layered_dag_text(skip=True)))
@settings(max_examples=200, deadline=None)
def test_enumerate_matches_dfs_oracle_on_random_dags(text):
    env = parse_dag_text(text)
    assert_same_tables(enumerate_mdp(env), loops.enumerate_mdp_dfs(env))


@pytest.mark.parametrize("env", ENV_ZOO, ids=lambda env: type(env).__name__)
def test_enumerate_budget_like_dfs_oracle(env):
    n = enumerate_mdp(env).n_states
    assert_same_tables(enumerate_mdp(env, max_states=n), loops.enumerate_mdp_dfs(env, n))
    for f in (enumerate_mdp, loops.enumerate_mdp_dfs):
        with pytest.raises(StateBudgetExceeded, match=f"more than {n - 1} reachable states"):
            f(env, max_states=n - 1)


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


@given(random_dag_text(), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_enumerate_missing_parent_message_like_dfs_oracle(text, k):
    # both enumerations ask parents() once per state, in index order
    m = enumerate_mdp(parse_dag_text(text))
    k %= m.n_states
    if k == 0:  # the root has no parent pair to drop
        return
    new = _mismatch(enumerate_mdp, _DroppedParentEnv(parse_dag_text(text), k))
    assert new == _mismatch(loops.enumerate_mdp_dfs, _DroppedParentEnv(parse_dag_text(text), k))
    assert new.startswith(f"parents({m.states[k]!r}) is missing the pairs")


def test_parent_child_duality(mdp_zoo):
    for m in mdp_zoo:
        n_children = sum(len(m.out_edge_ids(s)) for s in range(m.n_states))
        n_parents = sum(len(parents_of(m, s)) for s in range(m.n_states))
        assert n_children == n_parents == m.n_edges


def test_words_append_right_has_one_parent_per_state():
    m = enumerate_mdp(envs.WordsEnv(2, 3, "append-right"))
    assert (np.diff(m.in_offset)[1:] == 1).all()


def test_initial_is_state_zero_and_the_one_parentless_state(mdp_zoo, fig_diamond):
    assert fig_diamond.states[fig_diamond.initial] == b"s0"
    for m in mdp_zoo:
        assert m.initial == 0
        in_degree = np.diff(m.in_offset)
        assert in_degree[0] == 0 and (in_degree[1:] > 0).all()


# ---------------------------------------------------------------------------
# the reversed DAG (loop_oracles.invert_loop)


def test_invert_diamond_structure(fig_diamond):
    inv = loops.invert_loop(fig_diamond)
    assert validate(inv).ok
    # the new root has one action, to the old terminal, which has two
    root = inv.out_edge_ids(inv.initial)
    assert len(root) == 1
    s_t = int(inv.edge_dst[root[0]])
    assert inv.states[s_t] == b"sT"
    assert len(inv.out_edge_ids(s_t)) == 2
    # the old initial is the one terminal
    assert [inv.states[t] for t in inv.terminal_ids] == [b"s0"]


def test_invert_involution_edge_set(mdp_zoo):
    # reversing twice gives back the original states and edges, between a
    # root with one edge to s0 and a terminal with one edge from each
    # original terminal
    for m in mdp_zoo:
        back = loops.invert_loop(loops.invert_loop(m))
        n = m.n_states
        assert back.states[1:-1] == m.states
        inner = {(s + 1, d + 1) for s, d in edge_set(m)}
        ends = {(int(t) + 1, n + 1) for t in m.terminal_ids}
        assert edge_set(back) == inner | ends | {(0, 1)}
        assert back.terminal_ids.tolist() == [n + 1]
        assert validate(back).ok


@given(random_dag_text())
@settings(max_examples=30, deadline=None)
def test_reversed_dag_round_trips_through_dag_text(text):
    # the reversal is a DAG file enumerate_mdp accepts, with the same edges,
    # targets and path counts (states are named by their reversal index)
    inv = loops.invert_loop(enumerate_mdp(parse_dag_text(text)))
    again = enumerate_mdp(parse_dag_text(dump_dag_text(inv)))
    ids = np.array([int(s) for s in again.states])
    assert {(ids[s], ids[d]) for s, d in edge_set(again)} == edge_set(inv)
    assert np.array_equal(inv.log_target[ids], again.log_target)
    assert np.allclose(exact.count_paths(inv)[ids], exact.count_paths(again), atol=1e-12)


def test_invert_counts_total_trajectories(fig_diamond, two_terminal, grid33):
    # paths from the reversed DAG's root through every terminal back to s0
    # total the forward trajectory count
    for m in (fig_diamond, two_terminal, grid33):
        inv = loops.invert_loop(m)
        l_inv = exact.count_paths(inv)
        s0_inv = inv.n_states - 1  # reverse topological reindexing
        total = sum(oracle_path_counts(m)[t] for t in m.terminal_ids)
        assert math.isclose(math.exp(l_inv[s0_inv]), total, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_on_zoo(mdp_zoo):
    for m in mdp_zoo:
        for checked in (m, loops.invert_loop(m)):
            report = validate(checked)
            assert report.ok, report.failure


def _set(name, index, value):
    """A corruption that sets one entry of one table."""
    def corrupt(m):
        table = getattr(m, name).copy()
        table[index] = value
        return replace(m, **{name: table})
    return corrupt


def _edges(rows, terminal=None):
    """A corruption that freezes the states and log targets with the
    (src, action, dst) edge ``rows`` and, if given, the ``terminal`` flags."""
    def corrupt(m):
        return loops._freeze(list(m.states), m.terminal if terminal is None else terminal,
                             m.log_target, rows)
    return corrupt


# the edge 2 -> 4 leaves the terminal state 3 instead, as its action 0
MOVED = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (2, 0, 3), (3, 0, 4)]
# state 2 has no edges, and 1 -> 4 reaches the terminal state 4
CUT = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]


FOREIGN_OUT_0 = "out_offset slice of state 0 contains foreign edges"
FOREIGN_IN_0 = "in_offset slice of state 0 contains foreign edges"

# One corruption of the two-terminal DAG per validate message: the corrupted
# MDP, the message, and the message of the seed's loop (the same except for
# decreasing offsets, which the loop did not check as such).  Its states are
# 0 '0', 1 '1', 2 '2', 3 '3' (terminal), 4 '4' (terminal); its edges are
# 0->1, 0->2, 1->3, 2->3, 2->4.
CORRUPTIONS = [
    (lambda m: replace(m, states=m.states[:1] + m.states[:-1]), "duplicate state encodings", None),
    (lambda m: loops._freeze([], [], [], []), "no states, so no initial state", None),
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
    (_set("edge_action", 2, 2), "state 1 action ids are not dense 0..k-1", None),
    (_edges(MOVED), "terminal state 3 has children", None),
    (_edges(CUT), "non-terminal state 2 has no children", None),
    (_set("in_edges", 0, 3),
     "in_edges is not a permutation of edge ids (parent/child duality)", None),
    (lambda m: replace(m, in_edges=m.in_edges[[1, 0, 2, 3, 4]]),
     "in_offset slice of state 1 contains foreign edges", None),
    # state 2 as a terminal without edges keeps its log target -inf
    (_edges(CUT, [False, False, True, True, True]),
     "terminal state 2 has non-finite log_target", None),
    (_set("log_target", 4, np.nan), "terminal state 4 has non-finite log_target", None),
    (_set("log_target", 1, 0.0), "non-terminal state 1 has a finite log_target", None),
    # state 3 as a non-terminal with an edge keeps its finite log target
    (_edges(MOVED, [False, False, False, False, True]),
     "non-terminal state 3 has a finite log_target", None),
    # without the edge 0 -> 1 (0 -> 2 takes its action 0), state 1 has no
    # parent: a second parentless state
    (lambda m: loops._freeze(list(m.states), m.terminal, m.log_target,
                             [(0, 0, 2), (1, 0, 3), (2, 0, 3), (2, 1, 4)]),
     "state 1 unreachable from the initial state", None),
    # a sixth state with neither parents nor children, as a terminal
    (lambda m: loops._freeze([*m.states, b"9"], [*m.terminal, True], [*m.log_target, 0.0],
                             np.column_stack((m.edge_src, m.edge_action, m.edge_dst))),
     "state 5 unreachable from the initial state", None),
    # an edge into the initial state points down in index order
    (lambda m: loops._freeze(list(m.states), m.terminal, m.log_target,
                             [*zip(m.edge_src, m.edge_action, m.edge_dst), (3, 1, 0)]),
     "acyclicity: edge 3 -> 0 violates topological index order", None),
]


@pytest.mark.parametrize("corrupt, message, loop_message", CORRUPTIONS)
def test_validate_reports_each_invariant_like_the_loop(two_terminal, corrupt, message,
                                                      loop_message):
    bad = corrupt(two_terminal)
    assert validate(bad) == ValidationReport(ok=False, failure=message)
    assert loops.validate_loop(bad) == ValidationReport(ok=False, failure=loop_message or message)


def test_validate_names_the_lowest_state_of_a_group(two_terminal):
    # state 2's actions are not dense, and state 1 is a terminal with
    # children: the later check fails at the lower state, which wins
    bad = _set("terminal", 1, True)(_set("edge_action", 4, 2)(two_terminal))
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
        terminal=m.terminal,
        log_target=m.log_target,
        edge_src=m.edge_dst.copy(),  # reversed edge direction
        edge_action=m.edge_action,
        edge_dst=m.edge_src.copy(),
        out_offset=m.out_offset,
        in_edges=m.in_edges,
        in_offset=m.in_offset,
    )
    report = validate(bad)
    assert not report.ok


def test_validate_rejects_asymmetric_parents(fig_diamond):
    m = fig_diamond
    bad_in = m.in_edges.copy()
    bad_in[[0, 1]] = bad_in[[1, 0]]  # swap two edges across dst groups
    bad = mdp.EnumeratedMdp(
        states=m.states,
        terminal=m.terminal,
        log_target=m.log_target,
        edge_src=m.edge_src,
        edge_action=m.edge_action,
        edge_dst=m.edge_dst,
        out_offset=m.out_offset,
        in_edges=bad_in,
        in_offset=m.in_offset,
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


# the message of each case that names a state, by its decimal id
DAG_STATE_MESSAGES = {
    "initial 0\n0 0 1\n1 0 2\nterminal 1 0.0\nterminal 2 0.0\n":
        "terminal state 1 has outgoing edges",
    "initial 0\n0 0 1\n0 0 2\nterminal 1 0.0\nterminal 2 0.0\n": "duplicate action 0 at state 0",
    "initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\n": "state 2 is neither terminal nor has edges",
    "initial 0\n0 0 1\nterminal 1 0.0\nterminal 5 3.0\n9 0 5\n":
        "state 9 is not reachable from the initial state",
}


@pytest.mark.parametrize(
    "text",
    [
        "0 0 1\nterminal 1 0.0\n",  # missing initial
        "initial 0\n0 0 1\n",  # missing terminals
        "initial 0\ninitial 1\nterminal 0 0.0\n",  # duplicate initial
        "initial 0\n0 5 1\nterminal 1 0.0\n",  # non-dense action ids
        "initial 0\n0 0 1\n1 0 2\nterminal 1 0.0\nterminal 2 0.0\n",  # terminal with edges
        "initial 0\n0 0 1\n0 0 2\nterminal 1 0.0\nterminal 2 0.0\n",  # duplicate action
        "initial 0\n0 0 1\n0 1 2\nterminal 1 0.0\n",  # state 2 is a dead end
        "initial 0\n0 0 1\nterminal 1 0.0\nterminal 5 3.0\n9 0 5\n",  # 9 and 5 unreachable
        "initial 0\n0 zero 1\nterminal 1 0.0\n",  # unparsable token
        "initial 0\n0 0 1\nterminal 1 nan\n",  # non-finite log targets
        "initial 0\n0 0 1\nterminal 1 inf\n",
        "initial 0\n0 0 1\nterminal 1 -inf\n",
    ],
)
def test_dag_text_format_errors(text):
    with pytest.raises(DagFormatError) as info:
        parse_dag_text(text)
    if text in DAG_STATE_MESSAGES:
        assert str(info.value) == DAG_STATE_MESSAGES[text]


@pytest.mark.parametrize("text, line", [
    ("initial 0\n0 0 1\nterminal 1 0.0\nterminal 1 5.0\n", 4),
    # a state is its id written back in decimal, so 01 is state 1 again
    ("terminal 1 0.0\ninitial 0\n0 0 1\n# 1\n\nterminal 01 0.0\n", 6),
])
def test_dag_text_refuses_a_second_terminal_line_for_a_state(text, line):
    with pytest.raises(DagFormatError) as info:
        parse_dag_text(text)
    assert str(info.value) == f"line {line}: duplicate terminal line for state 1"


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
    # the reversed DAG holds the edge multiset, reversed, beside its root's
    # edges (compare by encoding since reversal reindexes states)
    inv = loops.invert_loop(m)
    assert validate(inv).ok
    assert validate(inv) == loops.validate_loop(inv) and validate(m) == loops.validate_loop(m)
    inv_edges = {(inv.states[d], inv.states[s]) for s, d in edge_set(inv) if s != inv.initial}
    assert inv_edges == {(m.states[s], m.states[d]) for s, d in edge_set(m)}


# ---------------------------------------------------------------------------
# batched env calls


class _PerStateOnly:
    """Forwards every attribute of ``env``; its class has no batched calls,
    so enumeration asks the env one state at a time."""

    def __init__(self, env):
        self.env = env

    def __getattr__(self, name):
        return getattr(self.env, name)


GRIDS = [envs.HypergridEnv(d, side) for d, side in ((1, 2), (1, 7), (2, 2), (2, 8), (3, 5), (4, 4))]
BITS = [envs.BitVectorEnv(n, r) for n, r in ((1, 0.0), (2, -1.3), (5, 0.5), (7, 0.0))]


@pytest.mark.parametrize("env", GRIDS + BITS, ids=lambda env: f"{env.dims}x{env.side}"
                         if isinstance(env, envs.HypergridEnv) else f"bits{env.length}")
def test_enumerate_batched_calls_match_per_state_calls(env):
    assert all(hasattr(type(env), name) for name in mdp.BATCHED_CALLS)
    assert not hasattr(type(_PerStateOnly(env)), "batch_children")
    assert_same_tables(enumerate_mdp(env), enumerate_mdp(_PerStateOnly(env)))


class _Recording:
    """Mixed into an env class: lists the states (decoded from their keys)
    each batched call receives and counts the per-state calls."""

    def __init__(self, *args):
        super().__init__(*args)
        self.batches = {name: [] for name in mdp.BATCHED_CALLS}
        self.per_state = 0

    def __getattribute__(self, name):
        if name in ("n_actions", "step", "is_terminal", "log_target", "parents"):
            self.per_state += 1
        return super().__getattribute__(name)

    def batch_children(self, keys):
        self.batches["batch_children"].append(self.batch_states(keys))
        return super().batch_children(keys)

    def batch_parents(self, keys):
        self.batches["batch_parents"].append(self.batch_states(keys))
        return super().batch_parents(keys)

    def batch_log_target(self, keys):
        self.batches["batch_log_target"].append(self.batch_states(keys))
        return super().batch_log_target(keys)


class _RecordingGrid(_Recording, envs.HypergridEnv):
    pass


class _RecordingBits(_Recording, envs.BitVectorEnv):
    pass


@pytest.mark.parametrize("dims, side", [(1, 3), (2, 8), (3, 4)])
def test_enumerate_batched_calls_get_each_state_once(dims, side):
    env = _RecordingGrid(dims, side)
    m = enumerate_mdp(env)
    assert env.per_state == 0
    frontiers = env.batches["batch_children"]
    assert frontiers[0] == [env.initial_state()]
    assert sorted(s for f in frontiers for s in f) == sorted(m.states)
    # a frontier holds the states first stepped to from the one before
    assert len(frontiers) == dims * (side - 1) + 2
    assert env.batches["batch_parents"] == [list(m.states)]
    assert env.batches["batch_log_target"] == [[s for s, t in zip(m.states, m.terminal) if t]]


@pytest.mark.parametrize("length", [1, 3, 6])
def test_enumerate_batched_bit_vector_calls_get_each_state_once(length):
    env = _RecordingBits(length, 0.5)
    m = enumerate_mdp(env)
    assert env.per_state == 0
    frontiers = env.batches["batch_children"]
    # frontier k holds the states with k entries set
    assert [sorted(f) for f in frontiers] == [
        sorted(s for s in m.states if s.count(b"*") == length - k) for k in range(length + 1)]
    assert env.batches["batch_parents"] == [list(m.states)]
    assert env.batches["batch_log_target"] == [[s for s, t in zip(m.states, m.terminal) if t]]


def test_enumerate_refuses_a_key_space_past_the_budget_before_any_frontier():
    env = _RecordingGrid(7, 10)  # 2e7 states
    with pytest.raises(StateBudgetExceeded, match="^more than 1000000 reachable states$"):
        enumerate_mdp(env)
    assert env.batches == {name: [] for name in mdp.BATCHED_CALLS} and env.per_state == 0


class _InflatedGrid(envs.HypergridEnv):
    """Claims one key more than it has reachable states."""

    def __init__(self, *args):
        super().__init__(*args)
        self.key_space += 1


def test_enumerate_checks_that_a_keyed_env_reaches_its_key_space():
    with pytest.raises(mdp.MdpError, match="^the env reached 18 states but has 19 keys$"):
        enumerate_mdp(_InflatedGrid(2, 3))
    # its inflated key space alone would have refused it at 18 states
    with pytest.raises(StateBudgetExceeded):
        enumerate_mdp(_InflatedGrid(2, 3), max_states=18)


class _StrayChildGrid(envs.HypergridEnv):
    """Gives the last child of every frontier the key ``stray``."""

    def __init__(self, stray):
        super().__init__(2, 3)
        self.stray = stray

    def batch_children(self, keys):
        terminal, counts, children = super().batch_children(keys)
        return terminal, counts, np.append(children[:-1], self.stray)


@pytest.mark.parametrize("stray", [-2, -1, 18, 19, 2**62])
def test_enumerate_refuses_a_child_key_off_the_key_space(stray):
    # -1 and 18 would land on the table's last entry, -2 would alias key 16,
    # and 19 and past would index past the table
    with pytest.raises(mdp.MdpError, match=r"^a child's key lies outside 0\.\.17$"):
        enumerate_mdp(_StrayChildGrid(stray))


class _EditedParents:
    """Mixed into an env class: both the batched and the per-state parents
    of each state in ``edits``, the last constructor argument, have their
    first pair replaced by the listed pairs (states as bytes, which the
    batched call encodes with ``batch_keys``)."""

    def __init__(self, *args):
        super().__init__(*args[:-1])
        self.edits = args[-1]

    def parents(self, state):
        pairs = super().parents(state)
        return self.edits[state] + pairs[1:] if state in self.edits else pairs

    def batch_parents(self, keys):
        n_pairs, parents, actions = super().batch_parents(keys)
        n_pairs, states = n_pairs.copy(), self.batch_states(keys)
        for k in sorted(map(states.index, self.edits), reverse=True):
            at, head = int(n_pairs[:k].sum()), self.edits[states[k]]
            n_pairs[k] += len(head) - 1
            parents = np.concatenate((parents[:at], self.batch_keys([p for p, _ in head]),
                                      parents[at + 1:]))
            actions = np.concatenate((actions[:at], np.array([a for _, a in head], dtype=np.int64),
                                      actions[at + 1:]))
        return n_pairs, parents, actions


class _EditedParentsGrid(_EditedParents, envs.HypergridEnv):
    pass


class _EditedParentsBits(_EditedParents, envs.BitVectorEnv):
    pass


HEAD = (b"\x00\x00\x01", 0)  # the first parent pair of (1,1)
FORGED = (b"\x00\x00\x00", 0)  # (0,0) steps to (1,0) by action 0
DROPPED = {b"\x00\x01\x02": []}


@pytest.mark.parametrize("edits, message", [
    (DROPPED, r"parents(b'\x00\x01\x02') is missing the pairs [(b'\x00\x00\x02', 0)]"),
    ({b"\x01\x02\x01": []},
     r"parents(b'\x01\x02\x01') is missing the pairs [(b'\x00\x02\x01', 1)]"),
    ({b"\x00\x01\x01": [FORGED, HEAD]},
     r"parents(b'\x00\x01\x01') lists (b'\x00\x00\x00', 0) which does not replay to it"),
    ({b"\x00\x02\x02": [(b"\x00\x02\x01", 1), (b"\x00\x01\x02", 0)]},
     r"parents(b'\x00\x02\x02') lists (b'\x00\x02\x01', 1) which does not replay to it"),
    # at one state a failed replay comes before a missing pair
    ({b"\x00\x01\x01": [FORGED]},
     r"parents(b'\x00\x01\x01') lists (b'\x00\x00\x00', 0) which does not replay to it"),
    # the first offender in index order
    ({**DROPPED, b"\x00\x01\x01": [FORGED, HEAD]}, None),
    ({b"\x00\x01\x01": [], b"\x00\x02\x02": [(b"\x00\x02\x01", 1), (b"\x00\x01\x02", 0)]},
     None),
])
def test_enumerate_batched_parent_mismatch_messages(edits, message):
    got = _mismatch(enumerate_mdp, _EditedParentsGrid(2, 3, edits))
    assert got == _mismatch(enumerate_mdp, _PerStateOnly(_EditedParentsGrid(2, 3, edits)))
    assert got == _mismatch(loops.enumerate_mdp_dfs, _EditedParentsGrid(2, 3, edits))
    assert got == message or message is None


@pytest.mark.parametrize("edits, message", [
    ({b"*1*": []}, "parents(b'*1*') is missing the pairs [(b'***', 3)]"),
    ({b"101": []}, "parents(b'101') is missing the pairs [(b'*01', 1)]"),
    # replays to another state, and actions out of range, which replay to none
    ({b"*11": [(b"***", 0), (b"**1", 3)]},
     "parents(b'*11') lists (b'***', 0) which does not replay to it"),
    ({b"*11": [(b"**1", 3), (b"*1*", -1)]},
     "parents(b'*11') lists (b'*1*', -1) which does not replay to it"),
    ({b"*11": [(b"**1", 3), (b"*1*", 4)]},
     "parents(b'*11') lists (b'*1*', 4) which does not replay to it"),
    ({b"0**": [(b"***", 6)]}, "parents(b'0**') lists (b'***', 6) which does not replay to it"),
    # the first offender in index order
    ({b"*1*": [], b"*11": [(b"**1", 3), (b"*1*", -1)]}, None),
    ({b"101": [(b"10*", 2)], b"0*1": [(b"***", 0)]}, None),
])
def test_enumerate_batched_parent_mismatch_messages_on_bit_vectors(edits, message):
    got = _mismatch(enumerate_mdp, _EditedParentsBits(3, 0.5, edits))
    assert got == _mismatch(enumerate_mdp, _PerStateOnly(_EditedParentsBits(3, 0.5, edits)))
    assert got == _mismatch(loops.enumerate_mdp_dfs, _EditedParentsBits(3, 0.5, edits))
    assert got == message or message is None


@pytest.mark.parametrize("max_states", [1, 2, 7, 8, 26])
def test_enumerate_batched_budget_message_like_per_state(max_states):
    env = envs.BitVectorEnv(3)
    for f in (enumerate_mdp, lambda env, n: enumerate_mdp(_PerStateOnly(env), n),
              loops.enumerate_mdp_dfs):
        with pytest.raises(StateBudgetExceeded, match=f"^more than {max_states} reachable states$"):
            f(env, max_states)


def test_enumerate_batched_first_offender_is_lowest_in_index_order():
    env = envs.HypergridEnv(2, 3)
    states = enumerate_mdp(env).states
    for a, b in itertools.permutations(states[1:], 2):
        forged = next((states[0], k) for k in range(3) if env.step(states[0], k) != b)
        got = _mismatch(enumerate_mdp, _EditedParentsGrid(2, 3, {a: [], b: [forged]}))
        first = min(a, b, key=states.index)
        assert got.startswith(f"parents({first!r}) " + ("is missing" if first == a else "lists"))


def test_enumerate_batched_accepts_a_declared_pair_that_replays():
    # (1,1) is stepped to from (0,1) by action 0; declaring that twice is fine
    env = _EditedParentsGrid(2, 3, {b"\x00\x01\x01": [HEAD, HEAD]})
    assert_same_tables(enumerate_mdp(env), enumerate_mdp(envs.HypergridEnv(2, 3)))
