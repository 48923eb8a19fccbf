import itertools
import math

import numpy as np
import pytest

from gflowdp import exact, mdp
from gflowdp.envs import (
    BitVectorEnv,
    HypergridEnv,
    SimpleDagEnv,
    TreeBuildEnv,
    WordsEnv,
    bitvec_n,
    canonical_tree,
    hypergrid_target,
    parse_tree,
    tree_n,
    words_n,
)

import loop_oracles as loops
from conftest import find_state, oracle_path_counts, tree_n_from_state


# ---------------------------------------------------------------------------
# hypergrid target


def test_target_center_cell():
    assert hypergrid_target([1, 1], 3) == pytest.approx(0.1)
    assert hypergrid_target([3, 3, 3], 7) == pytest.approx(0.1)


def test_target_corner_cell():
    # |s - 0.5| = 0.5 passes the wide indicator, misses the ring
    for coords, side in ([(0, 0), 3], [(2, 2), 3], [(0, 63), 64], [(63, 63), 64]):
        assert hypergrid_target(coords, side) == pytest.approx(0.6)


def test_target_ring_cell_h64():
    # x/63 in (0.8, 0.9) keeps |s - 0.5| inside (0.3, 0.4): both products fire
    assert 0.3 < abs(52 / 63 - 0.5) < 0.4
    assert hypergrid_target([52, 52], 64) == pytest.approx(2.6)
    assert hypergrid_target([52, 11], 64) == pytest.approx(2.6)


def test_target_boundary_is_strict():
    # H=5 puts x=1 exactly at |s - 0.5| = 0.25, which must not count
    assert hypergrid_target([1, 1], 5) == pytest.approx(0.1)


def test_target_matches_numpy_oracle_on_every_cell():
    # every 2-D cell of sides 2..64, and every cell of the 4-D side-10 grid
    cells = [(c, side) for side in range(2, 65) for c in itertools.product(range(side), repeat=2)]
    cells += [(c, 10) for c in itertools.product(range(10), repeat=4)]
    for coords, side in cells:
        assert hypergrid_target(coords, side) == loops.hypergrid_target_np(coords, side), coords
        assert hypergrid_target(bytes(coords), side) == hypergrid_target(coords, side)


@pytest.mark.parametrize("dims, side", [(1, 2), (2, 2), (3, 5), (2, 64)])
def test_hypergrid_calls_match_move_list_oracle_on_every_state(dims, side):
    env, oracle = HypergridEnv(dims, side), loops.HypergridMovesEnv(dims, side)
    for state in mdp.enumerate_mdp(env).states:
        assert env.n_actions(state) == oracle.n_actions(state)
        assert env.log_target(state) == oracle.log_target(state)
        assert env.parents(state) == oracle.parents(state)
        assert all(type(p) is bytes and type(a) is int for p, a in env.parents(state))
        # terminal states too: their moves land on cells no walk reaches
        for action in range(dims + 2):
            try:
                expected = oracle.step(state, action)
            except IndexError:
                with pytest.raises(IndexError, match=f"action {action} out of range"):
                    env.step(state, action)
            else:
                assert env.step(state, action) == expected


@pytest.mark.parametrize("length", [1, 2, 3, 5])
def test_bitvec_calls_match_unset_list_oracle_on_every_state(length):
    env, oracle = BitVectorEnv(length, 0.5), loops.BitVectorUnsetEnv(length, 0.5)
    # the oracle inherits the batched calls, so enumerate it one state at a time
    for state in loops.enumerate_mdp_dfs(oracle).states:
        assert env.n_actions(state) == oracle.n_actions(state)
        assert env.is_terminal(state) == oracle.is_terminal(state)
        assert env.parents(state) == oracle.parents(state)
        assert all(type(p) is bytes and type(a) is int for p, a in env.parents(state))
        for action in range(env.n_actions(state)):
            assert env.step(state, action) == oracle.step(state, action)


def test_hypergrid_out_of_range_action_raises():
    env = HypergridEnv(2, 3)
    for state in (bytes([0, 0, 0]), bytes([0, 2, 1]), bytes([0, 2, 2]), bytes([1, 2, 2])):
        for action in (env.dims + 1, 7, -1):
            with pytest.raises(IndexError, match=f"action {action} out of range"):
                env.step(state, action)


@pytest.mark.parametrize("env", [BitVectorEnv(3), WordsEnv(2, 3), WordsEnv(2, 3, "append-either-side"),
                                 TreeBuildEnv(2, 3), SimpleDagEnv()],
                         ids=["bits", "words", "words-either", "tree", "diamond"])
def test_out_of_range_action_raises(env):
    # as on the hypergrid: no action outside 0..n_actions-1 aliases a legal one
    for state in mdp.enumerate_mdp(env).states:
        for action in (-2, -1, env.n_actions(state), env.n_actions(state) + 1, 7):
            with pytest.raises(IndexError, match=f"action {action} out of range"):
                env.step(state, action)


def test_hypergrid_lattice_counts_are_multinomial(grid33):
    l = exact.count_paths(grid33)
    for s, enc in enumerate(grid33.states):
        if enc[0]:
            continue  # terminal copies mirror their lattice cell
        x, y = enc[1], enc[2]
        expect = math.comb(x + y, x)
        assert math.exp(l[s]) == pytest.approx(expect, rel=1e-12)


def test_hypergrid_d3():
    m = mdp.enumerate_mdp(HypergridEnv(3, 2))
    assert m.n_states == 16  # 8 lattice + 8 copies
    assert mdp.validate(m).ok
    l = exact.count_paths(m)
    full = find_state(m, bytes([0, 1, 1, 1]))
    assert math.exp(l[full]) == pytest.approx(6.0)  # 3! interleavings


# ---------------------------------------------------------------------------
# words


def test_words_n_closed_form():
    assert words_n(1, "append-either-side") == 1
    assert words_n(5, "append-either-side") == 16
    assert words_n(4, "append-right") == 1
    with pytest.raises(ValueError):
        words_n(3, "prepend-only")


@pytest.mark.parametrize("mode", ["append-right", "append-either-side"])
def test_words_counts_match_dp(mode):
    m = mdp.enumerate_mdp(WordsEnv(2, 4, mode))
    l = exact.count_paths(m)
    expect = words_n(4, mode)
    for t in m.terminal_ids:
        assert math.exp(l[t]) == pytest.approx(expect, rel=1e-9)
    assert len(m.terminal_ids) == 2**4


def test_words_single_letter_alphabet():
    m = mdp.enumerate_mdp(WordsEnv(1, 6, "append-either-side"))
    l = exact.count_paths(m)
    assert math.exp(l[m.terminal_ids[0]]) == pytest.approx(2**5, rel=1e-9)


# ---------------------------------------------------------------------------
# bit vectors


def test_bitvec_n_values():
    assert bitvec_n(b"***") == 1
    assert bitvec_n(b"*1*") == 1
    # three set entries: enumerate the set orders by brute force
    orders = set(itertools.permutations(range(3)))
    assert bitvec_n(b"101") == len(orders) == 6


def test_bitvec_counts_match_dp(bitvec3):
    l = exact.count_paths(bitvec3)
    for s, enc in enumerate(bitvec3.states):
        assert math.exp(l[s]) == pytest.approx(bitvec_n(enc), rel=1e-9)


def test_bitvec_maxent_backward_is_uniform(bitvec3):
    l = exact.count_paths(bitvec3)
    q_max = exact.backward_maxent(bitvec3, l)
    q_uni = exact.backward_uniform(bitvec3)
    assert np.allclose(q_max, q_uni, atol=1e-12)


# ---------------------------------------------------------------------------
# trees


def test_tree_n_single_node():
    assert tree_n(1, []) == 1


def test_tree_n_reference_trees():
    # star with three leaves, and a path of four nodes
    assert tree_n(4, [(0, 1), (0, 2), (0, 3)]) == 12
    assert tree_n(4, [(1, 0), (0, 3), (3, 2)]) == 8


def test_tree_n_path_lengths():
    # a path of k nodes has 2^(k-1) build orders: k roots, binary growth
    for k in range(2, 7):
        edges = [(i, i + 1) for i in range(k - 1)]
        assert tree_n(k, edges) == 2 ** (k - 1)


def test_canonical_tree_merges_isomorphic_labelings():
    a = canonical_tree([0, 1, 2], [[1, 2], [0], [0]])
    b = canonical_tree([2, 1, 0], [[2], [2], [0, 1]])  # same star relabeled
    assert a == b
    labels, adj = parse_tree(a)
    assert sorted(labels) == [0, 1, 2]
    assert sorted(len(x) for x in adj) == [1, 1, 2]


def test_tree_env_counts_match_closed_form_on_distinct_labels():
    env = TreeBuildEnv(4, 4)
    m = mdp.enumerate_mdp(env)
    assert mdp.validate(m).ok
    l = exact.count_paths(m)
    checked = 0
    for s, enc in enumerate(m.states):
        labels, _ = parse_tree(enc)
        if labels and len(set(labels)) == len(labels):
            checked += 1
            assert math.exp(l[s]) == pytest.approx(tree_n_from_state(enc), rel=1e-9)
    assert checked > 20


def test_tree_env_five_node_child_state_backward():
    """The 5-node tree whose parents are the 12-order star and the 8-order
    paths: the maximum-entropy backward splits 12:8:8 over its three parent
    pairs, so it is strictly non-uniform."""
    env = TreeBuildEnv(5, 5)
    m = mdp.enumerate_mdp(env)
    l = exact.count_paths(m)
    mid = canonical_tree([0, 1, 2, 3, 4], [[1, 2, 3], [0], [0], [0, 4], [3]])
    sid = find_state(m, mid)
    ids = m.in_edge_ids(sid)
    assert len(ids) == 3
    parent_counts = sorted(round(math.exp(l[p])) for p in m.edge_src[ids])
    assert parent_counts == [8, 8, 12]
    probs = sorted(np.exp(exact.backward_maxent(m, l)[ids]))
    assert np.allclose(probs, [8 / 28, 8 / 28, 12 / 28], atol=1e-12)
    uniform = np.exp(exact.backward_uniform(m)[ids])
    assert np.allclose(uniform, 1 / 3, atol=1e-12)
    assert not np.allclose(probs, uniform, atol=1e-3)


def test_unlabeled_tree_env_small(tree_env_mdp):
    # trees on 1..5 unlabeled nodes: 1+1+1+2+3 shapes, plus the empty state
    assert tree_env_mdp.n_states == 9
    counts = oracle_path_counts(tree_env_mdp)
    l = exact.count_paths(tree_env_mdp)
    for s in range(tree_env_mdp.n_states):
        assert math.exp(l[s]) == pytest.approx(counts[s], rel=1e-9)


# ---------------------------------------------------------------------------
# fixed-node edge-set building: k placed edges give k! orders


class _EdgeSetEnv:
    """Adds edges from a fixed allowed set in any order; states are frozensets."""

    def __init__(self, allowed, total):
        self.allowed = tuple(allowed)
        self.total = total

    def _decode(self, state):
        return frozenset(i for i, b in enumerate(state) if b == ord("1"))

    def _encode(self, chosen):
        return bytes(ord("1") if i in chosen else ord("0") for i in range(len(self.allowed)))

    def initial_state(self):
        return self._encode(frozenset())

    def _remaining(self, state):
        return [i for i in range(len(self.allowed)) if state[i] == ord("0")]

    def n_actions(self, state):
        return len(self._remaining(state))

    def step(self, state, action):
        chosen = set(self._decode(state))
        chosen.add(self._remaining(state)[action])
        return self._encode(chosen)

    def is_terminal(self, state):
        return len(self._decode(state)) == self.total

    def log_target(self, state):
        return 0.0 if self.is_terminal(state) else float("-inf")

    def parents(self, state):
        out = []
        for i in self._decode(state):
            prev = bytearray(state)
            prev[i] = ord("0")
            out.append((bytes(prev), self._remaining(bytes(prev)).index(i)))
        return out


def test_fixed_node_dag_building_counts_are_factorial():
    # four nodes, all six undirected slots, stop after placing three edges
    env = _EdgeSetEnv(allowed=list(itertools.combinations(range(4), 2)), total=3)
    m = mdp.enumerate_mdp(env)
    l = exact.count_paths(m)
    for s, enc in enumerate(m.states):
        k = enc.count(ord("1"))
        assert math.exp(l[s]) == pytest.approx(math.factorial(k), rel=1e-9)


# ---------------------------------------------------------------------------
# parameters


def test_env_parameter_validation():
    with pytest.raises(ValueError):
        HypergridEnv(2, 1)
    with pytest.raises(ValueError):
        WordsEnv(0, 3)
    with pytest.raises(ValueError):
        BitVectorEnv(0)
    with pytest.raises(ValueError):
        TreeBuildEnv(1, 0)


def assert_batched_calls_match_per_state_calls(env, states):
    """``states`` lists every reachable state of ``env``: their keys are a
    permutation of ``0..key_space-1`` that ``batch_states`` decodes back, and
    the batched calls on them, decoded through ``batch_states``, equal the
    per-state calls."""
    keys = env.batch_keys(states)
    assert keys.dtype == np.int64 and sorted(keys.tolist()) == list(range(env.key_space))
    assert env.batch_states(keys) == states
    terminal, n_children, children = env.batch_children(keys)
    assert terminal.tolist() == [env.is_terminal(s) for s in states]
    assert n_children.tolist() == [0 if env.is_terminal(s) else env.n_actions(s) for s in states]
    children = env.batch_states(children)
    assert children == [env.step(s, a) for s, k in zip(states, n_children) for a in range(k)]
    n_pairs, parents, actions = env.batch_parents(keys)
    parents = env.batch_states(parents)
    pairs = [env.parents(s) for s in states]
    assert n_pairs.tolist() == [len(p) for p in pairs]
    assert list(zip(parents, actions.tolist())) == [pair for p in pairs for pair in p]
    assert all(type(p) is bytes for p in children + parents)
    # bit for bit, -inf off the terminals included
    bits = env.batch_log_target(keys).view(np.int64)
    assert bits.tolist() == np.array([env.log_target(s) for s in states]).view(np.int64).tolist()


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_hypergrid_batched_calls_match_per_state_calls_on_every_state(dims):
    for side in range(2, 11):
        states = [bytes((done,) + cell) for done in (0, 1)
                  for cell in itertools.product(range(side), repeat=dims)]
        assert_batched_calls_match_per_state_calls(HypergridEnv(dims, side), states)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7])
def test_bitvec_batched_calls_match_per_state_calls_on_every_state(length):
    states = [bytes(entries) for entries in itertools.product(b"*01", repeat=length)]
    for ones_reward in (0.0, 0.5, -1.3):  # -1.3 * 0 is -0.0
        assert_batched_calls_match_per_state_calls(BitVectorEnv(length, ones_reward), states)

