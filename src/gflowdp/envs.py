"""Concrete environments, with closed-form path counts where they exist.

Every env speaks the byte-encoded state protocol from ``gflowdp.mdp``.  The
closed forms (``words_n``, ``tree_n``, ``bitvec_n``, the multinomial corner
counts of the hypergrid) double as independent oracles for the generic
path-counting DP.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .mdp import ExplicitDagEnv
from .numerics import NEG_INF


# ---------------------------------------------------------------------------
# four-state diamond with a cross edge: exactly three distinct trajectories


class SimpleDagEnv(ExplicitDagEnv):
    """Fixed 4-state DAG {s0, s1, s2, sT} with edges s0->s1, s0->s2, s2->s1,
    s1->sT, s2->sT, each state encoded by its name (``b"s0"``).  There are
    exactly three trajectories from s0 to sT, whose target is ``target``
    (finite and positive)."""

    def __init__(self, target: float = 1.0):
        if not 0 < target < math.inf:
            raise ValueError("target must be finite and positive")
        super().__init__(
            b"s0",
            [(b"s0", 0, b"s1"), (b"s0", 1, b"s2"), (b"s2", 0, b"s1"),
             (b"s1", 0, b"sT"), (b"s2", 1, b"sT")],
            {b"sT": math.log(target)},
        )


# ---------------------------------------------------------------------------
# hypergrid


def hypergrid_target(coords: Sequence[int], side: int) -> float:
    """Unnormalized target over lattice cells.

    With s_i the ratio of coordinate i to the maximum position side-1:
    0.1 + 0.5*prod(I[0.25 < |s_i-0.5|]) + 2*prod(I[0.3 < |s_i-0.5| < 0.4]).
    Indicator boundaries are strict.
    """
    first = second = True
    for x in coords:
        d = abs(x / (side - 1) - 0.5)
        first = first and d > 0.25
        second = second and 0.3 < d < 0.4
    return _grid_target(first, second)


def _grid_target(first: bool, second: bool) -> float:
    return 0.1 + 0.5 * first + 2.0 * second


class _DigitKeys:
    """A state's key reads its bytes as digits, their indices in ``alphabet``,
    most significant first (wrapping past int64, where enumeration refuses the
    env).  The per-state calls specify the ``batch_*`` calls, so a subclass
    that changes one must change its batched counterpart too."""

    def _set_alphabet(self, alphabet: bytes, width: int) -> None:
        self._bytes = np.frombuffer(alphabet, dtype=np.uint8)  # increasing, for searchsorted
        self._radix = len(alphabet) ** np.arange(width - 1, -1, -1)

    def batch_keys(self, states: Sequence[bytes]) -> np.ndarray:
        rows = np.frombuffer(b"".join(states), dtype=np.uint8).reshape(-1, len(self._radix))
        return np.searchsorted(self._bytes, rows) @ self._radix

    def batch_states(self, keys) -> list[bytes]:
        rows = np.ascontiguousarray(self._bytes[self._digits(keys)[1]])
        return rows.view(f"V{rows.shape[1]}").ravel().tolist()  # void items are bytes

    def _digits(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """The keys as int64 and, as rows, their digits (numpy divides fast by a scalar)."""
        keys = rest = np.asarray(keys, dtype=np.int64)
        digits, base = np.empty((len(self._radix), len(keys)), dtype=np.int64), len(self._bytes)
        for j in range(len(digits) - 1, -1, -1):
            digits[j] = rest - (rest := rest // base) * base
        return keys, digits.T


# the log of each target value, by first + 2 * second
_GRID_LOG_TARGETS = np.array([math.log(_grid_target(f, s)) for s in (0, 1) for f in (0, 1)])


class HypergridEnv(_DigitKeys):
    """d-dimensional grid walk from the origin.

    Each action increments one coordinate that is below side-1; one extra
    stop action moves to a distinct terminal copy of the cell, where the
    target is defined.  State encoding: bytes([done, x_0, ..., x_{d-1}]),
    whose key is that number in base ``side``, below ``2 * side**dims``.
    """

    def __init__(self, dims: int, side: int):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if not 2 <= side <= 255:
            raise ValueError("side must be in [2, 255]")
        self.dims = dims
        self.side = side
        self.key_space = 2 * side**dims
        self._set_alphabet(bytes(range(side)), 1 + dims)
        self._unit = np.roll(self._radix, -1)  # the key step of each action column

    def initial_state(self) -> bytes:
        return bytes(1 + self.dims)

    def n_actions(self, state: bytes) -> int:
        return 0 if state[0] else self.dims + 1 - state.count(self.side - 1, 1)

    def step(self, state: bytes, action: int) -> bytes:
        k = action  # the k-th coordinate below side-1 moves; k == their count stops
        for i in range(1, len(state)):
            if state[i] < self.side - 1:
                if k == 0:
                    out = bytearray(state)
                    out[i] += 1
                    return bytes(out)
                k -= 1
        if k == 0:
            return b"\x01" + state[1:]
        raise IndexError(f"action {action} out of range")

    def is_terminal(self, state: bytes) -> bool:
        return bool(state[0])

    def log_target(self, state: bytes) -> float:
        return math.log(hypergrid_target(state[1:], self.side)) if state[0] else NEG_INF

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        if state[0]:
            lattice = b"\x00" + state[1:]
            return [(lattice, self.n_actions(lattice) - 1)]
        out, below = [], 0  # below: coordinates before i that are below side-1
        for i in range(1, len(state)):
            if state[i]:
                prev = bytearray(state)
                prev[i] -= 1
                out.append((bytes(prev), below))
            below += state[i] < self.side - 1
        return out

    def batch_children(self, keys):
        """(is_terminal, n_actions, children's keys in action order) of the
        states, children one state after another."""
        keys, rows = self._digits(keys)
        done = rows[:, :1] != 0
        moves = np.concatenate((rows[:, 1:] < self.side - 1, ~done), axis=1) & ~done
        return done[:, 0], moves.sum(axis=1), (keys[:, None] + self._unit)[moves]

    def batch_parents(self, keys):
        """(number of pairs, parents' keys, actions) of ``parents`` of the
        states, pairs one state after another."""
        keys, rows = self._digits(keys)
        done = rows[:, :1] != 0
        below = rows[:, 1:] < self.side - 1
        moves = np.concatenate(((rows[:, 1:] > 0) & ~done, done), axis=1)
        # the k-th coordinate below side-1 moves by action k; the stop action
        # comes after all of them
        actions = np.concatenate((np.cumsum(below, axis=1) - below,
                                  below.sum(axis=1, keepdims=True)), axis=1)
        return moves.sum(axis=1), (keys[:, None] - self._unit)[moves], actions[moves]

    def batch_log_target(self, keys) -> np.ndarray:
        """``log_target`` of the states, bit for bit."""
        rows = self._digits(keys)[1]
        d = np.abs(rows[:, 1:] / (self.side - 1) - 0.5)
        first = (d > 0.25).all(axis=1)
        second = ((0.3 < d) & (d < 0.4)).all(axis=1)
        return np.where(rows[:, 0] != 0, _GRID_LOG_TARGETS[first + 2 * second], NEG_INF)


# ---------------------------------------------------------------------------
# words


def words_n(length: int, mode: str) -> int:
    """Closed-form trajectory count per terminal word."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if mode == "append-right":
        return 1
    if mode == "append-either-side":
        return 2 ** (length - 1)
    raise ValueError(f"unknown mode {mode!r}")


class WordsEnv:
    """Builds words of a fixed length letter by letter.

    In ``append-right`` mode each word has a unique build order.  In
    ``append-either-side`` mode letters may be appended or prepended (from
    the empty word the two coincide, so only append actions exist there),
    giving 2**(N-1) build orders per word.  Letters are raw byte values
    0..alphabet-1; the target is uniform over terminal words.
    """

    MODES = ("append-right", "append-either-side")

    def __init__(self, alphabet: int, length: int, mode: str = "append-right"):
        if alphabet < 1 or alphabet > 255:
            raise ValueError("alphabet must be in [1, 255]")
        if length < 1:
            raise ValueError("length must be >= 1")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.alphabet_size = alphabet
        self.length = length
        self.mode = mode

    def initial_state(self) -> bytes:
        return b""

    def n_actions(self, state: bytes) -> int:
        if len(state) >= self.length:
            return 0
        if self.mode == "append-right" or len(state) == 0:
            return self.alphabet_size
        return 2 * self.alphabet_size

    def step(self, state: bytes, action: int) -> bytes:
        if not 0 <= action < self.n_actions(state):
            raise IndexError(f"action {action} out of range")
        if action < self.alphabet_size:
            return state + bytes([action])
        return bytes([action - self.alphabet_size]) + state

    def is_terminal(self, state: bytes) -> bool:
        return len(state) == self.length

    def log_target(self, state: bytes) -> float:
        return 0.0 if self.is_terminal(state) else NEG_INF

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        if len(state) == 0:
            return []
        if len(state) == 1 or self.mode == "append-right":
            return [(state[:-1], state[-1])]
        return [
            (state[:-1], state[-1]),
            (state[1:], self.alphabet_size + state[0]),
        ]


# ---------------------------------------------------------------------------
# bit vectors


def bitvec_n(state: bytes) -> int:
    """k! trajectories for a state with k entries set (non-placeholder)."""
    k = sum(1 for b in state if b != ord("*"))
    return math.factorial(k)


_UNSET = b"*"  # an entry of a BitVectorEnv state that is not set yet


class BitVectorEnv(_DigitKeys):
    """Fills a vector of placeholders with 0/1 values in any order.

    A state with k set entries has exactly k parents and k! build orders, so
    the maximum-entropy backward coincides with the uniform backward
    everywhere.  States are byte strings over ``*01``; the terminal target is
    exp(ones_reward * number_of_ones).  A state's key reads it as a number in
    base 3, with digits 0 for ``*``, 1 for ``0`` and 2 for ``1``.
    """

    def __init__(self, length: int, ones_reward: float = 0.0):
        if length < 1:
            raise ValueError("length must be >= 1")
        if not math.isfinite(ones_reward):
            raise ValueError("ones_reward must be finite")
        self.length = length
        self.ones_reward = float(ones_reward)
        self.key_space = 3**length
        self._set_alphabet(b"*01", length)

    def initial_state(self) -> bytes:
        return _UNSET * self.length

    def n_actions(self, state: bytes) -> int:
        return 2 * state.count(_UNSET)

    def step(self, state: bytes, action: int) -> bytes:
        rank, value = divmod(action, 2)
        if not 0 <= rank < state.count(_UNSET):
            raise IndexError(f"action {action} out of range")
        i = -1
        for _ in range(rank + 1):  # the rank-th unset entry
            i = state.index(_UNSET, i + 1)
        out = bytearray(state)
        out[i] = ord("1") if value else ord("0")
        return bytes(out)

    def is_terminal(self, state: bytes) -> bool:
        return _UNSET not in state

    def log_target(self, state: bytes) -> float:
        if not self.is_terminal(state):
            return NEG_INF
        return self.ones_reward * state.count(ord("1"))

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        out = []
        for i in range(len(state)):
            entry = state[i:i + 1]
            if entry != _UNSET:  # unset again, it is the unset entry of rank "unset before i"
                rank = state.count(_UNSET, 0, i)
                out.append((state[:i] + _UNSET + state[i + 1:], 2 * rank + (entry == b"1")))
        return out

    def batch_children(self, keys):
        """(is_terminal, n_actions, children's keys in action order) of the
        states, children one state after another."""
        keys, digits = self._digits(keys)
        unset = digits == 0
        state, entry = np.nonzero(unset)  # by state, then by rank
        kids = keys[state][:, None] + self._radix[entry][:, None] * np.array([1, 2])
        return ~unset.any(axis=1), 2 * unset.sum(axis=1), kids.ravel()

    def batch_parents(self, keys):
        """(number of pairs, parents' keys, actions) of ``parents`` of the
        states, pairs one state after another."""
        keys, digits = self._digits(keys)
        unset = digits == 0
        state, entry = np.nonzero(~unset)
        value = digits[state, entry]
        actions = 2 * np.cumsum(unset, axis=1)[state, entry] + (value == 2)
        return self.length - unset.sum(axis=1), keys[state] - value * self._radix[entry], actions

    def batch_log_target(self, keys) -> np.ndarray:
        """``log_target`` of the states, bit for bit."""
        digits = self._digits(keys)[1]
        ones = self.ones_reward * (digits == 2).sum(axis=1)
        return np.where((digits == 0).any(axis=1), NEG_INF, ones)


# ---------------------------------------------------------------------------
# unrooted labeled trees


def tree_n(n_nodes: int, edges: Sequence[tuple[int, int]]) -> int:
    """Build orders of a fixed tree, one node attached at a time.

    Sums, over every choice of first node r, the number of orderings that
    respect the rooted-at-r ancestor structure:
    W_r[v] = (D_r[v]-1)! / prod_c D_r[c]! * prod_c W_r[c] with subtree sizes
    D_r.  Exact for trees whose nodes are pairwise distinguishable.
    """
    if n_nodes < 1:
        raise ValueError("tree must have at least one node")
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def rooted(v: int, parent: int) -> tuple[int, int]:
        size, ways = 1, 1
        denom = 1
        for c in adj[v]:
            if c == parent:
                continue
            cs, cw = rooted(c, v)
            size += cs
            ways *= cw
            denom *= math.factorial(cs)
        return size, math.factorial(size - 1) // denom * ways

    return sum(rooted(r, -1)[1] for r in range(n_nodes))


def _tree_centers(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return layer


def _rooted_canonical(labels: Sequence[int], adj: list[list[int]], root: int) -> bytes:
    def rec(v: int, parent: int) -> bytes:
        subs = sorted(rec(c, v) for c in adj[v] if c != parent)
        return b"(" + str(labels[v]).encode() + b"".join(subs) + b")"

    return rec(root, -1)


def canonical_tree(labels: Sequence[int], adj: list[list[int]]) -> bytes:
    """Canonical byte encoding; equal iff the labeled trees are isomorphic.

    Roots at the tree center(s) found by iterative leaf stripping and
    serializes with children ordered by their own canonical form.
    """
    if not labels:
        return b""
    return min(_rooted_canonical(labels, adj, c) for c in _tree_centers(adj))


def parse_tree(state: bytes) -> tuple[list[int], list[list[int]]]:
    """Parse a canonical tree encoding; node ids follow preorder position."""
    labels: list[int] = []
    adj: list[list[int]] = []
    pos = 0

    def parse_node(parent: int) -> None:
        nonlocal pos
        if state[pos : pos + 1] != b"(":
            raise ValueError(f"bad tree encoding at byte {pos}")
        pos += 1
        start = pos
        while state[pos : pos + 1] not in (b"(", b")"):
            pos += 1
        label = int(state[start:pos])
        idx = len(labels)
        labels.append(label)
        adj.append([])
        if parent >= 0:
            adj[parent].append(idx)
            adj[idx].append(parent)
        while state[pos : pos + 1] == b"(":
            parse_node(idx)
        pos += 1  # consume ")"

    if state == b"":
        return [], []
    parse_node(-1)
    if pos != len(state):
        raise ValueError("trailing bytes in tree encoding")
    return labels, adj


class TreeBuildEnv:
    """Grows an unrooted labeled tree one node at a time.

    Actions attach a new node with one of ``labels`` labels to an existing
    node (addressed by its preorder position in the canonical encoding);
    isomorphic labeled trees are merged into one canonical state.  Terminal
    once ``max_nodes`` nodes are placed; the target is uniform.
    """

    def __init__(self, labels: int, max_nodes: int):
        if labels < 1:
            raise ValueError("labels must be >= 1")
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        self.n_labels = labels
        self.max_nodes = max_nodes

    def initial_state(self) -> bytes:
        return b""

    @staticmethod
    def _size(state: bytes) -> int:
        return state.count(ord("("))

    def n_actions(self, state: bytes) -> int:
        k = self._size(state)
        if k >= self.max_nodes:
            return 0
        if k == 0:
            return self.n_labels
        return k * self.n_labels

    def step(self, state: bytes, action: int) -> bytes:
        if not 0 <= action < self.n_actions(state):
            raise IndexError(f"action {action} out of range")
        if state == b"":
            return canonical_tree([action], [[]])
        labels, adj = parse_tree(state)
        node, label = divmod(action, self.n_labels)
        new = len(labels)
        labels.append(label)
        adj.append([node])
        adj[node].append(new)
        return canonical_tree(labels, adj)

    def is_terminal(self, state: bytes) -> bool:
        return self._size(state) == self.max_nodes

    def log_target(self, state: bytes) -> float:
        return 0.0 if self.is_terminal(state) else NEG_INF

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        k = self._size(state)
        if k == 0:
            return []
        labels, adj = parse_tree(state)
        if k == 1:
            return [(b"", labels[0])]
        found: set[tuple[bytes, int]] = set()
        for v in range(k):
            if len(adj[v]) != 1:
                continue
            keep = [u for u in range(k) if u != v]
            remap = {u: i for i, u in enumerate(keep)}
            plabels = [labels[u] for u in keep]
            padj: list[list[int]] = [[] for _ in keep]
            for u in keep:
                for w in adj[u]:
                    if w != v:
                        padj[remap[u]].append(remap[w])
            parent = canonical_tree(plabels, padj)
            # automorphic attach points of the parent are distinct actions;
            # probe them all and keep those that replay to this state
            for node in range(k - 1):
                action = node * self.n_labels + labels[v]
                if self.step(parent, action) == state:
                    found.add((parent, action))
        return sorted(found)
