"""Acyclic deterministic MDP core: enumeration and validation.

Environments expose states as opaque byte encodings behind the ``Env``
protocol.  ``enumerate_mdp`` walks the reachable graph breadth first,
numbers the states level by level (longest-path depth from the initial
state, terminals last), and builds the flat edge tables (``EnumeratedMdp``)
that every solver in this package consumes in that numbering.  When every
edge goes from one discovery frontier to the next, as on a hypergrid, the
frontiers are the levels; otherwise a Kahn pass finds the levels and any
cycle.  Each level is then a range of indices, ``EnumeratedMdp.levels``,
that the DPs read as slices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, filterfalse
from types import SimpleNamespace
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from .numerics import padded_layout

DEFAULT_MAX_STATES = 1_000_000


class MdpError(Exception):
    """Base class for structural MDP errors."""


class CycleDetected(MdpError):
    """The env's steps lead from a state back to itself."""


class StateBudgetExceeded(MdpError):
    """Enumeration discovered more reachable states than allowed."""


class ParentMismatch(MdpError):
    """An env's parents() disagrees with its step() function."""


class DagFormatError(MdpError):
    """Malformed plain-text DAG spec."""


class Env(Protocol):
    """Contract for acyclic deterministic environments.

    States are canonical byte strings; two states are the same iff their
    encodings are byte-equal.  Actions are dense local indices
    ``0..n_actions(s)-1``.  ``step`` must be deterministic and acyclic,
    ``log_target`` must be finite exactly on terminal states, and
    ``parents(step(s, a))`` must contain ``(s, a)`` for every legal pair.

    For ``enumerate_mdp`` an env may also answer F states at once through five
    calls on int64 keys that agree with the per-state calls, the specification.
    Such an env has a ``key_space`` and its reachable states the keys ``0..key_space-1``,
    one each, which ``batch_keys(states)`` and ``batch_states(keys)`` give and read.

    - ``batch_children(keys) -> (terminal, n_children, child_keys)``: F
      ``is_terminal`` flags, F child counts (0 at a terminal), and the keys
      of every state's ``step`` results in action order, state after state;
    - ``batch_parents(keys) -> (n_pairs, parent_keys, actions)``: F counts of
      ``parents`` pairs, then the pairs' keys and actions, state after state;
    - ``batch_log_target(keys)``: the F ``log_target`` values.

    They are looked up on the env's class, not the instance, so a wrapper
    that forwards attributes per instance is asked one state at a time.  An
    env whose class lacks any of them goes through ``_PerState``, which
    makes the per-state calls in batch order.
    """

    def initial_state(self) -> bytes: ...

    def n_actions(self, state: bytes) -> int: ...

    def step(self, state: bytes, action: int) -> bytes: ...

    def is_terminal(self, state: bytes) -> bool: ...

    def log_target(self, state: bytes) -> float: ...

    def parents(self, state: bytes) -> Sequence[tuple[bytes, int]]: ...


@dataclass(frozen=True)
class EnumeratedMdp:
    """A reachable acyclic MDP frozen into topologically indexed edge tables.

    Edges are sorted by ``(src, action)``; ``out_offset`` gives the CSR slice
    of each state's out-edges.  ``in_edges`` lists the same edge ids grouped
    by destination (sorted by ``(src, action)`` within each group) with CSR
    offsets ``in_offset``.  State 0 is the one initial state, from which
    every state is reachable.  ``enumerate_mdp`` numbers the states level by
    level, so its levels are the runs of ``levels``; those runs and the DPs'
    tables for them (``in_runs``, ``out_runs``) are derived from the edge
    tables on first use and cached on the instance.
    """

    states: tuple[bytes, ...]
    terminal: np.ndarray  # bool [S]
    log_target: np.ndarray  # float [S], -inf off terminal states
    edge_src: np.ndarray  # int [E]
    edge_action: np.ndarray  # int [E]
    edge_dst: np.ndarray  # int [E]
    out_offset: np.ndarray  # int [S+1]
    in_edges: np.ndarray  # int [E]
    in_offset: np.ndarray  # int [S+1]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def initial(self) -> int:
        """Always 0: ``validate`` requires every edge to go up in index, so
        state 0 has no parents, and every other state must have one."""
        return 0

    @property
    def terminal_ids(self) -> np.ndarray:
        return np.flatnonzero(self.terminal)

    def out_slice(self, s: int) -> slice:
        return slice(int(self.out_offset[s]), int(self.out_offset[s + 1]))

    def out_edge_ids(self, s: int) -> np.ndarray:
        return np.arange(self.out_offset[s], self.out_offset[s + 1])

    def in_edge_ids(self, s: int) -> np.ndarray:
        return self.in_edges[self.in_offset[s] : self.in_offset[s + 1]]

    @cached_property
    def levels(self) -> list[int]:
        """Bounds ``0 = b[0] < b[1] < ... = n_states`` of the longest runs of
        states ``b[k]:b[k + 1]`` with no edge inside a run and no mix of
        terminal and non-terminal states, so a DP that reads only parents
        (or only children) updates a run at once.  On ``enumerate_mdp``'s
        numbering they are the levels, then all terminals; on other tables,
        such as a hand-built reversed DAG, they may be shorter."""
        n = self.n_states
        last = np.full(n, -1)  # each state's highest parent, or the state before a terminal flip
        live = np.diff(self.in_offset) > 0
        last[live] = np.maximum.reduceat(self.edge_src[self.in_edges], self.in_offset[:-1][live])
        flips = np.flatnonzero(self.terminal[1:] != self.terminal[:-1]) + 1
        last[flips] = flips - 1
        reach = np.maximum.accumulate(last)
        bounds = [0]
        while (a := bounds[-1]) < n:  # a run ends where a state's highest parent lies in it
            bounds.append(a + 1 + int(np.searchsorted(reach[a + 1:], a)))
        return bounds

    @cached_property
    def in_runs(self) -> list[tuple]:  # for exact.push_forward
        return padded_runs(self.in_offset, self.levels)

    @cached_property
    def out_runs(self) -> list[tuple]:  # for exact.pull_backward
        return padded_runs(self.out_offset, self.levels)

    @cached_property
    def in_rank(self) -> np.ndarray:  # each edge's position in in_edges, for learner's loss
        rank = np.empty_like(self.in_edges)
        rank[self.in_edges] = np.arange(self.n_edges)
        return rank

    @cached_property
    def out_layout(self) -> tuple:  # for learner's forward policy
        """``padded_logsumexp``'s ``(starts, lengths, slots, heads)`` on the live out-segments."""
        degree = np.diff(self.out_offset)
        starts, slots, heads = padded_layout(degree[degree > 0])
        return starts, degree[degree > 0], np.flatnonzero(slots), heads

    @cached_property
    def sampler_tables(self) -> SimpleNamespace:  # for learner's behaviour policy
        """Of the nonempty out-segments: ``caps``, their last edges;
        ``edge_degree``, each edge's segment length as float; and
        ``cdf_steps``, for j = 1, 2, ..., the j-th edges ``at`` of the
        segments longer than j, as ``(at, at - 1)``."""
        degree = np.diff(self.out_offset)
        at = [self.out_offset[:-1][degree > j] + j for j in range(1, int(degree.max(initial=0)))]
        return SimpleNamespace(
            caps=self.out_offset[1:][degree > 0] - 1, edge_degree=degree[self.edge_src].astype(float),
            cdf_steps=[(a, a - 1) for a in at])

    def with_log_target(self, log_target: np.ndarray) -> "EnumeratedMdp":
        log_target = np.asarray(log_target, dtype=float)
        if log_target.shape != (self.n_states,):
            raise ValueError("log_target shape mismatch")
        return replace(self, log_target=log_target)


def segment_positions(offset: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``offset[r]:offset[r + 1]`` of every row in ``rows``, row
    after row, and each row's length."""
    rows = np.asarray(rows, dtype=np.int64)
    first = offset[rows]
    lengths = offset[rows + 1] - first
    starts = np.cumsum(lengths) - lengths
    return np.repeat(first - starts, lengths) + np.arange(int(lengths.sum())), lengths


def padded_runs(offset: np.ndarray, levels: list[int]) -> list[tuple]:
    """``(a, b, lo, hi, starts, lengths, slots, heads)`` for each run ``a:b``
    of ``levels`` whose segments in the CSR ``offset`` (each state's in-edges
    or its out-edges) fill the nonempty positions ``lo:hi``.

    The kernel's tables for the run are cut from one
    ``numerics.padded_layout`` of all states' segments, ``starts`` counted
    from ``lo`` and ``slots`` as indices, so a run fills the window
    ``:hi + b`` of its padded array.
    """
    lengths = np.diff(offset)
    starts, slots, heads = padded_layout(lengths)
    slots = np.flatnonzero(slots)
    cuts = offset[levels].tolist()
    return [(a, b, lo, hi, starts[a:b] - lo, lengths[a:b], slots[lo:hi], heads[a:b])
            for a, b, lo, hi in zip(levels, levels[1:], cuts, cuts[1:]) if lo < hi]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failure: str | None = None


class _PerState:
    """The batched calls of ``Env`` made through the env's per-state methods,
    one state at a time in batch order; keys number states in order of first sight."""

    def __init__(self, env: Env):
        self.env, self.states, self.key_of, self.key_space = env, [], {}, 0

    def batch_keys(self, states):
        self.states += filterfalse(self.key_of.__contains__, dict.fromkeys(states))
        self.key_of.update(zip(self.states[self.key_space:], count(self.key_space)))
        self.key_space = len(self.states)
        return np.fromiter(map(self.key_of.__getitem__, states), dtype=np.int64, count=len(states))

    def batch_states(self, keys):
        return list(map(self.states.__getitem__, keys.tolist()))

    def batch_children(self, keys):
        env, terminal, counts, children = self.env, [], [], []
        for st in self.batch_states(keys):
            terminal.append(env.is_terminal(st))
            counts.append(0 if terminal[-1] else env.n_actions(st))
            children += [env.step(st, a) for a in range(counts[-1])]
        return terminal, counts, self.batch_keys(children)

    def batch_parents(self, keys):
        pairs = [list(self.env.parents(st)) for st in self.batch_states(keys)]
        flat = [(bytes(p), a) for ps in pairs for p, a in ps]
        return list(map(len, pairs)), self.batch_keys([p for p, _ in flat]), [a for _, a in flat]

    def batch_log_target(self, keys):
        return [float(self.env.log_target(st)) for st in self.batch_states(keys)]


BATCHED_CALLS = ("batch_keys", "batch_states", "batch_children", "batch_parents",
                 "batch_log_target")


def enumerate_mdp(env: Env, max_states: int = DEFAULT_MAX_STATES) -> EnumeratedMdp:
    """Enumerate the reachable states of ``env`` in level order.

    States are discovered frontier by frontier from the initial state, each
    frontier's new children in order of first appearance (action order
    within a state).  They are numbered by (terminal last, longest-path
    depth from the initial state, discovery id), so the initial state gets
    index 0, every edge goes from a lower to a higher index, and each level
    is a run of ``EnumeratedMdp.levels``; the frontiers are the levels when
    every edge goes from one frontier to the next, else a Kahn pass finds
    them (``_level_order``).  Deterministic for a deterministic env.  Every
    pair that ``env.parents`` omits is an error, and so is a declared pair
    that enumeration did not step itself (say, one from an unreachable
    state) unless ``env.step`` replays it to the state.

    The env answers through the batched calls of ``Env``: one
    ``batch_children`` per discovery frontier, then one ``batch_log_target``
    on all terminals and one ``batch_parents`` on all states, both in index
    order; a table indexed by key holds each state's discovery id.  An env
    whose class lacks them is asked one state at a time: per state one
    ``is_terminal``, one ``n_actions`` unless terminal, one ``parents`` and,
    if terminal, one ``log_target``; per edge one ``step``.  Only a declared
    pair that enumeration did not step costs one more ``step``, its replay.

    Raises CycleDetected, StateBudgetExceeded, ParentMismatch, or MdpError.
    """
    calls = env if all(hasattr(type(env), name) for name in BATCHED_CALLS) else _PerState(env)
    frontier = calls.batch_keys([env.initial_state()])
    ids = np.full(calls.key_space + 1, -1)  # discovery id by key; the last entry stays -1
    ids[frontier], n, found = 0, 1, [frontier]  # found: keys by discovery id, frontier by frontier
    terminal, n_kids, kids = [], [], []  # per frontier; kids are child discovery ids
    while len(frontier):
        if calls.key_space > max(max_states, 1):  # keyed: at once; per-state: the states found
            raise StateBudgetExceeded(f"more than {max_states} reachable states")
        term, counts, children = calls.batch_children(frontier)
        if len(children) and not 0 <= children.min() <= children.max() < calls.key_space:
            raise MdpError(f"a child's key lies outside 0..{calls.key_space - 1}")
        if len(ids) <= calls.key_space:  # a per-state env's key space grows
            ids = np.pad(ids, (0, calls.key_space + len(ids)), constant_values=-1)
        # the next frontier: the new children, in order of first appearance; each new
        # key's entry is set above every position, then lowered to its least one
        unseen = (ids[children] < 0).nonzero()[0]
        new = children[unseen]
        ids[new] = len(children)
        np.minimum.at(ids, new, unseen)
        frontier = new[ids[new] == unseen]
        ids[frontier] = np.arange(n, n := n + len(frontier))
        found.append(frontier)
        kids.append(ids[children])
        terminal.append(np.asarray(term, dtype=bool))
        n_kids.append(np.asarray(counts, dtype=np.int64))

    if n != calls.key_space:
        raise MdpError(f"the env reached {n} states but has {calls.key_space} keys")
    dst = np.concatenate(kids)
    offset = np.concatenate(([0], np.cumsum(np.concatenate(n_kids))))  # of each id's out-edges
    terminal = np.concatenate(terminal)
    order = _level_order(offset, dst, np.repeat(np.arange(len(found)), list(map(len, found))),
                         terminal, lambda i: calls.batch_states(np.concatenate(found)[[i]])[0])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    keys = np.concatenate(found)[order]
    terminal = terminal[order]
    log_target = np.full(n, -np.inf)
    inner = n - int(terminal.sum())  # the terminals are the last block
    log_target[inner:] = calls.batch_log_target(keys[inner:])
    pos, counts = segment_positions(offset, order)  # by source rank, then action
    out_offset = np.concatenate(([0], np.cumsum(counts)))
    edge_dst = rank[dst[pos]]
    mdp = EnumeratedMdp(
        states=tuple(calls.batch_states(keys)),
        terminal=terminal,
        log_target=log_target,
        edge_src=np.repeat(np.arange(n), counts),
        edge_action=np.arange(len(pos)) - np.repeat(out_offset[:-1], counts),
        edge_dst=edge_dst,
        out_offset=out_offset,
        in_edges=np.argsort(edge_dst, kind="stable"),  # by (dst, src, action)
        in_offset=np.concatenate(([0], np.cumsum(np.bincount(edge_dst, minlength=n)))),
    )
    n_pairs, parents, actions = calls.batch_parents(keys)
    # a key out of range reads the last entry, -1: unreached
    parent_rank = np.append(rank, n)[ids[np.clip(parents, -1, len(ids) - 1)]]
    _check_parents(env, calls, mdp, n_pairs, parent_rank, parents, actions)
    return mdp


def _level_order(offset: np.ndarray, dst: np.ndarray, frontier: np.ndarray,
                 terminal: np.ndarray, state: Callable[[int], bytes]) -> np.ndarray:
    """Discovery ids sorted by (terminal last, longest-path depth, id) for
    the edges ``id -> dst`` (``offset``: CSR of each id's out-edges), with
    ``frontier`` the discovery frontier of each id, ``state(id)`` its bytes.

    When every edge goes from frontier k to frontier k + 1, every path to a
    state has the same length, so its frontier is its depth.  Only when an
    edge skips a frontier or goes back does one Kahn pass (Kahn 1962),
    seeded with the states without parents, find the depths.  A state it
    leaves over lies on or below a cycle: walking back through left-over
    parents from the lowest one reaches a cycle, and CycleDetected names the
    cycle's lowest id."""
    n, counts = len(frontier), np.diff(offset)
    if np.array_equal(frontier[dst], np.repeat(frontier + 1, counts)):
        return np.lexsort((frontier, terminal))
    waiting = np.bincount(dst, minlength=n)  # parents not yet placed
    depth = np.zeros(n, dtype=np.int64)
    ready, level = np.flatnonzero(waiting == 0), 0
    while ready.size:
        depth[ready] = level
        # with return_counts, np.unique does not import numpy.ma
        children, hits = np.unique(dst[segment_positions(offset, ready)[0]], return_counts=True)
        waiting[children] -= hits
        ready, level = children[waiting[children] == 0], level + 1
    if (left := waiting > 0).any():
        src = np.repeat(np.arange(n), counts)
        stuck = left[src] & left[dst]
        parent = np.full(n, -1)
        np.maximum.at(parent, dst[stuck], src[stuck])
        at, s = {}, int(np.argmax(left))
        while s not in at:
            at[s] = len(at)
            s = int(parent[s])
        raise CycleDetected(f"state {state(min(list(at)[at[s]:]))!r} lies on a cycle")
    return np.lexsort((depth, terminal))


def _check_parents(env: Env, calls, mdp: EnumeratedMdp, n_pairs: np.ndarray,
                   parent_rank: np.ndarray, parents: np.ndarray, actions: Sequence[int]) -> None:
    """Raise ParentMismatch at the first state, in index order, whose declared
    pairs (``n_pairs[s]`` for each state s in turn: parent key ``parents[i]``
    at index ``parent_rank[i]``, n when unreached, and ``actions[i]``) either
    omit a stepped edge or hold one that was not stepped and does not replay
    through ``env.step``; at one state, a failed replay comes first."""
    n, child = mdp.n_states, np.repeat(np.arange(mdp.n_states), n_pairs)
    offset = np.append(mdp.out_offset, mdp.n_edges)  # state n has no edges
    action = np.asarray(actions, dtype=np.int64)
    edge = offset[parent_rank] + action
    stepped = (action >= 0) & (edge < offset[parent_rank + 1])
    stepped[stepped] = mdp.edge_dst[edge[stepped]] == child[stepped]
    declared = np.zeros(mdp.n_edges, dtype=bool)
    declared[edge[stepped]] = True
    worst = int(mdp.edge_dst[~declared].min(initial=n))  # the first state missing a pair
    for i in np.flatnonzero(~stepped & (child <= worst)).tolist():
        state, parent = mdp.states[child[i]], calls.batch_states(parents[i:i + 1])[0]
        try:
            replayed = env.step(parent, actions[i])
        except IndexError:  # an action out of range replays to no state
            replayed = None
        if replayed != state:
            raise ParentMismatch(f"parents({state!r}) lists ({parent!r}, {actions[i]}) "
                                 "which does not replay to it")
    if worst < n:
        lost = np.flatnonzero(~declared & (mdp.edge_dst == worst))
        missing = sorted(zip([mdp.states[s] for s in mdp.edge_src[lost].tolist()],
                             mdp.edge_action[lost].tolist()))
        raise ParentMismatch(f"parents({mdp.states[worst]!r}) is missing the pairs {missing}")


def _first(*checks: tuple[np.ndarray, str]) -> str | None:
    """``message.format(i)`` for the lowest index ``i`` failing one of the
    ``(bad, message)`` checks (the earlier check at a tie), or None."""
    hits = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    i, k = min(hits, default=(0, None))
    return None if k is None else checks[k][1].format(i)


def _violations(mdp: EnumeratedMdp) -> Iterator[str | None]:
    """The first violation of each group of invariants in checking order, or
    None where a group holds; each group relies on the groups before it."""
    n, m = mdp.n_states, mdp.n_edges
    src, dst, terminal = mdp.edge_src, mdp.edge_dst, mdp.terminal

    def owners(offset):
        return np.repeat(np.arange(n), np.diff(offset))

    def any_in_slice(bad, owner):
        """Per state: one of the entries of its slice is ``bad``."""
        return np.bincount(owner, weights=bad, minlength=n) > 0

    if len(set(mdp.states)) != n:
        yield "duplicate state encodings"
    if n == 0:
        yield "no states, so no initial state"
    for name in ("out_offset", "in_offset"):
        offset = getattr(mdp, name)
        if (len(offset) != n + 1 or offset[0] != 0 or offset[-1] != m
                or (np.diff(offset) < 0).any()):
            yield f"malformed {name}"

    unknown = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if (unknown | (src >= dst)).any():
        e = int(np.argmax(unknown | (src >= dst)))
        yield (f"edge {e} references an unknown state" if unknown[e] else
               f"acyclicity: edge {src[e]} -> {dst[e]} violates topological index order")

    owner = owners(mdp.out_offset)
    rank = np.arange(m) - mdp.out_offset[owner]
    has_children = np.diff(mdp.out_offset) > 0
    yield _first(
        (any_in_slice(src != owner, owner), "out_offset slice of state {} contains foreign edges"),
        (any_in_slice(mdp.edge_action != rank, owner), "state {} action ids are not dense 0..k-1"),
        (terminal & has_children, "terminal state {} has children"),
        (~terminal & ~has_children, "non-terminal state {} has no children"),
    )

    if not np.array_equal(np.sort(mdp.in_edges), np.arange(m)):
        yield "in_edges is not a permutation of edge ids (parent/child duality)"
    owner = owners(mdp.in_offset)
    yield _first((any_in_slice(dst[mdp.in_edges] != owner, owner),
                  "in_offset slice of state {} contains foreign edges"))

    target = mdp.log_target
    yield _first((terminal & ~np.isfinite(target), "terminal state {} has non-finite log_target"),
                 (~terminal & (target != -np.inf), "non-terminal state {} has a finite log_target"))

    parentless = np.diff(mdp.in_offset) == 0
    yield _first((parentless & (np.arange(n) != mdp.initial),
                  "state {} unreachable from the initial state"))


def validate(mdp: EnumeratedMdp) -> ValidationReport:
    """Check all EnumeratedMdp invariants; report the first violation.

    Each invariant is one array predicate over the tables; the report names
    its lowest offending index.  Reachability needs no traversal: edges go up
    in index, so following parents from any state ends at a parentless state,
    and every state is reachable iff no state other than the initial state 0
    is parentless.  The lowest unreachable state is parentless (a parent
    would be lower and unreachable), so it is the one reported.
    """
    failure = next(filter(None, _violations(mdp)), None)
    return ValidationReport(ok=failure is None, failure=failure)


class ExplicitDagEnv:
    """Env over explicitly listed states: (parent, action, child) ``edges``
    and the log target of each of the ``terminals``, all keyed by the states'
    encodings.  Messages name a state by its encoding as text, so a DAG
    file's state is named by its decimal id (``state 1``)."""

    def __init__(
        self,
        initial: bytes,
        edges: Sequence[tuple[bytes, int, bytes]],
        terminals: dict[bytes, float],
    ):
        self._initial = initial
        self._children: dict[bytes, dict[int, bytes]] = {}
        self._parents: dict[bytes, list[tuple[bytes, int]]] = {}
        for p, a, c in edges:
            acts = self._children.setdefault(p, {})
            if a in acts:
                raise DagFormatError(f"duplicate action {a} at state {p.decode()}")
            acts[a] = c
            self._parents.setdefault(c, []).append((p, a))
        for p, acts in self._children.items():
            if sorted(acts) != list(range(len(acts))):
                raise DagFormatError(f"state {p.decode()} action ids are not dense 0..k-1")
        self._terminals = dict(terminals)
        for t in self._terminals:
            if t in self._children:
                raise DagFormatError(f"terminal state {t.decode()} has outgoing edges")
        for s in (initial, *self._parents):  # a state only seen as a parent has edges
            if s not in self._terminals and s not in self._children:
                raise DagFormatError(f"state {s.decode()} is neither terminal nor has edges")
        reached, frontier = {initial}, [initial]
        while frontier:
            for c in self._children.get(frontier.pop(), {}).values():
                if c not in reached:
                    reached.add(c)
                    frontier.append(c)
        for s in (*self._children, *self._terminals):
            if s not in reached:
                raise DagFormatError(f"state {s.decode()} is not reachable from the initial state")

    def initial_state(self) -> bytes:
        return self._initial

    def n_actions(self, state: bytes) -> int:
        return len(self._children.get(state, ()))

    def step(self, state: bytes, action: int) -> bytes:
        if action not in self._children.get(state, ()):
            raise IndexError(f"action {action} out of range")
        return self._children[state][action]

    def is_terminal(self, state: bytes) -> bool:
        return state in self._terminals

    def log_target(self, state: bytes) -> float:
        return self._terminals.get(state, float("-inf"))

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        return list(self._parents.get(state, ()))


def parse_dag_text(text: str) -> ExplicitDagEnv:
    """Parse the plain-text DAG spec format.

    One line per edge ``parent_id action_id child_id``, one line per terminal
    ``terminal id log_target`` (a finite log target), one line ``initial id``.
    Whitespace separated; ``#`` starts a comment.  A state is encoded as its
    id written back in decimal: ``007`` is ``b"7"``.
    """
    initial: bytes | None = None
    edges: list[tuple[bytes, int, bytes]] = []
    terminals: dict[bytes, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "initial":
                if initial is not None:
                    raise DagFormatError(f"line {lineno}: duplicate initial line")
                if len(parts) != 2:
                    raise DagFormatError(f"line {lineno}: expected 'initial id'")
                initial = b"%d" % int(parts[1])
            elif len(parts) != 3:
                form = "terminal id log_target" if parts[0] == "terminal" else "parent action child"
                raise DagFormatError(f"line {lineno}: expected '{form}'")
            elif parts[0] == "terminal":
                value = float(parts[2])
                if not np.isfinite(value):
                    raise DagFormatError(f"line {lineno}: log_target {parts[2]} is not finite")
                state = b"%d" % int(parts[1])
                if state in terminals:
                    raise DagFormatError(
                        f"line {lineno}: duplicate terminal line for state {state.decode()}")
                terminals[state] = value
            else:
                edges.append((b"%d" % int(parts[0]), int(parts[1]), b"%d" % int(parts[2])))
        except ValueError as exc:
            raise DagFormatError(f"line {lineno}: {exc}") from exc
    if initial is None:
        raise DagFormatError("missing 'initial' line")
    if not terminals:
        raise DagFormatError("missing 'terminal' lines")
    return ExplicitDagEnv(initial, edges, terminals)


def dump_dag_text(mdp: EnumeratedMdp) -> str:
    """Serialize an EnumeratedMdp to the plain-text DAG spec format."""
    lines = ["# gflowdp DAG spec", f"initial {mdp.initial}"]
    lines += [f"{s} {a} {c}" for s, a, c in zip(
        mdp.edge_src.tolist(), mdp.edge_action.tolist(), mdp.edge_dst.tolist())]
    lines += [f"terminal {t} {float(mdp.log_target[t])!r}" for t in mdp.terminal_ids.tolist()]
    return "\n".join(lines) + "\n"
