"""Acyclic deterministic MDP core: enumeration and validation.

Environments expose states as opaque byte encodings behind the ``Env``
protocol.  ``enumerate_mdp`` walks the reachable graph, assigns dense
topological indices, and freezes the DAG into flat edge tables
(``EnumeratedMdp``) that every solver in this package consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, filterfalse, repeat
from typing import Iterator, NamedTuple, Protocol, Sequence

import numpy as np

DEFAULT_MAX_STATES = 1_000_000


class MdpError(Exception):
    """Base class for structural MDP errors."""


class CycleDetected(MdpError):
    """A state was re-encountered on the current DFS path."""


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

    For ``enumerate_mdp`` an env may also answer a batch of F states at once
    through three optional calls, which must agree with the per-state ones:

    - ``batch_children(states) -> (terminal, n_children, children)``: F
      ``is_terminal`` flags, F child counts (0 at a terminal), and the
      ``step`` results of every state in action order, state after state;
    - ``batch_parents(states) -> (n_pairs, parents, actions)``: F counts of
      ``parents`` pairs, then the pairs' states (bytes) and their actions,
      state after state;
    - ``batch_log_target(states)``: the F ``log_target`` values.

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
    every state is reachable.  ``levels`` is derived from these tables on
    first use and cached on the instance.
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
    def levels(self) -> "Levels":
        return Levels.of(self)

    def with_log_target(self, log_target: np.ndarray) -> "EnumeratedMdp":
        log_target = np.asarray(log_target, dtype=float)
        if log_target.shape != (self.n_states,):
            raise ValueError("log_target shape mismatch")
        return replace(self, log_target=log_target)


def segment_positions(offset: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Positions ``offset[r]:offset[r + 1]`` of every row in ``rows``, row
    after row, and where each row's run starts among them and its length."""
    rows = np.asarray(rows, dtype=np.int64)
    first = offset[rows]
    lengths = offset[rows + 1] - first
    starts = np.cumsum(lengths) - lengths
    return np.repeat(first - starts, lengths) + np.arange(int(lengths.sum())), starts, lengths


class LevelSegments(NamedTuple):
    """The edge segments of one topological level that has any.

    ``states`` own the nonempty segments, in index order; ``edges`` lists
    their edge ids segment after segment, each in table order; segment k
    starts at ``starts[k]`` and is ``lengths[k]`` long.  ``slots``, ``heads``
    and ``end`` place the level in one ``numerics.padded_logsumexp`` layout
    of all levels' edges, with a 0.0 ahead of every segment.
    """

    states: np.ndarray
    edges: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    slots: np.ndarray
    heads: np.ndarray
    end: int


def _level_segments(offset, order, levels: list[np.ndarray]) -> tuple[LevelSegments, ...]:
    """The segments of each level in ``levels``, built for all levels at once;
    ``order`` maps CSR positions to edge ids (None: the identity)."""
    states = np.concatenate(levels)
    lengths = offset[states + 1] - offset[states]
    live = lengths > 0
    done = np.cumsum(live)[np.cumsum([len(lv) for lv in levels]) - 1]  # live states so far
    bounds = [0] + done[np.diff(done, prepend=0) > 0].tolist()
    states, lengths = states[live], lengths[live]
    pos, starts, _ = segment_positions(offset, states)
    edges = pos if order is None else order[pos]
    heads = starts + np.arange(states.size)
    slots = np.repeat(heads + 1 - starts, lengths) + np.arange(edges.size)
    cuts = np.append(starts, edges.size)[bounds].tolist()  # each level's first edge
    return tuple(LevelSegments(states[a:b], edges[lo:hi], starts[a:b] - lo, lengths[a:b],
                               slots[lo:hi], heads[a:b], hi + b)  # heads[b] = hi + b
                 for a, b, lo, hi in zip(bounds, bounds[1:], cuts, cuts[1:]))


class Levels(NamedTuple):
    """States grouped by longest-path depth from the initial state.

    A parent always sits on a lower level than its child, so a DP that reads
    only parents (``push``, levels 1, 2, ... with their in-edge segments) or
    only children (``pull``, deepest level first, with out-edge segments) can
    update a whole level with array operations.
    """

    push: tuple[LevelSegments, ...]
    pull: tuple[LevelSegments, ...]

    @classmethod
    def of(cls, mdp: "EnumeratedMdp") -> "Levels":
        waiting = np.diff(mdp.in_offset)  # parents not yet on a level
        frontier = np.flatnonzero(waiting == 0)
        by_level = []
        while frontier.size:
            by_level.append(frontier)
            pos = segment_positions(mdp.out_offset, frontier)[0]
            children = mdp.edge_dst[pos]
            np.subtract.at(waiting, children, 1)
            ready = np.sort(children[waiting[children] == 0])
            frontier = ready[ready != np.concatenate(([-1], ready[:-1]))]
        if (waiting > 0).any():
            raise CycleDetected(f"state {int(np.flatnonzero(waiting > 0)[0])} lies on a cycle")
        return cls(
            push=_level_segments(mdp.in_offset, mdp.in_edges, by_level),  # level 0: no in-edges
            pull=_level_segments(mdp.out_offset, None, by_level[::-1]),
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failure: str | None = None


def _freeze(
    states: list[bytes],
    terminal: Sequence[bool],
    log_target: Sequence[float],
    edges: Sequence[tuple[int, int, int]] | np.ndarray,
) -> EnumeratedMdp:
    """Build the CSR tables from (src, action, dst) edge rows."""
    n = len(states)
    table = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    table = table[np.lexsort((table[:, 1], table[:, 0]))]
    src, act, dst = (np.ascontiguousarray(col) for col in table.T)

    out_offset = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    in_edges = np.argsort(dst, kind="stable")  # by (dst, src, action)
    in_offset = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))

    return EnumeratedMdp(
        states=tuple(states),
        terminal=np.asarray(terminal, dtype=bool),
        log_target=np.asarray(log_target, dtype=float),
        edge_src=src,
        edge_action=act,
        edge_dst=dst,
        out_offset=out_offset,
        in_edges=in_edges,
        in_offset=in_offset,
    )


class _PerState:
    """The batched calls of ``Env`` made through the env's per-state methods,
    one state at a time in batch order."""

    def __init__(self, env: Env):
        self.env = env

    def batch_children(self, states):
        env, terminal, counts, children = self.env, [], [], []
        for st in states:
            terminal.append(env.is_terminal(st))
            counts.append(0 if terminal[-1] else env.n_actions(st))
            children += [env.step(st, a) for a in range(counts[-1])]
        return terminal, counts, children

    def batch_parents(self, states):
        pairs = [list(self.env.parents(st)) for st in states]
        flat = [pair for ps in pairs for pair in ps]
        return [len(ps) for ps in pairs], [bytes(p) for p, _ in flat], [a for _, a in flat]

    def batch_log_target(self, states):
        return [float(self.env.log_target(st)) for st in states]


BATCHED_CALLS = ("batch_children", "batch_parents", "batch_log_target")


def enumerate_mdp(env: Env, max_states: int = DEFAULT_MAX_STATES) -> EnumeratedMdp:
    """Enumerate the reachable states of ``env`` in topological order.

    Indices come from reversed DFS postorder with children visited in
    action-index order, so the initial state gets index 0 and every edge
    goes from a lower to a higher index.  Deterministic for a deterministic
    env.  Every pair that ``env.parents`` omits is an error, and so is a
    declared pair that enumeration did not step itself (say, one from an
    unreachable state) unless ``env.step`` replays it to the state.

    The env answers through the batched calls of ``Env``: one
    ``batch_children`` per discovery frontier, then one ``batch_log_target``
    on all terminals and one ``batch_parents`` on all states, both in index
    order.  An env whose class lacks them is asked one state at a time: per
    state one ``is_terminal``, one ``n_actions`` unless terminal, one
    ``parents`` and, if terminal, one ``log_target``; per edge one ``step``.
    Only a declared pair that enumeration did not step costs one more
    ``step``, its replay.  Everything else runs on discovery ids.

    Raises CycleDetected, StateBudgetExceeded, or ParentMismatch.
    """
    calls = env if all(hasattr(type(env), name) for name in BATCHED_CALLS) else _PerState(env)
    frontier = [env.initial_state()]
    index_of: dict[bytes, int] = {frontier[0]: 0}
    states: list[bytes] = []  # by discovery id, one frontier after another
    terminal, n_kids, kids = [], [], []  # per frontier; kids are child discovery ids
    while frontier:
        states += frontier
        term, counts, children = calls.batch_children(frontier)
        # the next frontier: the new children, in order of first appearance
        frontier = list(filterfalse(index_of.__contains__, dict.fromkeys(children)))
        index_of.update(zip(frontier, count(len(index_of))))
        if len(index_of) > max(max_states, len(states)):  # a new state past the budget
            raise StateBudgetExceeded(f"more than {max_states} reachable states")
        kids += map(index_of.__getitem__, children)
        terminal.append(np.asarray(term, dtype=bool))
        n_kids.append(np.asarray(counts, dtype=np.int64))

    n = len(states)
    offset = np.concatenate(([0], np.cumsum(np.concatenate(n_kids))))
    first = offset.tolist()
    seen = bytearray(n)
    seen[0] = 1
    path, unvisited, postorder = [0], [iter(kids[first[0]:first[1]])], []
    while path:
        for c in unvisited[-1]:
            if not seen[c]:
                seen[c] = 1
                if first[c] == first[c + 1]:  # a childless state finishes at once
                    postorder.append(c)
                else:
                    path.append(c)
                    unvisited.append(iter(kids[first[c]:first[c + 1]]))
                    break
        else:
            unvisited.pop()
            postorder.append(path.pop())

    order = np.array(postorder[::-1])  # reverse postorder = topological, root first
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    src = np.repeat(np.arange(n), np.diff(offset))
    dst = np.array(kids, dtype=np.int64)
    # in reverse postorder, only an edge back to a state on the DFS path, one
    # that closes a cycle, fails to go up in rank
    if (back := rank[src] >= rank[dst]).any():
        c = states[dst[np.argmax(back)]]
        raise CycleDetected(f"state {c!r} reached again along the current path")

    new_states = list(map(states.__getitem__, order.tolist()))
    terminal = np.concatenate(terminal)[order]
    log_target = np.full(n, -np.inf)
    ends = np.flatnonzero(terminal)
    log_target[ends] = calls.batch_log_target(list(map(new_states.__getitem__, ends.tolist())))
    edges = np.column_stack((rank[src], np.arange(len(kids)) - offset[src], rank[dst]))
    pos = segment_positions(offset, order)[0]  # by source rank, then action: as _freeze sorts
    mdp = _freeze(new_states, terminal, log_target, edges[pos])
    n_pairs, parents, actions = calls.batch_parents(new_states)
    ranks = np.append(rank, n)  # n: a parent that enumeration never reached
    parent_rank = ranks[np.fromiter(map(index_of.get, parents, repeat(n)),
                                    dtype=np.int64, count=len(parents))]
    _check_parents(env, mdp, np.repeat(np.arange(n), n_pairs), parent_rank, parents, actions)
    return mdp


def _check_parents(env: Env, mdp: EnumeratedMdp, child: np.ndarray, parent_rank: np.ndarray,
                   parents: Sequence[bytes], actions: Sequence[int]) -> None:
    """Raise ParentMismatch at the first state, in index order, whose declared
    pairs (``parents[i]``, ``actions[i]``) of state ``child[i]``, with the
    parent at index ``parent_rank[i]`` (n when unreached), either omit a
    stepped edge or hold one that was not stepped and does not replay
    through ``env.step``; at one state, a failed replay comes first."""
    n = mdp.n_states
    offset = np.append(mdp.out_offset, mdp.n_edges)  # state n has no edges
    action = np.asarray(actions, dtype=np.int64)
    edge = offset[parent_rank] + action
    stepped = (action >= 0) & (edge < offset[parent_rank + 1])
    stepped[stepped] = mdp.edge_dst[edge[stepped]] == child[stepped]
    declared = np.zeros(mdp.n_edges, dtype=bool)
    declared[edge[stepped]] = True
    worst = int(mdp.edge_dst[~declared].min(initial=n))  # the first state missing a pair
    for i in np.flatnonzero(~stepped & (child <= worst)).tolist():
        state = mdp.states[child[i]]
        if env.step(parents[i], actions[i]) != state:
            raise ParentMismatch(f"parents({state!r}) lists ({parents[i]!r}, {actions[i]}) "
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
                terminals[b"%d" % int(parts[1])] = value
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
