"""Acyclic deterministic MDP core: enumeration, inversion, validation.

Environments expose states as opaque byte encodings behind the ``Env``
protocol.  ``enumerate_mdp`` walks the reachable graph, assigns dense
topological indices, and freezes the DAG into flat edge tables
(``EnumeratedMdp``) that every solver in this package consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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


class MultipleInitials(MdpError):
    """A single-initial consumer was handed a multi-initial MDP."""


class DagFormatError(MdpError):
    """Malformed plain-text DAG spec."""


class Env(Protocol):
    """Contract for acyclic deterministic environments.

    States are canonical byte strings; two states are the same iff their
    encodings are byte-equal.  Actions are dense local indices
    ``0..n_actions(s)-1``.  ``step`` must be deterministic and acyclic,
    ``log_target`` must be finite exactly on terminal states, and
    ``parents(step(s, a))`` must contain ``(s, a)`` for every legal pair.
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
    offsets ``in_offset``; ``parent_slot[e]`` is the rank of edge ``e`` inside
    its destination's group, i.e. the backward-action index.  ``levels`` is
    derived from these tables on first use and cached on the instance.
    """

    states: tuple[bytes, ...]
    initials: tuple[int, ...]
    terminal: np.ndarray  # bool [S]
    log_target: np.ndarray  # float [S], -inf off terminal states
    edge_src: np.ndarray  # int [E]
    edge_action: np.ndarray  # int [E]
    edge_dst: np.ndarray  # int [E]
    out_offset: np.ndarray  # int [S+1]
    in_edges: np.ndarray  # int [E]
    in_offset: np.ndarray  # int [S+1]
    parent_slot: np.ndarray  # int [E]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def multi_initial(self) -> bool:
        return len(self.initials) > 1

    @property
    def initial(self) -> int:
        if self.multi_initial:
            raise MultipleInitials(
                f"{len(self.initials)} initial states; this consumer needs one"
            )
        return self.initials[0]

    @property
    def terminal_ids(self) -> np.ndarray:
        return np.flatnonzero(self.terminal)

    def out_slice(self, s: int) -> slice:
        return slice(int(self.out_offset[s]), int(self.out_offset[s + 1]))

    def in_slice(self, s: int) -> slice:
        return slice(int(self.in_offset[s]), int(self.in_offset[s + 1]))

    def out_edge_ids(self, s: int) -> np.ndarray:
        return np.arange(self.out_offset[s], self.out_offset[s + 1])

    def in_edge_ids(self, s: int) -> np.ndarray:
        return self.in_edges[self.in_slice(s)]

    def children(self, s: int) -> list[tuple[int, int]]:
        """(action, child) pairs in action order."""
        sl = self.out_slice(s)
        return list(zip(self.edge_action[sl].tolist(), self.edge_dst[sl].tolist()))

    def parents_of(self, s: int) -> list[tuple[int, int]]:
        """(parent, action) pairs in (parent, action) order."""
        ids = self.in_edge_ids(s)
        return list(zip(self.edge_src[ids].tolist(), self.edge_action[ids].tolist()))

    def edge_set(self) -> set[tuple[int, int]]:
        """Edges as (src, dst) index pairs, ignoring action labels."""
        return set(zip(self.edge_src.tolist(), self.edge_dst.tolist()))

    @cached_property
    def levels(self) -> "Levels":
        return Levels.of(self)

    def with_log_target(self, log_target: np.ndarray) -> "EnumeratedMdp":
        log_target = np.asarray(log_target, dtype=float)
        if log_target.shape != (self.n_states,):
            raise ValueError("log_target shape mismatch")
        return replace(self, log_target=log_target)


def segment_positions(offset: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``offset[r]:offset[r + 1]`` of every row in ``rows``, row
    after row, and where each row's run starts among them."""
    rows = np.asarray(rows, dtype=np.int64)
    first = offset[rows]
    lengths = offset[rows + 1] - first
    starts = np.cumsum(lengths) - lengths
    return np.repeat(first - starts, lengths) + np.arange(int(lengths.sum())), starts


class LevelSegments(NamedTuple):
    """The edge segments of one topological level.

    ``states`` are the level's states that own a nonempty segment, in index
    order; ``edges`` lists their edge ids segment after segment, each segment
    in table order; ``starts`` is where each segment begins in ``edges``.
    """

    states: np.ndarray
    edges: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, offset: np.ndarray, order: np.ndarray | None, states: np.ndarray):
        live = states[offset[states + 1] > offset[states]]
        pos, starts = segment_positions(offset, live)
        return cls(live, pos if order is None else order[pos], starts)


class Levels(NamedTuple):
    """States grouped by longest-path depth from the parentless states.

    A parent always sits on a lower level than its child, so a DP that reads
    only parents (``push``, levels 1, 2, ... with their in-edge segments) or
    only children (``pull``, deepest level first, with out-edge segments) can
    update a whole level with array operations.
    """

    push: tuple[LevelSegments, ...]
    pull: tuple[LevelSegments, ...]

    @classmethod
    def of(cls, mdp: "EnumeratedMdp") -> "Levels":
        n = mdp.n_states
        depth = np.full(n, -1, dtype=np.int64)
        waiting = np.diff(mdp.in_offset)
        frontier = np.flatnonzero(waiting == 0)
        by_level = []
        while frontier.size:
            depth[frontier] = len(by_level)
            by_level.append(frontier)
            pos, _ = segment_positions(mdp.out_offset, frontier)
            children = mdp.edge_dst[pos]
            np.subtract.at(waiting, children, 1)
            ready = np.sort(children[waiting[children] == 0])
            frontier = ready[np.diff(ready, prepend=-1) != 0]
        if (depth < 0).any():
            raise CycleDetected(
                f"state {int(np.flatnonzero(depth < 0)[0])} lies on a cycle"
            )
        return cls(
            push=tuple(LevelSegments.of(mdp.in_offset, mdp.in_edges, st) for st in by_level[1:]),
            pull=tuple(LevelSegments.of(mdp.out_offset, None, st) for st in by_level[::-1]),
        )


@dataclass(frozen=True)
class Trajectory:
    """A complete path from the initial state to a terminal state.

    ``states`` has length T+1, ``actions``/``edges``/``log_behavior`` length T.
    ``log_behavior`` records the behavior policy's per-step log-probabilities
    (the sampling distribution, exploration included).
    """

    states: np.ndarray
    actions: np.ndarray
    edges: np.ndarray
    log_behavior: np.ndarray

    @property
    def start(self) -> int:
        return int(self.states[0])

    @property
    def end(self) -> int:
        return int(self.states[-1])

    def __len__(self) -> int:
        return len(self.actions)

    def steps(self) -> Iterator[tuple[int, int, int]]:
        for t in range(len(self.actions)):
            yield int(self.states[t]), int(self.actions[t]), int(self.states[t + 1])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failure: str | None = None


def _freeze(
    states: list[bytes],
    initials: Sequence[int],
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
    in_edges = np.lexsort((act, src, dst))
    in_offset = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))

    parent_slot = np.empty(len(src), dtype=np.int64)
    parent_slot[in_edges] = np.arange(len(src)) - in_offset[dst[in_edges]]

    return EnumeratedMdp(
        states=tuple(states),
        initials=tuple(initials),
        terminal=np.asarray(terminal, dtype=bool),
        log_target=np.asarray(log_target, dtype=float),
        edge_src=src,
        edge_action=act,
        edge_dst=dst,
        out_offset=out_offset,
        in_edges=in_edges,
        in_offset=in_offset,
        parent_slot=parent_slot,
    )


def enumerate_mdp(env: Env, max_states: int = DEFAULT_MAX_STATES) -> EnumeratedMdp:
    """Enumerate the reachable states of ``env`` in topological order.

    Indices come from reversed DFS postorder with children visited in
    action-index order, so the initial state gets index 0 and every edge
    goes from a lower to a higher index.  Deterministic for a deterministic
    env.  Every pair that ``env.parents`` omits is an error, and so is a
    declared pair that enumeration did not step itself (say, one from an
    unreachable state) unless ``env.step`` replays it to the state.

    Raises CycleDetected, StateBudgetExceeded, or ParentMismatch.
    """
    root = env.initial_state()
    index_of: dict[bytes, int] = {root: 0}
    states: list[bytes] = [root]
    kids: dict[int, list[int]] = {}  # discovery id -> child discovery ids

    def resolve(sid: int) -> list[int]:
        st = states[sid]
        n_act = 0 if env.is_terminal(st) else env.n_actions(st)
        out = []
        for a in range(n_act):
            child = env.step(st, a)
            cid = index_of.get(child)
            if cid is None:
                if len(states) >= max_states:
                    raise StateBudgetExceeded(f"more than {max_states} reachable states")
                cid = index_of[child] = len(states)
                states.append(child)
            out.append(cid)
        return out

    postorder: list[int] = []
    done: set[int] = set()
    on_path: set[int] = {0}
    stack: list[list[int]] = [[0, 0]]  # (discovery id, next child position)
    while stack:
        sid, pos = stack[-1]
        if sid not in kids:
            kids[sid] = resolve(sid)
        children = kids[sid]
        if pos < len(children):
            stack[-1][1] = pos + 1
            c = children[pos]
            if c in on_path:
                raise CycleDetected(f"state {states[c]!r} reached again along the current path")
            if c not in done:
                on_path.add(c)
                stack.append([c, 0])
        else:
            stack.pop()
            on_path.discard(sid)
            done.add(sid)
            postorder.append(sid)

    order = postorder[::-1]  # reverse postorder = topological, root first
    rank = {d: i for i, d in enumerate(order)}

    new_states = [states[d] for d in order]
    terminal = [env.is_terminal(s) for s in new_states]
    log_target = [float(env.log_target(s)) if term else float("-inf")
                  for s, term in zip(new_states, terminal)]
    edges = [(rank[d], a, rank[c]) for d in order for a, c in enumerate(kids[d])]
    mdp = _freeze(new_states, (0,), terminal, log_target, edges)

    # cross-check env.parents against discovered edges; a discovered pair is
    # known to step to the state, so only the other declared pairs replay
    discovered: list[set[tuple[bytes, int]]] = [set() for _ in order]
    for s, a, c in edges:
        discovered[c].add((new_states[s], a))
    for c, state in enumerate(new_states):
        declared = set()
        for p_state, p_action in env.parents(state):
            pair = (bytes(p_state), int(p_action))
            declared.add(pair)
            if pair not in discovered[c] and env.step(p_state, p_action) != state:
                raise ParentMismatch(f"parents({state!r}) lists ({p_state!r}, {p_action}) "
                                     "which does not replay to it")
        if missing := discovered[c] - declared:
            raise ParentMismatch(f"parents({state!r}) is missing the pairs {sorted(missing)}")
    return mdp


def invert(mdp: EnumeratedMdp) -> EnumeratedMdp:
    """Reverse every edge: initial roles and terminal roles swap.

    Actions of the inverted MDP at a state are its original parent pairs in
    parent-list order, and the transition undoes the original action.
    Indices are reassigned in reverse topological order (state ``i`` becomes
    ``n - 1 - i``).  The inverted MDP has one initial-role state per original
    terminal; single-initial consumers reject it via ``EnumeratedMdp.initial``.
    The terminal-role states (the original initials) get log-target 0.
    """
    last = mdp.n_states - 1
    edges = np.column_stack((last - mdp.edge_dst, mdp.parent_slot, last - mdp.edge_src))
    terminal = np.isin(np.arange(last, -1, -1), mdp.initials)  # state i was state last - i
    log_target = np.where(terminal, 0.0, float("-inf"))
    initials = (last - mdp.terminal_ids[::-1]).tolist()
    return _freeze(mdp.states[::-1], initials, terminal, log_target, edges)


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

    def slices(offset, entries, owner_key, rank_key):
        """Per state: its slice of ``entries`` holds an edge whose key names
        another state, and one whose rank key is not its rank in the slice."""
        owner = np.repeat(np.arange(n), np.diff(offset))
        rank = np.arange(m) - offset[owner]
        return (np.bincount(owner, weights=owner_key[entries] != owner, minlength=n) > 0,
                np.bincount(owner, weights=rank_key[entries] != rank, minlength=n) > 0)

    if len(set(mdp.states)) != n:
        yield "duplicate state encodings"
    if not mdp.initials or len(set(mdp.initials)) != len(mdp.initials):
        yield "initial states must be nonempty and distinct"
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

    foreign, unranked = slices(mdp.out_offset, slice(None), src, mdp.edge_action)
    has_children = np.diff(mdp.out_offset) > 0
    yield _first(
        (foreign, "out_offset slice of state {} contains foreign edges"),
        (unranked, "state {} action ids are not dense 0..k-1"),
        (terminal & has_children, "terminal state {} has children"),
        (~terminal & ~has_children, "non-terminal state {} has no children"),
    )

    if not np.array_equal(np.sort(mdp.in_edges), np.arange(m)):
        yield "in_edges is not a permutation of edge ids (parent/child duality)"
    foreign, unranked = slices(mdp.in_offset, mdp.in_edges, dst, mdp.parent_slot)
    yield _first((foreign, "in_offset slice of state {} contains foreign edges"),
                 (unranked, "parent_slot ranks of state {} are wrong"))

    target = mdp.log_target
    yield _first((terminal & ~np.isfinite(target), "terminal state {} has non-finite log_target"),
                 (~terminal & (target != -np.inf), "non-terminal state {} has a finite log_target"))

    entry = np.zeros(n, dtype=bool)
    entry[list(mdp.initials)] = True
    yield _first((~entry & (np.diff(mdp.in_offset) == 0), "state {} unreachable from initials"))


def validate(mdp: EnumeratedMdp) -> ValidationReport:
    """Check all EnumeratedMdp invariants; report the first violation.

    Each invariant is one array predicate over the tables; the report names
    its lowest offending index.  Reachability needs no traversal: edges go up
    in index, so following parents from any state ends at a parentless state,
    and every state is reachable iff every parentless state is an initial.
    The lowest unreachable state is parentless (a parent would be lower and
    unreachable), so it is the one reported.
    """
    failure = next(filter(None, _violations(mdp)), None)
    return ValidationReport(ok=failure is None, failure=failure)


class ExplicitDagEnv:
    """Env over explicitly listed integer states, as read from DAG spec text."""

    def __init__(
        self,
        initial: int,
        edges: Sequence[tuple[int, int, int]],
        terminals: dict[int, float],
    ):
        self._initial = initial
        self._children: dict[int, dict[int, int]] = {}
        self._parents: dict[int, list[tuple[int, int]]] = {}
        nodes = {initial} | set(terminals)
        for p, a, c in edges:
            nodes.update((p, c))
            self._children.setdefault(p, {})
            if a in self._children[p]:
                raise DagFormatError(f"duplicate action {a} at state {p}")
            self._children[p][a] = c
            self._parents.setdefault(c, []).append((p, a))
        for p, acts in self._children.items():
            if sorted(acts) != list(range(len(acts))):
                raise DagFormatError(f"state {p} action ids are not dense 0..k-1")
        self._terminals = dict(terminals)
        for t in self._terminals:
            if t in self._children:
                raise DagFormatError(f"terminal state {t} has outgoing edges")
        for s in nodes:
            if s not in self._terminals and s not in self._children:
                raise DagFormatError(f"state {s} is neither terminal nor has edges")
        self._nodes = nodes

    @staticmethod
    def _encode(s: int) -> bytes:
        return str(s).encode()

    @staticmethod
    def _decode(b: bytes) -> int:
        return int(b.decode())

    def initial_state(self) -> bytes:
        return self._encode(self._initial)

    def n_actions(self, state: bytes) -> int:
        return len(self._children.get(self._decode(state), {}))

    def step(self, state: bytes, action: int) -> bytes:
        return self._encode(self._children[self._decode(state)][action])

    def is_terminal(self, state: bytes) -> bool:
        return self._decode(state) in self._terminals

    def log_target(self, state: bytes) -> float:
        return self._terminals.get(self._decode(state), float("-inf"))

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        return [
            (self._encode(p), a)
            for p, a in sorted(self._parents.get(self._decode(state), []))
        ]


def parse_dag_text(text: str) -> ExplicitDagEnv:
    """Parse the plain-text DAG spec format.

    One line per edge ``parent_id action_id child_id``, one line per terminal
    ``terminal id log_target`` (a finite log target), one line ``initial id``.
    Whitespace separated; ``#`` starts a comment.
    """
    initial: int | None = None
    edges: list[tuple[int, int, int]] = []
    terminals: dict[int, float] = {}
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
                initial = int(parts[1])
            elif len(parts) != 3:
                form = "terminal id log_target" if parts[0] == "terminal" else "parent action child"
                raise DagFormatError(f"line {lineno}: expected '{form}'")
            elif parts[0] == "terminal":
                value = float(parts[2])
                if not np.isfinite(value):
                    raise DagFormatError(f"line {lineno}: log_target {parts[2]} is not finite")
                terminals[int(parts[1])] = value
            else:
                edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
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
