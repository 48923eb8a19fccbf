"""The per-state Python loops of the MDP tables, the exact layer and the
training step, kept as reference oracles for the whole-array and
level-synchronous implementations, together with ``enumerate_mdp_dfs``,
which asks the env one state at a time and finds the level-order numbering
with a depth-first walk, the hypergrid and bit-vector env calls that
rebuild their move or unset-entry lists, the run loops of
``exact.push_forward``/``pull_backward`` that reduce each run of
``EnumeratedMdp.levels`` with ``segment_logsumexp``, and
``dense_loss_and_grads``, the training loss that computed every softmax and
softmax VJP on all E edges, and Adam, ``repin`` and the EMA group by group,
as they ran before the model's tables were views of one buffer.  The
batched sub-trajectory residual on (b, i, j) cells and its transpose, and
the two-pass Huber (``huber``, ``huber_grad`` and the deadbanded ``_coef``)
are here too: the oracles of ``learner._balance``, which reads cells at
flat row positions, and of ``learner._huber``, which is one pass.

Each function is the loop version verbatim, except that calls into
functions that were rewritten go to the loop copies in this module, that
``_coef`` no longer divides, so its callers here divide by their own
denominators, and that ``enumerate_mdp_dfs`` and the run loops follow the
level-order numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gflowdp import exact, learner
from gflowdp.envs import BitVectorEnv, HypergridEnv
from gflowdp.exact import NonFiniteTarget, ZeroFlow
from gflowdp.learner import (
    BackwardRequiresL,
    NonFiniteGradient,
    PARAM_GROUPS,
    PolicyModel,
    RolloutBatch,
    SampledPath,
    RESIDUAL_TOL,
    TrainConfig,
)
from gflowdp.mdp import (
    DEFAULT_MAX_STATES,
    CycleDetected,
    EnumeratedMdp,
    Env,
    ParentMismatch,
    StateBudgetExceeded,
    ValidationReport,
    segment_positions,
)
from gflowdp.numerics import NEG_INF, entropy_from_log_probs, logsumexp, segment_logsumexp
from gflowdp.objectives import (
    HuberParams,
    cross_cumsum,
    step_cells,
    subtrajectory_cells,
    trajectory_cells,
)


def _freeze(
    states: list[bytes],
    terminal: Sequence[bool],
    log_target: Sequence[float],
    edges: Sequence[tuple[int, int, int]],
) -> EnumeratedMdp:
    """Build the CSR tables from an edge list; edges are (src, action, dst)."""
    n = len(states)
    order = sorted(range(len(edges)), key=lambda i: (edges[i][0], edges[i][1]))
    src = np.array([edges[i][0] for i in order], dtype=np.int64)
    act = np.array([edges[i][1] for i in order], dtype=np.int64)
    dst = np.array([edges[i][2] for i in order], dtype=np.int64)

    out_offset = np.zeros(n + 1, dtype=np.int64)
    np.add.at(out_offset, src + 1, 1)
    out_offset = np.cumsum(out_offset)

    by_dst = sorted(range(len(src)), key=lambda e: (int(dst[e]), int(src[e]), int(act[e])))
    in_edges = np.array(by_dst, dtype=np.int64)
    in_offset = np.zeros(n + 1, dtype=np.int64)
    np.add.at(in_offset, dst + 1, 1)
    in_offset = np.cumsum(in_offset)

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


def invert_loop(mdp: EnumeratedMdp) -> EnumeratedMdp:
    """The reversed DAG: every edge turned around, under a new initial state
    with one edge to each original terminal.

    The new initial state gets index 0 and an encoding longer than every
    state's; original state ``i`` becomes ``n - i``.  The actions of the new
    initial state are the terminals in their new index order, and those of
    any other state are its original parent pairs in parent-list order.  The
    original initial state is the one terminal, with log-target 0.
    """
    n = mdp.n_states

    def rho(i: int) -> int:
        return n - i

    root = b"\xff" * (1 + max(map(len, mdp.states)))
    states = [root] + [mdp.states[n - i] for i in range(1, n + 1)]
    ends = sorted(rho(int(t)) for t in mdp.terminal_ids)
    edges = [(0, a, t) for a, t in enumerate(ends)]
    for s in range(n):
        for rank, e in enumerate(mdp.in_edge_ids(s).tolist()):
            edges.append((rho(s), rank, rho(int(mdp.edge_src[e]))))
    terminal = np.zeros(n + 1, dtype=bool)
    terminal[rho(mdp.initial)] = True
    log_target = np.where(terminal, 0.0, float("-inf"))
    return _freeze(states, terminal, log_target, edges)


def enumerate_mdp_dfs(env: Env, max_states: int = DEFAULT_MAX_STATES) -> EnumeratedMdp:
    """Enumerate the reachable states of ``env`` in level order.

    States get discovery ids breadth first, children in action-index order;
    a depth-first walk in action-index order gives a topological order and
    catches a cycle, and longest-path depths follow along that order.  The
    states are numbered by (terminal last, depth, discovery id), so the
    initial state gets index 0 and every edge goes from a lower to a higher
    index.  Deterministic for a deterministic env.  Every pair that
    ``env.parents`` omits is an error, and so is a declared pair that
    enumeration did not step itself (say, one from an unreachable state)
    unless ``env.step`` replays it to the state.

    Raises CycleDetected, StateBudgetExceeded, or ParentMismatch.
    """
    root = env.initial_state()
    index_of: dict[bytes, int] = {root: 0}
    states: list[bytes] = [root]
    kids: list[list[int]] = []  # by discovery id: child discovery ids
    is_terminal: list[bool] = []  # by discovery id: env.is_terminal

    for sid, st in enumerate(states):  # breadth first: new children join the list
        is_terminal.append(env.is_terminal(st))
        n_act = 0 if is_terminal[sid] else env.n_actions(st)
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
        kids.append(out)

    postorder: list[int] = []
    done: set[int] = set()
    on_path: set[int] = {0}
    stack: list[list[int]] = [[0, 0]]  # (discovery id, next child position)
    while stack:
        sid, pos = stack[-1]
        if pos < len(kids[sid]):
            stack[-1][1] = pos + 1
            c = kids[sid][pos]
            if c in on_path:
                raise CycleDetected(f"state {states[c]!r} lies on a cycle")
            if c not in done:
                on_path.add(c)
                stack.append([c, 0])
        else:
            stack.pop()
            on_path.discard(sid)
            done.add(sid)
            postorder.append(sid)

    depth = [0] * len(states)
    for d in reversed(postorder):  # reverse postorder = topological, root first
        for c in kids[d]:
            depth[c] = max(depth[c], depth[d] + 1)
    order = sorted(range(len(states)), key=lambda d: (is_terminal[d], depth[d], d))
    rank = {d: i for i, d in enumerate(order)}

    new_states = [states[d] for d in order]
    terminal = [is_terminal[d] for d in order]
    log_target = [float(env.log_target(s)) if term else float("-inf")
                  for s, term in zip(new_states, terminal)]
    edges = [(rank[d], a, rank[c]) for d in order for a, c in enumerate(kids[d])]
    mdp = _freeze(new_states, terminal, log_target, edges)

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
            if pair not in discovered[c] and _replay(env, p_state, p_action) != state:
                raise ParentMismatch(f"parents({state!r}) lists ({p_state!r}, {p_action}) "
                                     "which does not replay to it")
        if missing := discovered[c] - declared:
            raise ParentMismatch(f"parents({state!r}) is missing the pairs {sorted(missing)}")
    return mdp


def _replay(env: Env, state: bytes, action: int) -> bytes | None:
    """``env.step(state, action)``, or None for an action out of range."""
    try:
        return env.step(state, action)
    except IndexError:
        return None


def hypergrid_target_np(coords: Sequence[int], side: int) -> float:
    """Unnormalized target over lattice cells.

    With s_i the ratio of coordinate i to the maximum position side-1:
    0.1 + 0.5*prod(I[0.25 < |s_i-0.5|]) + 2*prod(I[0.3 < |s_i-0.5| < 0.4]).
    Indicator boundaries are strict.
    """
    s = np.asarray(coords, dtype=float) / (side - 1)
    d = np.abs(s - 0.5)
    first = float(np.all(d > 0.25))
    second = float(np.all((d > 0.3) & (d < 0.4)))
    return 0.1 + 0.5 * first + 2.0 * second


class HypergridMovesEnv(HypergridEnv):
    """The hypergrid env whose calls rebuild the list of movable coordinates."""

    def _moves(self, coords: bytes) -> list[int]:
        return [i for i in range(self.dims) if coords[i] < self.side - 1]

    def n_actions(self, state: bytes) -> int:
        if state[0]:
            return 0
        return len(self._moves(state[1:])) + 1

    def step(self, state: bytes, action: int) -> bytes:
        coords = state[1:]
        moves = self._moves(coords)
        if action < len(moves):
            i = moves[action]
            out = bytearray(state)
            out[1 + i] += 1
            return bytes(out)
        if action == len(moves):
            return bytes([1]) + coords
        raise IndexError(f"action {action} out of range")

    def log_target(self, state: bytes) -> float:
        if not state[0]:
            return NEG_INF
        return math.log(hypergrid_target_np(list(state[1:]), self.side))

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        coords = state[1:]
        if state[0]:
            lattice = bytes([0]) + coords
            return [(lattice, len(self._moves(coords)))]
        out = []
        for i in range(self.dims):
            if coords[i] > 0:
                prev = bytearray(coords)
                prev[i] -= 1
                prev_moves = self._moves(bytes(prev))
                out.append((bytes([0]) + bytes(prev), prev_moves.index(i)))
        return out


class BitVectorUnsetEnv(BitVectorEnv):
    """The bit-vector env whose calls rebuild the list of unset entries."""

    def _unset(self, state: bytes) -> list[int]:
        return [i for i, b in enumerate(state) if b == ord("*")]

    def n_actions(self, state: bytes) -> int:
        return 2 * len(self._unset(state))

    def step(self, state: bytes, action: int) -> bytes:
        rank, value = divmod(action, 2)
        i = self._unset(state)[rank]
        out = bytearray(state)
        out[i] = ord("1") if value else ord("0")
        return bytes(out)

    def parents(self, state: bytes) -> list[tuple[bytes, int]]:
        out = []
        for i, b in enumerate(state):
            if b == ord("*"):
                continue
            prev = bytearray(state)
            prev[i] = ord("*")
            rank = self._unset(bytes(prev)).index(i)
            out.append((bytes(prev), 2 * rank + (1 if b == ord("1") else 0)))
        return out


def validate_loop(mdp: EnumeratedMdp) -> ValidationReport:
    """Check all EnumeratedMdp invariants; report the first violation."""
    n, m = mdp.n_states, mdp.n_edges

    def fail(msg: str) -> ValidationReport:
        return ValidationReport(ok=False, failure=msg)

    if len(set(mdp.states)) != n:
        return fail("duplicate state encodings")
    if n == 0:
        return fail("no states, so no initial state")

    if len(mdp.out_offset) != n + 1 or mdp.out_offset[0] != 0 or mdp.out_offset[-1] != m:
        return fail("malformed out_offset")
    if len(mdp.in_offset) != n + 1 or mdp.in_offset[0] != 0 or mdp.in_offset[-1] != m:
        return fail("malformed in_offset")

    for e in range(m):
        if not (0 <= mdp.edge_src[e] < n and 0 <= mdp.edge_dst[e] < n):
            return fail(f"edge {e} references an unknown state")
        if mdp.edge_src[e] >= mdp.edge_dst[e]:
            return fail(
                f"acyclicity: edge {int(mdp.edge_src[e])} -> {int(mdp.edge_dst[e])} "
                "violates topological index order"
            )

    for s in range(n):
        sl = mdp.out_slice(s)
        if (mdp.edge_src[sl] != s).any():
            return fail(f"out_offset slice of state {s} contains foreign edges")
        acts = mdp.edge_action[sl]
        if list(acts) != list(range(len(acts))):
            return fail(f"state {s} action ids are not dense 0..k-1")
        if mdp.terminal[s] and len(acts) > 0:
            return fail(f"terminal state {s} has children")
        if not mdp.terminal[s] and len(acts) == 0:
            return fail(f"non-terminal state {s} has no children")

    if sorted(mdp.in_edges.tolist()) != list(range(m)):
        return fail("in_edges is not a permutation of edge ids (parent/child duality)")
    for s in range(n):
        ids = mdp.in_edge_ids(s)
        if (mdp.edge_dst[ids] != s).any():
            return fail(f"in_offset slice of state {s} contains foreign edges")

    for s in range(n):
        if mdp.terminal[s] and not np.isfinite(mdp.log_target[s]):
            return fail(f"terminal state {s} has non-finite log_target")
        if not mdp.terminal[s] and mdp.log_target[s] != float("-inf"):
            return fail(f"non-terminal state {s} has a finite log_target")

    seen = np.zeros(n, dtype=bool)
    frontier = [mdp.initial]
    seen[mdp.initial] = True
    while frontier:
        s = frontier.pop()
        for c in mdp.edge_dst[mdp.out_slice(s)].tolist():
            if not seen[c]:
                seen[c] = True
                frontier.append(c)
    if not seen.all():
        return fail(f"state {int(np.flatnonzero(~seen)[0])} unreachable from the initial state")

    return ValidationReport(ok=True)


def push_forward_levels(mdp: EnumeratedMdp, log_w: np.ndarray, log_init: np.ndarray) -> np.ndarray:
    """``exact.push_forward`` with one ``segment_logsumexp`` per run of
    ``mdp.levels``, first to last."""
    log_w = np.asarray(log_w, dtype=float)
    out = np.array(log_init, dtype=float)
    bounds, off = mdp.levels, mdp.in_offset
    for a, b in zip(bounds, bounds[1:]):
        if off[a] < off[b]:
            ids = mdp.in_edges[off[a]:off[b]]
            out[a:b] = segment_logsumexp(out[mdp.edge_src[ids]] + log_w[ids], np.diff(off[a:b + 1]))
    return out


def pull_backward_levels(mdp: EnumeratedMdp, log_w: np.ndarray, log_terminal: np.ndarray) -> np.ndarray:
    """``exact.pull_backward`` with one ``segment_logsumexp`` per run of
    ``mdp.levels``, last to first."""
    log_w = np.asarray(log_w, dtype=float)
    out = np.array(log_terminal, dtype=float)
    bounds, off = mdp.levels, mdp.out_offset
    for a, b in reversed(list(zip(bounds, bounds[1:]))):
        if off[a] < off[b]:
            ids = np.arange(off[a], off[b])
            out[a:b] = segment_logsumexp(log_w[ids] + out[mdp.edge_dst[ids]], np.diff(off[a:b + 1]))
    return out


def count_paths(mdp: EnumeratedMdp) -> np.ndarray:
    """Log number of distinct trajectories from the initial state.

    One topological pass: l(initial)=0 and l(s') = logsumexp over parents of
    l(s).  Equivalently, the zero-reward soft value function of the reversed
    DAG, in which the initial state is the one terminal.
    """
    l = np.full(mdp.n_states, NEG_INF)
    l[mdp.initial] = 0.0
    for s in range(mdp.n_states):
        ids = mdp.in_edge_ids(s)
        if len(ids) == 0:
            continue
        l[s] = logsumexp(l[mdp.edge_src[ids]])
    return l


def soft_value_iteration(
    mdp: EnumeratedMdp,
    step_rewards: np.ndarray | None = None,
    terminal_rewards: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the undiscounted soft Bellman equation in one backward pass.

    ``step_rewards`` is per edge (zeros if None), ``terminal_rewards`` per
    state (read at terminal states; zeros if None).  Returns per-state values
    V, per-edge values Q, and the softmax policy log_pi = Q - V.  Acyclicity
    makes the solution unique.
    """
    r_step = np.zeros(mdp.n_edges) if step_rewards is None else np.asarray(step_rewards, dtype=float)
    r_term = np.zeros(mdp.n_states) if terminal_rewards is None else np.asarray(terminal_rewards, dtype=float)

    v = np.zeros(mdp.n_states)
    q = np.zeros(mdp.n_edges)
    log_pi = np.zeros(mdp.n_edges)
    for s in range(mdp.n_states - 1, -1, -1):
        if mdp.terminal[s]:
            v[s] = r_term[s]
            continue
        sl = mdp.out_slice(s)
        q[sl] = r_step[sl] + v[mdp.edge_dst[sl]]
        v[s] = logsumexp(q[sl])
        log_pi[sl] = q[sl] - v[s]
    return v, q, log_pi


def marginals(mdp: EnumeratedMdp, log_pi: np.ndarray) -> np.ndarray:
    """Probability of passing through each state under a forward policy."""
    mu = np.zeros(mdp.n_states)
    mu[mdp.initial] = 1.0
    pi = np.exp(log_pi)
    for s in range(mdp.n_states):
        ids = mdp.in_edge_ids(s)
        if len(ids):
            mu[s] += float((mu[mdp.edge_src[ids]] * pi[ids]).sum())
    return mu


def backward_uniform(mdp: EnumeratedMdp) -> np.ndarray:
    """Backward policy uniform over each state's parent pairs."""
    log_q = np.zeros(mdp.n_edges)
    for s in range(mdp.n_states):
        ids = mdp.in_edge_ids(s)
        if len(ids):
            log_q[ids] = -np.log(len(ids))
    return log_q


def forward_from_backward(
    mdp: EnumeratedMdp, log_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """State flows and forward policy determined by (backward policy, target).

    Reverse pass: logF(t) = log target, logF(s) = logsumexp over children of
    log q + logF(child); then log pi = log q + logF(child) - logF(s), which
    satisfies detailed balance edge by edge.  States that only reach
    zero-target terminals get -inf flow; the policy renormalizes over
    finite-flow children and raises ZeroFlow if none remains.
    """
    if np.isnan(mdp.log_target[mdp.terminal]).any():
        raise NonFiniteTarget("terminal log targets must not be NaN")
    log_f = np.full(mdp.n_states, NEG_INF)
    log_pi = np.full(mdp.n_edges, NEG_INF)
    for s in range(mdp.n_states - 1, -1, -1):
        if mdp.terminal[s]:
            log_f[s] = mdp.log_target[s]
            continue
        sl = mdp.out_slice(s)
        terms = log_q[sl] + log_f[mdp.edge_dst[sl]]
        log_f[s] = logsumexp(terms)
        if log_f[s] == NEG_INF:
            raise ZeroFlow(f"state {s} has no path to a positive-target terminal")
        log_pi[sl] = terms - log_f[s]
    return log_f, log_pi


def flow_entropy(
    mdp: EnumeratedMdp, log_pi: np.ndarray, mu: np.ndarray | None = None
) -> float:
    """Expected per-state policy entropy weighted by marginals."""
    if mu is None:
        mu = marginals(mdp, log_pi)
    total = 0.0
    for s in range(mdp.n_states):
        if mdp.terminal[s] or mu[s] == 0.0:
            continue
        total += mu[s] * entropy_from_log_probs(log_pi[mdp.out_slice(s)])
    return float(total)


def backward_from_counts(mdp: EnumeratedMdp, l: np.ndarray) -> np.ndarray:
    """Normalized backward policy induced by a (possibly learned) l table:
    log q(s,a|s') = l(s) - logsumexp over parents of s' of l."""
    log_q = np.zeros(mdp.n_edges)
    for s in range(mdp.n_states):
        ids = mdp.in_edge_ids(s)
        if len(ids):
            log_q[ids] = l[mdp.edge_src[ids]] - logsumexp(l[mdp.edge_src[ids]])
    return log_q


def _segment_log_softmax(mdp: EnumeratedMdp, logits: np.ndarray, by_src: bool) -> np.ndarray:
    out = np.full(mdp.n_edges, NEG_INF)
    for s in range(mdp.n_states):
        ids = mdp.out_edge_ids(s) if by_src else mdp.in_edge_ids(s)
        if len(ids):
            vals = logits[ids]
            out[ids] = vals - logsumexp(vals)
    return out


def _behavior_tables(mdp: EnumeratedMdp, model: PolicyModel, epsilon: float):
    """Per-state sampling CDFs of (1-eps) * softmax(logits) + eps * uniform."""
    log_pi = _segment_log_softmax(mdp, model.forward_logits, by_src=True)
    tables: list[np.ndarray | None] = [None] * mdp.n_states
    for s in range(mdp.n_states):
        if mdp.terminal[s]:
            continue
        sl = mdp.out_slice(s)
        k = sl.stop - sl.start
        p = (1.0 - epsilon) * np.exp(log_pi[sl]) + epsilon / k
        tables[s] = np.cumsum(p)
    return tables


def _sample_one(mdp: EnumeratedMdp, tables, rng: np.random.Generator) -> SampledPath:
    s = mdp.initial
    states, edges = [s], []
    while not mdp.terminal[s]:
        cdf = tables[s]
        a = int(np.searchsorted(cdf, rng.random(), side="right"))
        a = min(a, len(cdf) - 1)
        e = int(mdp.out_offset[s]) + a
        s = int(mdp.edge_dst[e])
        edges.append(e)
        states.append(s)
    return SampledPath(
        states=np.array(states, dtype=np.int64), edges=np.array(edges, dtype=np.int64)
    )


def _resolve_backward(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    config: TrainConfig,
    exact_l: np.ndarray | None,
) -> tuple[np.ndarray, bool]:
    """Per-edge log q and whether gradients flow into l_hat through it."""
    if config.backward == "uniform":
        return backward_uniform(mdp), False
    if config.backward == "maxent-known":
        if exact_l is None:
            raise BackwardRequiresL("backward='maxent-known' needs exact_l")
        return exact.backward_maxent(mdp, exact_l), False
    if config.backward == "maxent-learned":
        if config.n_objective == "none" and exact_l is None:
            raise BackwardRequiresL(
                "backward='maxent-learned' with n_objective='none' would use an "
                "untrained l_hat; supply exact_l or enable an n objective"
            )
        return backward_from_counts(mdp, model.l_hat), True
    return _segment_log_softmax(mdp, model.backward_logits, by_src=False), False


def compute_loss_and_grads(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    batch: RolloutBatch,
    config: TrainConfig,
    exact_l: np.ndarray | None = None,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Mean Huber of the policy residuals plus mean Huber of the n residuals.

    Returns (stats, grads) where grads holds one array per parameter group
    with pinned/clamped entries already zeroed.
    """
    n_traj = len(batch.trajectories)
    if n_traj == 0:
        raise ValueError("batch must be nonempty")

    log_pi = _segment_log_softmax(mdp, model.forward_logits, by_src=True)
    log_q, q_trains_l = _resolve_backward(mdp, model, config, exact_l)
    log_f = model.clamped_log_f(mdp)
    l_known = config.backward == "maxent-known"
    l_table = exact_l if l_known else model.l_hat

    se = batch.step_edge
    st = np.repeat(np.arange(len(batch.lengths)), batch.lengths)  # trajectory of each step
    srcs = mdp.edge_src[se]
    dsts = mdp.edge_dst[se]
    n_steps = len(se)

    g_pi = np.zeros(mdp.n_edges)
    g_q = np.zeros(mdp.n_edges)  # coefficients on log q however it is produced
    g_lf = np.zeros(mdp.n_states)
    g_l = np.zeros(mdp.n_states)  # direct l terms (not through log q)
    g_z = 0.0

    hp = config.huber

    # ---- policy objective ------------------------------------------------
    if config.objective in ("tb", "pcl"):
        sum_pi = np.zeros(n_traj)
        np.add.at(sum_pi, st, log_pi[se])
        log_targets = mdp.log_target[batch.terminals]
        if config.objective == "tb":
            sum_q = np.zeros(n_traj)
            np.add.at(sum_q, st, log_q[se])
            res = model.log_z + sum_pi - log_targets - sum_q
        else:
            # full-trajectory consistency of the count-corrected soft values:
            # terminal value is log p~ - l, initial value is the log_z head
            res = model.log_z + sum_pi - (log_targets - l_table[batch.terminals])
        c = _coef(res, hp) / n_traj
        policy_loss = float(huber(res, hp).mean())
        g_z += float(c.sum())
        np.add.at(g_pi, se, c[st])
        if config.objective == "tb":
            np.add.at(g_q, se, -c[st])
        elif not l_known:
            np.add.at(g_l, batch.terminals, c)

    elif config.objective == "db":
        res = log_f[srcs] + log_pi[se] - log_q[se] - log_f[dsts]
        c = _coef(res, hp) / n_steps
        policy_loss = float(huber(res, hp).mean())
        np.add.at(g_pi, se, c)
        np.add.at(g_q, se, -c)
        np.add.at(g_lf, srcs, c)
        live = ~mdp.terminal[dsts]
        np.add.at(g_lf, dsts[live], -c[live])

    elif config.objective == "stb":
        policy_loss = 0.0
        for i, traj in enumerate(batch.trajectories):
            t = len(traj.edges)
            v = log_f[traj.states]
            x = log_pi[traj.edges] - log_q[traj.edges]
            d = cross_cumsum(v, x)
            ii, jj = np.triu_indices(t)
            w = np.zeros((t, t))
            w[ii, jj] = config.lambda_stb ** (jj - ii + 1)
            w /= w.sum()
            policy_loss += float((w * huber(d, hp)).sum()) / n_traj
            cmat = w * (_coef(d, hp) / n_traj)
            # coefficient on step t is the mass of all (i, j) with i<=t<=j
            a = np.cumsum(cmat, axis=0)
            cover = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
            coef = np.diagonal(cover).copy()
            np.add.at(g_pi, traj.edges, coef)
            np.add.at(g_q, traj.edges, -coef)
            row = cmat.sum(axis=1)  # coefficient +1 on v[i]
            col = cmat.sum(axis=0)  # coefficient -1 on v[j+1]
            vcoef = np.concatenate([row, [0.0]])
            vcoef[1:] -= col
            live = ~mdp.terminal[traj.states]
            np.add.at(g_lf, traj.states[live], vcoef[live])

    elif config.objective == "fm":
        # flow matching residual per visited state, deduplicated by state
        # with visit multiplicities (the residual depends on the state only)
        counts = np.zeros(mdp.n_states)
        for traj in batch.trajectories:
            np.add.at(counts, traj.states, 1.0)
        n_occ = float(counts.sum())
        visited = np.flatnonzero(counts)
        policy_loss = 0.0
        pi = np.exp(log_pi)
        for s in visited:
            out_ids = mdp.out_edge_ids(s)
            out_terms = np.append(log_f[s] + log_pi[out_ids], mdp.log_target[s])
            lse_out = logsumexp(out_terms)
            in_ids = mdp.in_edge_ids(s)
            if len(in_ids) == 0:
                in_terms = np.array([model.log_z])
            else:
                in_terms = log_f[mdp.edge_src[in_ids]] + log_pi[in_ids]
            lse_in = logsumexp(in_terms)
            res = lse_out - lse_in
            weight = counts[s] / n_occ
            policy_loss += weight * float(huber(res, hp))
            c = weight * float(_coef(res, hp))
            w_out = np.exp(out_terms - lse_out)
            if len(out_ids):
                np.add.at(g_pi, out_ids, c * w_out[:-1])
                if not mdp.terminal[s]:
                    g_lf[s] += c * w_out[:-1].sum()
            w_in = np.exp(in_terms - lse_in)
            if len(in_ids) == 0:
                g_z -= c
            else:
                np.add.at(g_pi, in_ids, -c * w_in)
                in_srcs = mdp.edge_src[in_ids]
                live = ~mdp.terminal[in_srcs]
                np.add.at(g_lf, in_srcs[live], -c * w_in[live])
    else:  # pragma: no cover - config.validate() rejects unknown objectives
        raise ValueError(config.objective)

    # ---- n objective ------------------------------------------------------
    g_ql = np.zeros(mdp.n_edges)  # coefficients on the l-induced backward
    n_loss = 0.0
    if config.n_objective == "bellman":
        counts = np.zeros(mdp.n_states)
        for traj in batch.trajectories:
            np.add.at(counts, traj.states[1:], 1.0)
        n_occ = float(counts.sum())
        for s in np.flatnonzero(counts):
            ids = mdp.in_edge_ids(s)
            parent_l = model.l_hat[mdp.edge_src[ids]]
            lse = logsumexp(parent_l)
            res = float(model.l_hat[s]) - lse
            weight = counts[s] / n_occ
            n_loss += weight * float(huber(res, hp))
            c = weight * float(_coef(res, hp))
            g_l[s] += c
            np.add.at(g_l, mdp.edge_src[ids], -c * np.exp(parent_l - lse))
    elif config.n_objective == "trajectory":
        log_ql = backward_from_counts(mdp, model.l_hat)
        sum_ql = np.zeros(n_traj)
        np.add.at(sum_ql, st, log_ql[se])
        res = model.l_hat[batch.terminals] + sum_ql
        c = _coef(res, hp) / n_traj
        n_loss = float(huber(res, hp).mean())
        np.add.at(g_l, batch.terminals, c)
        np.add.at(g_ql, se, c[st])

    # ---- convert primitive coefficients into parameter gradients ----------
    grads = {k: np.zeros_like(v) for k, v in model.param_groups().items()}

    seg = np.zeros(mdp.n_states)
    np.add.at(seg, mdp.edge_src, g_pi)
    grads["forward"] = g_pi - np.exp(log_pi) * seg[mdp.edge_src]

    if config.backward == "free":
        seg = np.zeros(mdp.n_states)
        np.add.at(seg, mdp.edge_dst, g_q)
        grads["backward"] = g_q - np.exp(log_q) * seg[mdp.edge_dst]

    g_through_q = g_ql.copy()
    if q_trains_l:
        g_through_q += g_q
    if g_through_q.any():
        log_ql = backward_from_counts(mdp, model.l_hat)
        np.add.at(g_l, mdp.edge_src, g_through_q)
        seg = np.zeros(mdp.n_states)
        np.add.at(seg, mdp.edge_dst, g_through_q)
        g_l -= np.bincount(
            mdp.edge_src,
            weights=seg[mdp.edge_dst] * np.exp(log_ql),
            minlength=mdp.n_states,
        )

    grads["l"] = g_l
    grads["l"][mdp.initial] = 0.0
    g_lf[mdp.terminal] = 0.0
    grads["log_f"] = g_lf
    grads["log_z"] = np.array([g_z])

    total = policy_loss + n_loss
    if not np.isfinite(total):
        raise NonFiniteGradient(f"non-finite loss {total}")
    stats = {"loss": total, "policy_loss": policy_loss, "n_loss": n_loss}
    return stats, grads


# ---------------------------------------------------------------------------
# Adam, repin and the EMA group by group, with the moments in per-group dicts


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def adam_init(model: PolicyModel) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in model.param_groups().items()},
        v={k: np.zeros_like(p) for k, p in model.param_groups().items()},
    )


def optimizer_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> None:
    """One Adam step (betas 0.9, 0.999, eps 1e-8), in place on the parameters."""
    beta1, beta2 = 0.9, 0.999
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for key, p in params.items():
        g = grads[key]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in group {key!r}")
        state.m[key] = beta1 * state.m[key] + (1.0 - beta1) * g
        state.v[key] = beta2 * state.v[key] + (1.0 - beta2) * g * g
        p -= learning_rate * (state.m[key] / bc1) / (np.sqrt(state.v[key] / bc2) + 1e-8)


def repin(model: PolicyModel, mdp: EnumeratedMdp) -> None:
    """Re-apply the pinned initial count and clamped terminal flows."""
    model.l_hat[mdp.initial] = 0.0
    model.log_f_hat[mdp.terminal] = mdp.log_target[mdp.terminal]


def ema_update(
    sampling_model: PolicyModel, train_model: PolicyModel, decay: float
) -> PolicyModel:
    """sampling <- decay * sampling + (1 - decay) * train, in place."""
    s, t = sampling_model.param_groups(), train_model.param_groups()
    for key in s:
        s[key] *= decay
        s[key] += (1.0 - decay) * t[key]
    return sampling_model


# ---------------------------------------------------------------------------
# the whole-table training loss: every softmax and softmax VJP on all E edges


def _dense_resolve_backward(mdp, model, config, exact_l):
    """Per-edge log q and whether gradients flow into l_hat through it."""
    if config.backward == "uniform":
        return exact.backward_uniform(mdp), False
    if config.backward == "maxent-known":
        if exact_l is None:
            raise BackwardRequiresL("backward='maxent-known' needs exact_l")
        return exact.backward_maxent(mdp, exact_l), False
    if config.backward == "maxent-learned":
        if config.n_objective == "none" and exact_l is None:
            raise BackwardRequiresL(
                "backward='maxent-learned' with n_objective='none' would use an "
                "untrained l_hat; supply exact_l or enable an n objective"
            )
        return learner.backward_from_counts(mdp, model.l_hat), True
    return exact.backward_softmax(mdp, model.backward_logits), False


def huber(x, params: HuberParams = HuberParams()):
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    quad = 0.5 * x * x / params.delta
    lin = params.beta * (a - 0.5 * params.beta) / params.delta
    out = np.where(a <= params.beta, quad, lin)
    return float(out) if out.ndim == 0 else out


def huber_grad(x, params: HuberParams = HuberParams()):
    x = np.asarray(x, dtype=float)
    out = np.where(
        np.abs(x) <= params.beta, x / params.delta, params.beta * np.sign(x) / params.delta
    )
    return float(out) if out.ndim == 0 else out


def _coef(res, hp: HuberParams):
    """Huber gradient of residuals, with the sub-tolerance deadband of
    RESIDUAL_TOL applied."""
    return np.where(np.abs(res) > RESIDUAL_TOL, huber_grad(res, hp), 0.0)


def subtrajectory_residuals(start, end, x, cells) -> np.ndarray:
    """Residual start[b, i] - end[b, j + 1] + x[b, i] + ... + x[b, j] of each
    cell (b, i, j).  ``start``/``end`` are (B, T+1) per-state values read
    where a cell begins/ends; ``x`` is (B, T) per-step values, zero past each
    row's end, so prefix sums restart at every row (rounding grows with T,
    not B*T)."""
    b, i, j = cells
    y = np.zeros(start.shape)
    np.cumsum(x, axis=1, out=y[:, 1:])
    return start[b, i] - end[b, j + 1] + (y[b, j + 1] - y[b, i])


def subtrajectory_transpose(coef, cells, shape):
    """Coefficients of sum(coef * residual) on ``start``, ``end`` (both of
    ``shape``, (B, T+1)) and ``x`` ((B, T)).  A step's coefficient is the
    mass of the cells covering it: a cumsum of the other two along the row,
    since each cell adds +coef at its start and -coef past its end."""
    b, i, j = cells
    n, width = shape
    g_start = np.bincount(b * width + i, weights=coef, minlength=n * width)
    g_end = -np.bincount(b * width + j + 1, weights=coef, minlength=n * width)
    g_start, g_end = g_start.reshape(shape), g_end.reshape(shape)
    return g_start, g_end, np.cumsum(g_start + g_end, axis=1)[:, :-1]


def _dense_balance(batch, v, x, cell_set, hp, head=None):
    """``learner._balance`` reading the per-edge table ``x`` at the steps and
    returning per-edge coefficients on it."""
    cells, weights = cell_set
    rows = batch.state_rows
    end = v[rows]
    start = end if head is None else np.concatenate(
        [np.full((len(rows), 1), head), end[:, 1:]], axis=1)
    x_rows = np.zeros(rows.size - len(rows))
    x_rows[batch.step_pos] = x[batch.step_edge]
    res = subtrajectory_residuals(start, end, x_rows.reshape(len(rows), -1), cells)
    g_start, g_end, g_x = subtrajectory_transpose(
        weights * _coef(res, hp), cells, rows.shape)
    g_head = 0.0
    if head is not None:
        g_head = float(g_start[:, 0].sum())
        g_start[:, 0] = 0.0
    g_v = np.bincount(rows.ravel(), (g_start + g_end).ravel(), len(v))
    g_x = np.bincount(batch.step_edge, g_x.ravel()[batch.step_pos], len(x))
    return float((weights * huber(res, hp)).sum()), g_v, g_x, g_head


def _dense_in_balance(mdp, v, w, visits, hp, head):
    """``learner._in_balance`` on the states of ``visits``, with a per-edge
    table ``w``."""
    counts = np.bincount(visits, minlength=mdp.n_states)
    states = np.flatnonzero(counts)
    weight = counts[states] / float(counts.sum())
    pos, _ = segment_positions(mdp.in_offset, states)
    edges = mdp.in_edges[pos]
    srcs = mdp.edge_src[edges]
    terms = v[srcs] + w[edges]
    n_in = np.diff(mdp.in_offset)[states]
    lse = np.full(len(states), head)
    lse[n_in > 0] = segment_logsumexp(terms, n_in[n_in > 0])
    res = v[states] - lse
    c = weight * _coef(res, hp)
    c_in = -np.repeat(c, n_in) * np.exp(terms - np.repeat(lse, n_in))
    g_v = np.bincount(np.concatenate([states, srcs]), np.concatenate([c, c_in]), len(v))
    g_w = np.bincount(edges, c_in, len(w))
    return float((weight * huber(res, hp)).sum()), g_v, g_w, -float(c[n_in == 0].sum())


def _dense_softmax_vjp(g, log_p, segment, n_segments):
    """Coefficients on the logits of a segment softmax, given those on its
    log-probabilities: g - p * (sum of g over the segment)."""
    seg = np.bincount(segment, weights=g, minlength=n_segments)
    return g - np.exp(log_p) * seg[segment]


def dense_loss_and_grads(mdp, model, batch, config, exact_l=None):
    """``learner.compute_loss_and_grads`` with every softmax, backward and
    softmax VJP computed on the whole edge table."""
    if batch.lengths.size == 0:
        raise ValueError("batch must be nonempty")

    log_pi = model.forward_log_probs(mdp)
    log_q, q_trains_l = _dense_resolve_backward(mdp, model, config, exact_l)
    log_ql = None  # the l-induced backward, when anything reads it
    if q_trains_l or config.n_objective == "trajectory":
        log_ql = log_q if q_trains_l else learner.backward_from_counts(mdp, model.l_hat)
    log_f = model.clamped_log_f(mdp)
    l_known = config.backward == "maxent-known"
    hp = config.huber
    lengths = batch.lengths

    g_q = np.zeros(mdp.n_edges)  # coefficients on log q however it is produced
    g_lf = np.zeros(mdp.n_states)
    g_l = np.zeros(mdp.n_states)  # direct l terms (not through log q)
    g_ql = np.zeros(mdp.n_edges)  # coefficients on the l-induced backward

    if config.objective in ("tb", "db", "stb"):
        cell_set = (trajectory_cells(lengths) if config.objective == "tb"
                    else step_cells(lengths) if config.objective == "db"
                    else subtrajectory_cells(lengths, config.lambda_stb))
        head = model.log_z if config.objective == "tb" else None
        policy_loss, g_lf, g_pi, g_z = _dense_balance(
            batch, log_f, log_pi - log_q, cell_set, hp, head)
        g_q = -g_pi
    elif config.objective == "pcl":
        terminal_v = mdp.log_target - (exact_l if l_known else model.l_hat)
        policy_loss, g_v, g_pi, g_z = _dense_balance(
            batch, terminal_v, log_pi, trajectory_cells(lengths), hp, model.log_z)
        if not l_known:
            g_l -= g_v
    elif config.objective == "fm":
        visits = np.concatenate([mdp.edge_src[batch.step_edge], batch.terminals])
        policy_loss, g_lf, g_pi, g_z = _dense_in_balance(
            mdp, log_f, log_pi, visits, hp, model.log_z)
    else:
        raise ValueError(config.objective)

    n_loss = 0.0
    if config.n_objective == "bellman":
        n_loss, g_v, _, _ = _dense_in_balance(mdp, model.l_hat, np.zeros(mdp.n_edges),
                                              mdp.edge_dst[batch.step_edge], hp, 0.0)
        g_l += g_v
    elif config.n_objective == "trajectory":
        n_loss, g_v, g_ql, _ = _dense_balance(
            batch, -model.l_hat, log_ql, trajectory_cells(lengths), hp, 0.0)
        g_l -= g_v

    g_back = np.zeros(mdp.n_edges)
    if config.backward == "free":
        g_back = _dense_softmax_vjp(g_q, log_q, mdp.edge_dst, mdp.n_states)
    if log_ql is not None:
        g_through_q = g_ql + g_q if q_trains_l else g_ql
        g_l += np.bincount(
            mdp.edge_src,
            weights=_dense_softmax_vjp(g_through_q, log_ql, mdp.edge_dst, mdp.n_states),
            minlength=mdp.n_states,
        )
    g_l[mdp.initial] = 0.0
    g_lf[mdp.terminal] = 0.0
    grads = {
        "forward": _dense_softmax_vjp(g_pi, log_pi, mdp.edge_src, mdp.n_states),
        "backward": g_back,
        "l": g_l,
        "log_f": g_lf,
        "log_z": np.array([g_z]),
    }
    # laid out as the model's parameters, every group in Adam's reach
    grads = model.split(np.concatenate([grads[k] for k in PARAM_GROUPS]))

    total = policy_loss + n_loss
    if not np.isfinite(total):
        raise NonFiniteGradient(f"non-finite loss {total}")
    stats = {"loss": total, "policy_loss": policy_loss, "n_loss": n_loss}
    return stats, grads
