"""The per-state Python loops of the MDP tables, the exact layer and the
training step, kept as reference oracles for the whole-array and
level-synchronous implementations.

Each function is the loop version verbatim, except that calls into
functions that were rewritten go to the loop copies in this module, and
that ``_coef`` no longer divides, so its callers here divide by their own
denominators.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from gflowdp import exact
from gflowdp.exact import NonFiniteTarget, ZeroFlow
from gflowdp.learner import (
    BackwardRequiresL,
    NonFiniteGradient,
    PolicyModel,
    RolloutBatch,
    TrainConfig,
    _coef,
)
from gflowdp.mdp import EnumeratedMdp, Trajectory, ValidationReport
from gflowdp.numerics import NEG_INF, entropy_from_log_probs, logsumexp
from gflowdp.objectives import cross_cumsum, huber


def _freeze(
    states: list[bytes],
    initials: Sequence[int],
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

    parent_slot = np.zeros(len(src), dtype=np.int64)
    for s in range(n):
        seg = in_edges[in_offset[s] : in_offset[s + 1]]
        parent_slot[seg] = np.arange(len(seg))

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


def invert_loop(mdp: EnumeratedMdp) -> EnumeratedMdp:
    """Reverse every edge: initial roles and terminal roles swap.

    Actions of the inverted MDP at a state are its original parent pairs in
    parent-list order, and the transition undoes the original action.
    Indices are reassigned in reverse topological order.  The inverted MDP
    has one initial-role state per original terminal; single-initial
    consumers reject it via ``EnumeratedMdp.initial``.  The terminal-role
    states (the original initials) get log-target 0.
    """
    n = mdp.n_states

    def rho(i: int) -> int:
        return n - 1 - i

    states = [mdp.states[rho(i)] for i in range(n)]
    edges = []
    for e in range(mdp.n_edges):
        edges.append(
            (rho(int(mdp.edge_dst[e])), int(mdp.parent_slot[e]), rho(int(mdp.edge_src[e])))
        )
    initials = tuple(sorted(rho(int(t)) for t in mdp.terminal_ids))
    terminal = np.zeros(n, dtype=bool)
    for s0 in mdp.initials:
        terminal[rho(int(s0))] = True
    log_target = np.full(n, float("-inf"))
    log_target[terminal] = 0.0
    return _freeze(states, initials, terminal, log_target, edges)


def validate_loop(mdp: EnumeratedMdp) -> ValidationReport:
    """Check all EnumeratedMdp invariants; report the first violation."""
    n, m = mdp.n_states, mdp.n_edges

    def fail(msg: str) -> ValidationReport:
        return ValidationReport(ok=False, failure=msg)

    if len(set(mdp.states)) != n:
        return fail("duplicate state encodings")
    if not mdp.initials or len(set(mdp.initials)) != len(mdp.initials):
        return fail("initial states must be nonempty and distinct")

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
        if (mdp.parent_slot[ids] != np.arange(len(ids))).any():
            return fail(f"parent_slot ranks of state {s} are wrong")

    for s in range(n):
        if mdp.terminal[s] and not np.isfinite(mdp.log_target[s]):
            return fail(f"terminal state {s} has non-finite log_target")
        if not mdp.terminal[s] and mdp.log_target[s] != float("-inf"):
            return fail(f"non-terminal state {s} has a finite log_target")

    seen = np.zeros(n, dtype=bool)
    frontier = list(mdp.initials)
    for s in frontier:
        seen[s] = True
    while frontier:
        s = frontier.pop()
        for _, c in mdp.children(s):
            if not seen[c]:
                seen[c] = True
                frontier.append(c)
    if not seen.all():
        return fail(f"state {int(np.flatnonzero(~seen)[0])} unreachable from initials")

    return ValidationReport(ok=True)


def count_paths(mdp: EnumeratedMdp) -> np.ndarray:
    """Log number of distinct trajectories from the initial state(s).

    One topological pass: l(initial)=0 and l(s') = logsumexp over parents of
    l(s).  Equivalently, the zero-reward soft value function of the inverted
    MDP.  Multi-initial MDPs (inverted ones) are allowed; every initial-role
    state contributes count 1.
    """
    l = np.full(mdp.n_states, NEG_INF)
    for s0 in mdp.initials:
        l[s0] = 0.0
    for s in range(mdp.n_states):
        ids = mdp.in_edge_ids(s)
        if len(ids) == 0:
            continue
        incoming = logsumexp(l[mdp.edge_src[ids]])
        if s in mdp.initials:
            incoming = logsumexp([incoming, l[s]])
        l[s] = incoming
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
    tables: list[tuple[np.ndarray, np.ndarray] | None] = [None] * mdp.n_states
    for s in range(mdp.n_states):
        if mdp.terminal[s]:
            continue
        sl = mdp.out_slice(s)
        k = sl.stop - sl.start
        p = (1.0 - epsilon) * np.exp(log_pi[sl]) + epsilon / k
        tables[s] = (np.cumsum(p), np.log(p))
    return tables


def _sample_one(mdp: EnumeratedMdp, tables, rng: np.random.Generator) -> Trajectory:
    s = mdp.initial
    states, actions, edges, log_b = [s], [], [], []
    while not mdp.terminal[s]:
        cdf, log_p = tables[s]
        a = int(np.searchsorted(cdf, rng.random(), side="right"))
        a = min(a, len(cdf) - 1)
        e = int(mdp.out_offset[s]) + a
        s = int(mdp.edge_dst[e])
        actions.append(a)
        edges.append(e)
        log_b.append(log_p[a])
        states.append(s)
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        actions=np.array(actions, dtype=np.int64),
        edges=np.array(edges, dtype=np.int64),
        log_behavior=np.array(log_b, dtype=float),
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
    st = batch.step_traj
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
            t = len(traj)
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
    for s0 in mdp.initials:
        grads["l"][s0] = 0.0
    g_lf[mdp.terminal] = 0.0
    grads["log_f"] = g_lf
    grads["log_z"] = np.array([g_z])

    total = policy_loss + n_loss
    if not np.isfinite(total):
        raise NonFiniteGradient(f"non-finite loss {total}")
    stats = {"loss": total, "policy_loss": policy_loss, "n_loss": n_loss}
    return stats, grads

