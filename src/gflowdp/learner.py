"""Tabular stochastic-gradient training of policies, flows, counts, and Z.

The model is a flat table per parameter group: forward logits per edge,
backward logits per edge (free-backward variant only), a log path-count
estimate per state (initial pinned to 0), a log state-flow estimate per
state (terminals clamped to the target), and a scalar log-Z estimate.
Gradients are computed analytically; ``tests`` cross-check every
objective/backward combination against central finite differences.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import exact, metrics
from .mdp import EnumeratedMdp, Trajectory, segment_positions

# ``logsumexp`` is no longer called here; benchmarks/tracer.py counts calls
# made through this module's name for it.
from .numerics import logsumexp  # noqa: F401
from .numerics import segment_log_softmax, segment_logsumexp, segment_sum
from .objectives import (
    HuberParams,
    backward_from_counts,
    cross_cumsum,
    huber,
    huber_grad,
)

OBJECTIVES = ("tb", "db", "stb", "fm", "pcl")
BACKWARDS = ("uniform", "maxent-known", "maxent-learned", "free")
N_OBJECTIVES = ("none", "bellman", "trajectory")

PARAM_GROUPS = ("forward", "backward", "l", "log_f", "log_z")

# Residuals below double-precision resolution are rounding noise, but Adam's
# scale-free steps would amplify them into an lr-sized noise ball around an
# exact fixed point.  Gradients ignore residuals this small so exact tables
# stay exactly stationary.
RESIDUAL_TOL = 1e-12


class LearnerError(Exception):
    pass


class BackwardRequiresL(LearnerError):
    """The chosen backward needs a path-count table nobody is providing."""


class NonFiniteGradient(LearnerError):
    pass


class ModelMismatch(LearnerError):
    """A model file is malformed, or its tables do not have the lengths of
    the MDP it is used on."""


@dataclass
class TrainConfig:
    objective: str = "tb"
    backward: str = "maxent-learned"
    n_objective: str = "trajectory"
    learning_rate: float = 5e-4
    batch_size: int = 256
    epsilon_uniform: float = 1e-3
    reward_exponent: float = 1.0
    lambda_stb: float = 1.0
    huber: HuberParams = field(default_factory=HuberParams)
    steps: int = 1000
    seed: int = 0
    ema_decay: float = 0.95

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.backward not in BACKWARDS:
            raise ValueError(f"backward must be one of {BACKWARDS}")
        if self.n_objective not in N_OBJECTIVES:
            raise ValueError(f"n_objective must be one of {N_OBJECTIVES}")
        for name in ("learning_rate", "reward_exponent", "lambda_stb"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.epsilon_uniform <= 1.0:
            raise ValueError("epsilon_uniform must be in [0, 1]")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError("ema_decay must be in [0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class PolicyModel:
    """Mutable parameter tables; see module docstring for the groups."""

    forward_logits: np.ndarray  # [E]
    backward_logits: np.ndarray  # [E]
    l_hat: np.ndarray  # [S], l_hat[initial] pinned to 0
    log_f_hat: np.ndarray  # [S], terminal entries clamped to log target
    log_z_hat: np.ndarray  # shape (1,)

    @classmethod
    def init(
        cls,
        mdp: EnumeratedMdp,
        rng: np.random.Generator | None = None,
        scale: float = 0.0,
    ) -> "PolicyModel":
        """Zero-initialized (uniform policy) or Gaussian logits of the given scale."""

        def draw(shape):
            if rng is None or scale == 0.0:
                return np.zeros(shape)
            return rng.normal(0.0, scale, shape)

        model = cls(
            forward_logits=draw(mdp.n_edges),
            backward_logits=draw(mdp.n_edges),
            l_hat=draw(mdp.n_states),
            log_f_hat=draw(mdp.n_states),
            log_z_hat=np.array(
                [0.0 if rng is None or scale == 0.0 else rng.normal(0.0, scale)]
            ),
        )
        model.repin(mdp)
        return model

    @classmethod
    def from_exact(cls, mdp: EnumeratedMdp, tables: exact.ExactTables) -> "PolicyModel":
        """Initialize at the fixed point: every residual is zero there."""
        log_pi = exact.gsql_policy(mdp, tables.l)
        log_q = exact.backward_maxent(mdp, tables.l)
        return cls(
            forward_logits=log_pi.copy(),
            backward_logits=log_q.copy(),
            l_hat=tables.l.copy(),
            log_f_hat=tables.logF.copy(),
            log_z_hat=np.array([tables.logZ]),
        )

    def repin(self, mdp: EnumeratedMdp) -> None:
        """Re-apply the pinned initial count and clamped terminal flows."""
        for s0 in mdp.initials:
            self.l_hat[s0] = 0.0
        self.log_f_hat[mdp.terminal] = mdp.log_target[mdp.terminal]

    def copy(self) -> "PolicyModel":
        return PolicyModel(
            forward_logits=self.forward_logits.copy(),
            backward_logits=self.backward_logits.copy(),
            l_hat=self.l_hat.copy(),
            log_f_hat=self.log_f_hat.copy(),
            log_z_hat=self.log_z_hat.copy(),
        )

    def param_groups(self) -> dict[str, np.ndarray]:
        return {
            "forward": self.forward_logits,
            "backward": self.backward_logits,
            "l": self.l_hat,
            "log_f": self.log_f_hat,
            "log_z": self.log_z_hat,
        }

    @property
    def log_z(self) -> float:
        return float(self.log_z_hat[0])

    def check_fits(self, mdp: EnumeratedMdp) -> None:
        """Raise ModelMismatch unless every table has the MDP's length."""
        lengths = {
            "forward_logits": (len(self.forward_logits), mdp.n_edges),
            "backward_logits": (len(self.backward_logits), mdp.n_edges),
            "l_hat": (len(self.l_hat), mdp.n_states),
            "log_f_hat": (len(self.log_f_hat), mdp.n_states),
        }
        for name, (have, want) in lengths.items():
            if have != want:
                raise ModelMismatch(
                    f"model {name} has {have} entries but the MDP has "
                    f"{mdp.n_states} states and {mdp.n_edges} edges"
                )

    def forward_log_probs(self, mdp: EnumeratedMdp) -> np.ndarray:
        """Softmax of forward logits within each state's out-edge segment."""
        self.check_fits(mdp)
        return _segment_log_softmax(mdp, self.forward_logits, by_src=True)

    def free_backward_log_probs(self, mdp: EnumeratedMdp) -> np.ndarray:
        return _segment_log_softmax(mdp, self.backward_logits, by_src=False)

    def clamped_log_f(self, mdp: EnumeratedMdp) -> np.ndarray:
        out = self.log_f_hat.copy()
        out[mdp.terminal] = mdp.log_target[mdp.terminal]
        return out

    # free-parameter vector, used by the finite-difference checks -----------

    def pack(self, mdp: EnumeratedMdp) -> np.ndarray:
        free_l = np.setdiff1d(np.arange(mdp.n_states), np.asarray(mdp.initials))
        free_f = np.flatnonzero(~mdp.terminal)
        return np.concatenate(
            [
                self.forward_logits,
                self.backward_logits,
                self.l_hat[free_l],
                self.log_f_hat[free_f],
                self.log_z_hat,
            ]
        )

    def unpack(self, mdp: EnumeratedMdp, vec: np.ndarray) -> "PolicyModel":
        out = self.copy()
        e = mdp.n_edges
        free_l = np.setdiff1d(np.arange(mdp.n_states), np.asarray(mdp.initials))
        free_f = np.flatnonzero(~mdp.terminal)
        out.forward_logits = vec[:e].copy()
        out.backward_logits = vec[e : 2 * e].copy()
        pos = 2 * e
        out.l_hat[free_l] = vec[pos : pos + len(free_l)]
        pos += len(free_l)
        out.log_f_hat[free_f] = vec[pos : pos + len(free_f)]
        pos += len(free_f)
        out.log_z_hat = np.array([vec[pos]])
        return out

    def pack_grads(self, mdp: EnumeratedMdp, grads: dict[str, np.ndarray]) -> np.ndarray:
        free_l = np.setdiff1d(np.arange(mdp.n_states), np.asarray(mdp.initials))
        free_f = np.flatnonzero(~mdp.terminal)
        return np.concatenate(
            [
                grads["forward"],
                grads["backward"],
                grads["l"][free_l],
                grads["log_f"][free_f],
                grads["log_z"],
            ]
        )


def _segment_log_softmax(mdp: EnumeratedMdp, logits: np.ndarray, by_src: bool) -> np.ndarray:
    if by_src:
        return segment_log_softmax(logits, mdp.out_offset)
    out = np.empty(mdp.n_edges)
    out[mdp.in_edges] = segment_log_softmax(logits[mdp.in_edges], mdp.in_offset)
    return out


@dataclass
class RolloutBatch:
    """Sampled trajectories plus flattened per-step caches."""

    trajectories: list[Trajectory]
    step_traj: np.ndarray  # trajectory index per flat step
    step_edge: np.ndarray  # edge id per flat step
    lengths: np.ndarray  # [B]
    terminals: np.ndarray  # [B] terminal state id per trajectory

    @classmethod
    def from_trajectories(cls, trajectories: list[Trajectory]) -> "RolloutBatch":
        step_traj = np.concatenate(
            [np.full(len(t), i, dtype=np.int64) for i, t in enumerate(trajectories)]
        ) if trajectories else np.zeros(0, dtype=np.int64)
        step_edge = np.concatenate(
            [t.edges for t in trajectories]
        ) if trajectories else np.zeros(0, dtype=np.int64)
        return cls(
            trajectories=trajectories,
            step_traj=step_traj,
            step_edge=np.asarray(step_edge, dtype=np.int64),
            lengths=np.array([len(t) for t in trajectories], dtype=np.int64),
            terminals=np.array([t.end for t in trajectories], dtype=np.int64),
        )


def _behavior_tables(mdp: EnumeratedMdp, model: PolicyModel, epsilon: float):
    """Per-edge sampling CDFs (within each state's out-edge segment) and log
    probabilities of (1-eps) * softmax(logits) + eps * uniform, as lists for
    the walker's bisection."""
    log_pi = model.forward_log_probs(mdp)
    degree = np.diff(mdp.out_offset)
    p = (1.0 - epsilon) * np.exp(log_pi) + epsilon / degree[mdp.edge_src]
    # a running sum per segment, position by position, so every CDF is added
    # in the same order as np.cumsum over that segment alone
    cdf = p.copy()
    starts = mdp.out_offset[:-1]
    for j in range(1, int(degree.max(initial=0))):
        at = starts[degree > j] + j
        cdf[at] += cdf[at - 1]
    return cdf.tolist(), np.log(p).tolist()


def _sample_one(mdp: EnumeratedMdp, tables, rng: np.random.Generator) -> Trajectory:
    cdf, log_p = tables
    s = mdp.initial
    states, actions, edges, log_b = [s], [], [], []
    while not mdp.terminal[s]:
        lo, hi = int(mdp.out_offset[s]), int(mdp.out_offset[s + 1])
        e = min(bisect.bisect_right(cdf, rng.random(), lo, hi), hi - 1)
        s = int(mdp.edge_dst[e])
        actions.append(e - lo)
        edges.append(e)
        log_b.append(log_p[e])
        states.append(s)
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        actions=np.array(actions, dtype=np.int64),
        edges=np.array(edges, dtype=np.int64),
        log_behavior=np.array(log_b, dtype=float),
    )


def sample_trajectory(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    epsilon: float,
    rng: np.random.Generator,
) -> Trajectory:
    """Roll out one trajectory under the epsilon-uniform behavior policy."""
    return _sample_one(mdp, _behavior_tables(mdp, model, epsilon), rng)


def collect_batch(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    config: TrainConfig,
    streams: list[np.random.Generator],
) -> RolloutBatch:
    """Sample a batch, round-robin across the worker RNG streams."""
    tables = _behavior_tables(mdp, model, config.epsilon_uniform)
    trajectories = [
        _sample_one(mdp, tables, streams[b % len(streams)])
        for b in range(config.batch_size)
    ]
    return RolloutBatch.from_trajectories(trajectories)


# ---------------------------------------------------------------------------
# loss and analytic gradients


def _resolve_backward(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    config: TrainConfig,
    exact_l: np.ndarray | None,
) -> tuple[np.ndarray, bool]:
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
        return backward_from_counts(mdp, model.l_hat), True
    return model.free_backward_log_probs(mdp), False


def _coef(res, hp: HuberParams, denom: float):
    """Huber gradient of residuals scaled by 1/denom, with the sub-tolerance
    deadband of RESIDUAL_TOL applied."""
    res = np.asarray(res, dtype=float)
    return np.where(np.abs(res) > RESIDUAL_TOL, huber_grad(res, hp), 0.0) / denom


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

    log_pi = model.forward_log_probs(mdp)
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
        c = _coef(res, hp, n_traj)
        policy_loss = float(huber(res, hp).mean())
        g_z += float(c.sum())
        np.add.at(g_pi, se, c[st])
        if config.objective == "tb":
            np.add.at(g_q, se, -c[st])
        elif not l_known:
            np.add.at(g_l, batch.terminals, c)

    elif config.objective == "db":
        res = log_f[srcs] + log_pi[se] - log_q[se] - log_f[dsts]
        c = _coef(res, hp, n_steps)
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
            cmat = w * _coef(d, hp, n_traj)
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
        # with visit multiplicities (the residual depends on the state only);
        # a trajectory visits the sources of its steps and its terminal
        counts = np.bincount(srcs, minlength=mdp.n_states) + np.bincount(
            batch.terminals, minlength=mdp.n_states
        )
        visited = np.flatnonzero(counts)
        weight = counts[visited] / float(counts.sum())
        rank = np.arange(len(visited))
        # out side: each state's out-flows, then its own log target
        out_ids, out_starts = segment_positions(mdp.out_offset, visited)
        n_out = np.diff(mdp.out_offset)[visited]
        out_at = np.arange(len(out_ids)) + np.repeat(rank, n_out)
        out_terms = np.empty(len(out_ids) + len(visited))
        out_terms[out_at] = log_f[mdp.edge_src[out_ids]] + log_pi[out_ids]
        out_terms[out_starts + rank + n_out] = mdp.log_target[visited]
        lse_out = segment_logsumexp(out_terms, out_starts + rank)
        # in side: the in-flows, or log Z alone for a state without parents
        in_pos, in_starts = segment_positions(mdp.in_offset, visited)
        in_ids = mdp.in_edges[in_pos]
        n_in = np.diff(mdp.in_offset)[visited]
        width = np.maximum(n_in, 1)
        in_head = np.cumsum(width) - width
        in_at = np.arange(len(in_ids)) + np.repeat(in_head - in_starts, n_in)
        in_terms = np.full(int(width.sum()), model.log_z)
        in_srcs = mdp.edge_src[in_ids]
        in_terms[in_at] = log_f[in_srcs] + log_pi[in_ids]
        lse_in = segment_logsumexp(in_terms, in_head)

        res = lse_out - lse_in
        policy_loss = float((weight * huber(res, hp)).sum())
        c = weight * _coef(res, hp, 1.0)
        w_out = np.exp(out_terms[out_at] - np.repeat(lse_out, n_out))
        np.add.at(g_pi, out_ids, np.repeat(c, n_out) * w_out)
        inner = n_out > 0
        g_lf[visited[inner]] += c[inner] * segment_sum(w_out, out_starts[inner])
        w_in = np.exp(in_terms[in_at] - np.repeat(lse_in, n_in))
        g_z -= float(c[n_in == 0].sum())
        c_in = -np.repeat(c, n_in) * w_in
        np.add.at(g_pi, in_ids, c_in)
        live = ~mdp.terminal[in_srcs]
        np.add.at(g_lf, in_srcs[live], c_in[live])
    else:  # pragma: no cover - config.validate() rejects unknown objectives
        raise ValueError(config.objective)

    # ---- n objective ------------------------------------------------------
    g_ql = np.zeros(mdp.n_edges)  # coefficients on the l-induced backward
    n_loss = 0.0
    if config.n_objective == "bellman":
        counts = np.bincount(dsts, minlength=mdp.n_states)
        visited = np.flatnonzero(counts)
        weight = counts[visited] / float(counts.sum())
        pos, starts = segment_positions(mdp.in_offset, visited)
        parent = mdp.edge_src[mdp.in_edges[pos]]
        parent_l = model.l_hat[parent]
        lse = segment_logsumexp(parent_l, starts)
        res = model.l_hat[visited] - lse
        n_loss = float((weight * huber(res, hp)).sum())
        c = weight * _coef(res, hp, 1.0)
        g_l[visited] += c
        n_in = np.diff(mdp.in_offset)[visited]
        np.add.at(g_l, parent, -np.repeat(c, n_in) * np.exp(parent_l - np.repeat(lse, n_in)))
    elif config.n_objective == "trajectory":
        log_ql = backward_from_counts(mdp, model.l_hat)
        sum_ql = np.zeros(n_traj)
        np.add.at(sum_ql, st, log_ql[se])
        res = model.l_hat[batch.terminals] + sum_ql
        c = _coef(res, hp, n_traj)
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


# ---------------------------------------------------------------------------
# optimizer


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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam step, in place on the parameter arrays."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for key, p in params.items():
        g = grads[key]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in group {key!r}")
        state.m[key] = beta1 * state.m[key] + (1.0 - beta1) * g
        state.v[key] = beta2 * state.v[key] + (1.0 - beta2) * g * g
        p -= learning_rate * (state.m[key] / bc1) / (np.sqrt(state.v[key] / bc2) + eps)


def train_step(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    batch: RolloutBatch,
    config: TrainConfig,
    opt_state: AdamState,
    exact_l: np.ndarray | None = None,
) -> dict:
    """Compute residual losses on the batch and apply one Adam update."""
    stats, grads = compute_loss_and_grads(mdp, model, batch, config, exact_l)
    optimizer_update(model.param_groups(), grads, opt_state, config.learning_rate)
    model.repin(mdp)
    return stats


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
# training loop


@dataclass(frozen=True)
class MetricsRow:
    step: int
    kl_forward: float
    kl_reverse: float
    entropy: float
    max_entropy_bound: float
    policy_loss: float
    n_loss: float
    n_mse: float
    modes_found: int

    FIELDS = (
        "step",
        "kl_forward",
        "kl_reverse",
        "entropy",
        "max_entropy_bound",
        "policy_loss",
        "n_loss",
        "n_mse",
        "modes_found",
    )


def run_training(
    mdp: EnumeratedMdp,
    config: TrainConfig,
    exact_l: np.ndarray | None = None,
    model: PolicyModel | None = None,
    workers: int = 1,
    metrics_every: int = 10,
    mode_threshold: float = 1.0,
) -> tuple[list[MetricsRow], PolicyModel]:
    """Alternate batch sampling and gradient steps, recording exact metrics.

    Sampling uses an EMA copy of the train model with epsilon-uniform
    exploration.  With reward_exponent b the trained target is p~**b.
    Deterministic given (config, workers): each worker has its own
    seed-derived stream and trajectories are assigned round-robin.
    """
    config.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    train_mdp = mdp
    if config.reward_exponent != 1.0:
        train_mdp = mdp.with_log_target(mdp.log_target * config.reward_exponent)
    if config.backward == "maxent-known" and exact_l is None:
        raise BackwardRequiresL("backward='maxent-known' needs exact_l")
    if config.backward == "maxent-learned" and config.n_objective == "none" and exact_l is None:
        raise BackwardRequiresL(
            "backward='maxent-learned' with n_objective='none' needs exact_l"
        )

    if model is None:
        model = PolicyModel.init(train_mdp)
    sampling_model = model.copy()
    opt_state = adam_init(model)
    streams = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(config.seed).spawn(workers)
    ]

    l_metrics = exact.count_paths(train_mdp)
    bound = exact.max_entropy_bound(train_mdp, l_metrics)
    log_mode_threshold = np.log(mode_threshold)
    visited: set[int] = set()
    rows: list[MetricsRow] = []
    stats = {"policy_loss": float("nan"), "n_loss": float("nan")}
    for step in range(1, config.steps + 1):
        batch = collect_batch(train_mdp, sampling_model, config, streams)
        visited.update(int(t) for t in batch.terminals)
        stats = train_step(train_mdp, model, batch, config, opt_state, exact_l)
        ema_update(sampling_model, model, config.ema_decay)
        if step % metrics_every == 0 or step == config.steps:
            log_pi = model.forward_log_probs(train_mdp)
            modes = sum(
                1 for t in visited if mdp.log_target[t] >= log_mode_threshold
            )
            rows.append(
                MetricsRow(
                    step=step,
                    kl_forward=metrics.kl_terminal(train_mdp, log_pi, "forward"),
                    kl_reverse=metrics.kl_terminal(train_mdp, log_pi, "reverse"),
                    entropy=exact.flow_entropy(train_mdp, log_pi),
                    max_entropy_bound=bound,
                    policy_loss=stats["policy_loss"],
                    n_loss=stats["n_loss"],
                    n_mse=metrics.n_mse(model.l_hat, l_metrics),
                    modes_found=modes,
                )
            )
    return rows, model
