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
from dataclasses import dataclass, field, fields

import numpy as np

from . import exact, metrics
from .mdp import EnumeratedMdp, Trajectory, segment_positions

# ``logsumexp`` and ``cross_cumsum`` are not called here; benchmarks/tracer.py
# counts calls made through this module's names for them.
from .numerics import logsumexp  # noqa: F401
from .numerics import segment_log_softmax, segment_logsumexp
from .objectives import cross_cumsum  # noqa: F401
from .objectives import (
    HuberParams,
    backward_from_counts,
    huber,
    huber_grad,
    row_positions,
    step_cells,
    subtrajectory_cells,
    subtrajectory_residuals,
    subtrajectory_transpose,
    trajectory_cells,
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
            log_z_hat=draw(1),
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
        return PolicyModel(**{f.name: getattr(self, f.name).copy() for f in fields(self)})

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

    @staticmethod
    def _free(mdp: EnumeratedMdp) -> dict[str, np.ndarray]:
        """The entries training moves where a group has pinned or clamped ones."""
        return {
            "l": np.setdiff1d(np.arange(mdp.n_states), np.asarray(mdp.initials)),
            "log_f": np.flatnonzero(~mdp.terminal),
        }

    def pack(self, mdp: EnumeratedMdp) -> np.ndarray:
        return self.pack_grads(mdp, self.param_groups())

    def unpack(self, mdp: EnumeratedMdp, vec: np.ndarray) -> "PolicyModel":
        out = self.copy()
        free, pos = self._free(mdp), 0
        for key, p in out.param_groups().items():
            at = free.get(key, slice(None))
            n = len(p[at])
            p[at] = vec[pos : pos + n]
            pos += n
        return out

    def pack_grads(self, mdp: EnumeratedMdp, grads: dict[str, np.ndarray]) -> np.ndarray:
        free = self._free(mdp)
        return np.concatenate([grads[k][free.get(k, slice(None))] for k in PARAM_GROUPS])


def _segment_log_softmax(mdp: EnumeratedMdp, logits: np.ndarray, by_src: bool) -> np.ndarray:
    if by_src:
        return segment_log_softmax(logits, mdp.out_offset)
    out = np.empty(mdp.n_edges)
    out[mdp.in_edges] = segment_log_softmax(logits[mdp.in_edges], mdp.in_offset)
    return out


@dataclass
class RolloutBatch:
    """Sampled trajectories plus flattened per-step caches and the padded
    rows the sub-trajectory residuals read."""

    trajectories: list[Trajectory]
    step_traj: np.ndarray  # trajectory index per flat step
    step_edge: np.ndarray  # edge id per flat step
    lengths: np.ndarray  # [B]
    terminals: np.ndarray  # [B] terminal state id per trajectory
    step_pos: np.ndarray  # flat index of each flat step in the [B, T] step rows
    state_rows: np.ndarray  # [B, T+1] state ids, padded with the terminal

    @classmethod
    def from_trajectories(cls, trajectories: list[Trajectory]) -> "RolloutBatch":
        def flat(arrays):
            return np.concatenate(arrays + [np.zeros(0, dtype=np.int64)]).astype(np.int64)

        lengths = np.array([len(t) for t in trajectories], dtype=np.int64)
        terminals = np.array([t.end for t in trajectories], dtype=np.int64)
        width = int(lengths.max(initial=0))
        step_traj, step_k = row_positions(lengths)
        state_rows = np.repeat(terminals, width + 1).reshape(len(lengths), width + 1)
        state_rows[row_positions(lengths + 1)] = flat([t.states for t in trajectories])
        return cls(
            trajectories=trajectories,
            step_traj=step_traj,
            step_edge=flat([t.edges for t in trajectories]),
            lengths=lengths,
            terminals=terminals,
            step_pos=step_traj * width + step_k,
            state_rows=state_rows,
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


def _coef(res, hp: HuberParams):
    """Huber gradient of residuals, with the sub-tolerance deadband of
    RESIDUAL_TOL applied."""
    res = np.asarray(res, dtype=float)
    return np.where(np.abs(res) > RESIDUAL_TOL, huber_grad(res, hp), 0.0)


def _balance(batch: RolloutBatch, v, x, cell_set, hp: HuberParams, head=None):
    """Weighted Huber loss of one sub-trajectory family and its coefficients
    on the per-state table ``v``, the per-edge table ``x`` and ``head``.

    A cell reads ``v`` at its two ends and sums ``x`` over its steps;
    ``head`` replaces ``v`` where a cell starts at a trajectory's first state.
    """
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


def _visits(mdp: EnumeratedMdp, states: np.ndarray):
    """The distinct visited states and each one's share of the visits."""
    counts = np.bincount(states, minlength=mdp.n_states)
    visited = np.flatnonzero(counts)
    return visited, counts[visited] / float(counts.sum())


def _softmax_vjp(g, log_p, segment, n_segments: int) -> np.ndarray:
    """Coefficients on the logits of a segment softmax, given those on its
    log-probabilities: g - p * (sum of g over the segment)."""
    seg = np.bincount(segment, weights=g, minlength=n_segments)
    return g - np.exp(log_p) * seg[segment]


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
    if len(batch.trajectories) == 0:
        raise ValueError("batch must be nonempty")

    log_pi = model.forward_log_probs(mdp)
    log_q, q_trains_l = _resolve_backward(mdp, model, config, exact_l)
    log_ql = None  # the l-induced backward, when anything reads it
    if q_trains_l or config.n_objective == "trajectory":
        log_ql = log_q if q_trains_l else backward_from_counts(mdp, model.l_hat)
    log_f = model.clamped_log_f(mdp)
    l_known = config.backward == "maxent-known"
    hp = config.huber
    lengths = batch.lengths

    g_pi = np.zeros(mdp.n_edges)
    g_q = np.zeros(mdp.n_edges)  # coefficients on log q however it is produced
    g_lf = np.zeros(mdp.n_states)
    g_l = np.zeros(mdp.n_states)  # direct l terms (not through log q)
    g_ql = np.zeros(mdp.n_edges)  # coefficients on the l-induced backward

    # ---- policy objective ------------------------------------------------
    # tb, db and stb: log F at both ends (clamped to log p~ at terminals, tb
    # reads log Z at s0) and log pi - log q per step, over the whole
    # trajectory, each step or every sub-trajectory; pcl: log Z at s0, the
    # count-corrected terminal value log p~ - l, and log pi per step
    if config.objective in ("tb", "db", "stb"):
        cell_set = (trajectory_cells(lengths) if config.objective == "tb"
                    else step_cells(lengths) if config.objective == "db"
                    else subtrajectory_cells(lengths, config.lambda_stb))
        head = model.log_z if config.objective == "tb" else None
        policy_loss, g_lf, g_pi, g_z = _balance(
            batch, log_f, log_pi - log_q, cell_set, hp, head)
        g_q = -g_pi
    elif config.objective == "pcl":
        terminal_v = mdp.log_target - (exact_l if l_known else model.l_hat)
        policy_loss, g_v, g_pi, g_z = _balance(
            batch, terminal_v, log_pi, trajectory_cells(lengths), hp, model.log_z)
        if not l_known:
            g_l -= g_v
    elif config.objective == "fm":
        # flow matching per visited state, weighted by visits (a trajectory
        # visits its steps' sources and its terminal); the out side
        # sum_a F(s) pi(a|s) is F(s), the target at terminals, the in side
        # the in-flows, or log Z alone for a state without parents
        visited, weight = _visits(
            mdp, np.concatenate([mdp.edge_src[batch.step_edge], batch.terminals]))
        in_pos, in_starts = segment_positions(mdp.in_offset, visited)
        in_ids = mdp.in_edges[in_pos]
        in_srcs = mdp.edge_src[in_ids]
        in_terms = log_f[in_srcs] + log_pi[in_ids]
        n_in = np.diff(mdp.in_offset)[visited]
        lse_in = np.full(len(visited), model.log_z)
        lse_in[n_in > 0] = segment_logsumexp(in_terms, in_starts[n_in > 0])

        res = log_f[visited] - lse_in
        policy_loss = float((weight * huber(res, hp)).sum())
        c = weight * _coef(res, hp)
        g_lf[visited] = c
        g_z = -float(c[n_in == 0].sum())
        c_in = -np.repeat(c, n_in) * np.exp(in_terms - np.repeat(lse_in, n_in))
        np.add.at(g_pi, in_ids, c_in)
        np.add.at(g_lf, in_srcs, c_in)
    else:  # pragma: no cover - config.validate() rejects unknown objectives
        raise ValueError(config.objective)

    # ---- n objective ------------------------------------------------------
    n_loss = 0.0
    if config.n_objective == "bellman":
        visited, weight = _visits(mdp, mdp.edge_dst[batch.step_edge])
        pos, starts = segment_positions(mdp.in_offset, visited)
        parent = mdp.edge_src[mdp.in_edges[pos]]
        parent_l = model.l_hat[parent]
        lse = segment_logsumexp(parent_l, starts)
        res = model.l_hat[visited] - lse
        n_loss = float((weight * huber(res, hp)).sum())
        c = weight * _coef(res, hp)
        g_l[visited] += c
        n_in = np.diff(mdp.in_offset)[visited]
        np.add.at(g_l, parent, -np.repeat(c, n_in) * np.exp(parent_l - np.repeat(lse, n_in)))
    elif config.n_objective == "trajectory":
        # l(s_T) + sum log q_l, with the pinned l(s_0) = 0 as the head
        n_loss, g_v, g_ql, _ = _balance(
            batch, -model.l_hat, log_ql, trajectory_cells(lengths), hp, 0.0)
        g_l -= g_v

    # ---- convert primitive coefficients into parameter gradients ----------
    g_back = np.zeros(mdp.n_edges)
    if config.backward == "free":
        g_back = _softmax_vjp(g_q, log_q, mdp.edge_dst, mdp.n_states)
    if log_ql is not None:
        g_through_q = g_ql + g_q if q_trains_l else g_ql
        g_l += np.bincount(
            mdp.edge_src,
            weights=_softmax_vjp(g_through_q, log_ql, mdp.edge_dst, mdp.n_states),
            minlength=mdp.n_states,
        )
    g_l[list(mdp.initials)] = 0.0
    g_lf[mdp.terminal] = 0.0
    grads = {
        "forward": _softmax_vjp(g_pi, log_pi, mdp.edge_src, mdp.n_states),
        "backward": g_back,
        "l": g_l,
        "log_f": g_lf,
        "log_z": np.array([g_z]),
    }

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


MetricsRow.FIELDS = tuple(f.name for f in fields(MetricsRow))


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
