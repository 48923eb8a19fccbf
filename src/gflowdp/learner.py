"""Tabular stochastic-gradient training of policies, flows, counts, and Z.

The model is one float64 vector whose parts are the parameter groups:
forward logits per edge, backward logits per edge (free-backward variant
only), a log path-count estimate per state (initial pinned to 0), a log
state-flow estimate per state (terminals clamped to the target), and log Z.
Every backward is ``exact.backward_softmax`` of per-edge logits: zeros
(uniform), l_hat or exact counts (count-induced), or free logits.
The loss has two residual shapes: ``_balance`` over sub-trajectories of the
sampled rows (one call for tb, db, stb or pcl, one for n-trajectory) and
``_in_balance`` over the in-edges of the visited states (fm, n-bellman).
Loss and gradient touch only the softmax segments the batch reads, in one
``numerics.segment_log_softmax`` call, and scatter the gradients into dense
zero tables; each sum keeps the order of the whole-table computation, so
results are the same to the bit.  Adam and the EMA are one elementwise pass
each over the whole vector (Adam's momentum moves entries whose gradient is
0, and the EMA's 0.95x + 0.05x is not x to the bit), and the behaviour CDF
one pass over the edges on tables cached on the MDP.
Gradients are computed analytically; ``tests`` cross-check every
objective/backward combination against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import exact, metrics
from .mdp import EnumeratedMdp, segment_positions

# ``logsumexp``, ``cross_cumsum`` and ``backward_from_counts`` are not called
# here; benchmarks/tracer.py counts calls made through these names.
from .numerics import logsumexp  # noqa: F401
from .numerics import padded_logsumexp, segment_log_softmax, segment_logsumexp
from .objectives import cross_cumsum  # noqa: F401
from .objectives import (
    HuberParams,
    huber,
    huber_grad,
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

backward_from_counts = exact.backward_maxent

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
        choices = {"objective": OBJECTIVES, "backward": BACKWARDS, "n_objective": N_OBJECTIVES}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
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


class ParamGroups(dict):
    """A model's tables by group name, with ``flat`` the buffer they view."""

    flat: np.ndarray


@dataclass
class PolicyModel:
    """Mutable parameter tables; see module docstring for the groups.  The
    constructor copies them, in field order, into the one float64 buffer
    ``params`` and keeps each as a view of its part, so tables are written
    in place: an array assigned to an attribute would not be in ``params``."""

    forward_logits: np.ndarray  # [E]
    backward_logits: np.ndarray  # [E]
    l_hat: np.ndarray  # [S], l_hat[initial] pinned to 0
    log_f_hat: np.ndarray  # [S], terminal entries clamped to log target
    log_z_hat: np.ndarray  # shape (1,)

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        tables = [getattr(self, name) for name in names]
        self.params = np.concatenate(tables, dtype=float)
        cuts = np.cumsum([len(t) for t in tables])[:-1]
        for name, view in zip(names, np.split(self.params, cuts)):
            setattr(self, name, view)

    @classmethod
    def init(
        cls,
        mdp: EnumeratedMdp,
        rng: np.random.Generator | None = None,
        scale: float = 0.0,
    ) -> "PolicyModel":
        """Zero-initialized (uniform policy) or Gaussian logits of the given
        scale, drawn table by table in field order."""
        draw = np.zeros if rng is None or scale == 0.0 else lambda n: rng.normal(0.0, scale, n)
        model = cls(*map(draw, (mdp.n_edges, mdp.n_edges, mdp.n_states, mdp.n_states, 1)))
        model.repin(mdp)
        return model

    def repin(self, mdp: EnumeratedMdp) -> None:
        """Re-apply the pinned initial count and clamped terminal flows."""
        self.l_hat[mdp.initial] = 0.0
        self.log_f_hat[mdp.terminal] = mdp.log_target[mdp.terminal]

    def copy(self) -> "PolicyModel":
        return replace(self)

    def param_groups(self) -> ParamGroups:
        groups = ParamGroups(zip(PARAM_GROUPS, (self.forward_logits, self.backward_logits,
                                                self.l_hat, self.log_f_hat, self.log_z_hat)))
        groups.flat = self.params
        return groups

    @property
    def log_z(self) -> float:
        return float(self.log_z_hat[0])

    def check_fits(self, mdp: EnumeratedMdp) -> None:
        """Raise ModelMismatch unless every table has the MDP's length."""
        e, s = mdp.n_edges, mdp.n_states
        for name, want in (("forward_logits", e), ("backward_logits", e), ("l_hat", s),
                           ("log_f_hat", s)):
            if (have := len(getattr(self, name))) != want:
                raise ModelMismatch(
                    f"model {name} has {have} entries but the MDP has "
                    f"{mdp.n_states} states and {mdp.n_edges} edges"
                )

    def forward_log_probs(self, mdp: EnumeratedMdp) -> np.ndarray:
        """Softmax of forward logits within each state's out-edge segment:
        ``segment_log_softmax`` on the layout ``mdp.out_segments`` caches."""
        self.check_fits(mdp)
        seg = mdp.out_segments
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lse = padded_logsumexp(self.forward_logits, *seg.layout,
                                   np.zeros(mdp.n_edges + len(seg.caps)))  # a head per segment
        return self.forward_logits - np.repeat(lse, seg.layout[1])

    def clamped_log_f(self, mdp: EnumeratedMdp) -> np.ndarray:
        return np.where(mdp.terminal, mdp.log_target, self.log_f_hat)

    # free-parameter vector, used by the finite-difference checks -----------

    @staticmethod
    def _free(mdp: EnumeratedMdp) -> np.ndarray:
        """Mask over ``params`` of the entries training moves: all but the
        pinned initial count and the clamped terminal flows."""
        return np.concatenate([np.ones(2 * mdp.n_edges, dtype=bool),
                               np.arange(mdp.n_states) != mdp.initial, ~mdp.terminal, [True]])

    def pack(self, mdp: EnumeratedMdp) -> np.ndarray:
        return self.params[self._free(mdp)]

    def unpack(self, mdp: EnumeratedMdp, vec: np.ndarray) -> "PolicyModel":
        out = self.copy()
        out.params[self._free(mdp)] = vec
        return out

    def pack_grads(self, mdp: EnumeratedMdp, grads: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([grads[k] for k in PARAM_GROUPS])[self._free(mdp)]


@dataclass(frozen=True)
class SampledPath:
    """One sampled path: ``states`` [T+1] from the initial to a terminal and
    the ``edges`` [T] taken between them."""

    states: np.ndarray
    edges: np.ndarray

    @property
    def end(self) -> int:
        return int(self.states[-1])


@dataclass
class RolloutBatch:
    """Sampled paths as padded rows, with the flat per-step indexes the
    residuals read; ``trajectories`` is a per-path view built on first
    access."""

    state_rows: np.ndarray  # [B, T+1] state ids, padded with the terminal
    lengths: np.ndarray  # [B]
    terminals: np.ndarray  # [B] terminal state id per trajectory
    step_pos: np.ndarray  # flat index of each flat step in the [B, T] step rows
    step_edge: np.ndarray  # edge id per flat step

    @classmethod
    def from_rows(cls, state_rows, edge_rows):
        """The batch of ``state_rows`` and ``edge_rows`` ([B, T], -1 past
        each row's end)."""
        steps = edge_rows >= 0
        return cls(
            state_rows=state_rows,
            lengths=steps.sum(axis=1),
            terminals=state_rows[:, -1],
            step_pos=np.flatnonzero(steps),
            step_edge=edge_rows[steps],
        )

    @cached_property
    def trajectories(self) -> list[SampledPath]:
        # zip stops at the last row: a batch without walkers has one empty split
        edges = np.split(self.step_edge, np.cumsum(self.lengths)[:-1])
        return [SampledPath(states=row[: len(e) + 1], edges=e)
                for row, e in zip(self.state_rows, edges)]


def _behavior_tables(mdp: EnumeratedMdp, model: PolicyModel, epsilon: float) -> np.ndarray:
    """Per-edge sampling CDF, within each state's out-edge segment, of the
    behavior policy (1-eps) * softmax(logits) + eps * uniform."""
    seg = mdp.out_segments
    cdf = (1.0 - epsilon) * np.exp(model.forward_log_probs(mdp)) + epsilon / seg.edge_degree
    # a running sum per segment, position by position, so every CDF is added
    # in the same order as np.cumsum over that segment alone
    for at, before in seg.cdf_steps:
        cdf[at] += cdf[before]
    return cdf


def _walk(mdp: EnumeratedMdp, cdf: np.ndarray, n: int, streams: list[np.random.Generator]):
    """Walk ``n`` walkers from the initial state to terminals in lockstep.

    Each step, every live walker at a state with out-edges ``[lo, hi)`` draws
    u and takes edge ``min(bisect_right(cdf, u, lo, hi), hi - 1)``, found for
    all walkers by one ``searchsorted``.  Walker b reads
    ``streams[b % len(streams)]``, and each stream draws one vector a step
    for its live walkers, in walker order.  Returns state rows [n, T+1]
    padded with the terminal and edge rows [n, T] padded with -1."""
    # keys sort by state, then CDF; each segment's last entry, +inf, caps picks at hi - 1
    keys = np.empty(mdp.n_edges, dtype=complex)
    keys.real, keys.imag = mdp.edge_src, cdf
    keys.imag[mdp.out_segments.caps] = np.inf
    state = np.full(n, mdp.initial, dtype=np.int64)
    # live walkers are grouped by stream, each group in walker order, so the
    # streams' draws concatenate into the uniforms of the live walkers
    live = np.argsort(np.arange(n) % len(streams), kind="stable")
    live = live[~mdp.terminal[state[live]]]
    state_cols, edge_cols = [state], []
    while len(live):
        shard_sizes = np.bincount(live % len(streams)).tolist()
        query = np.empty(len(live), dtype=complex)
        query.real = state[live]
        query.imag = np.concatenate([stream.random(k) for stream, k in zip(streams, shard_sizes)])
        edge_taken = np.searchsorted(keys, query, side="right")
        dst = mdp.edge_dst[edge_taken]
        state, edge = state.copy(), np.full(n, -1, dtype=np.int64)
        state[live], edge[live] = dst, edge_taken
        state_cols.append(state)
        edge_cols.append(edge)
        live = live[~mdp.terminal[dst]]
    edge_rows = np.array(edge_cols, dtype=np.int64).reshape(len(edge_cols), n).T
    return np.stack(state_cols, axis=1), edge_rows


def collect_batch(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    config: TrainConfig,
    streams: list[np.random.Generator],
) -> RolloutBatch:
    """Sample a batch by walking its walkers in lockstep; walker b draws
    from ``streams[b % len(streams)]``."""
    cdf = _behavior_tables(mdp, model, config.epsilon_uniform)
    return RolloutBatch.from_rows(*_walk(mdp, cdf, config.batch_size, streams))


# ---------------------------------------------------------------------------
# loss and analytic gradients


def _coef(res, hp: HuberParams):
    """Huber gradient of residuals, with the sub-tolerance deadband of
    RESIDUAL_TOL applied."""
    return np.where(np.abs(res) > RESIDUAL_TOL, huber_grad(res, hp), 0.0)


def _balance(batch: RolloutBatch, v, x, cell_set, hp: HuberParams, head=None):
    """Weighted Huber loss of one sub-trajectory family and its coefficients
    on the per-state table ``v``, the per-step values ``x`` (one per entry of
    ``batch.step_edge``) and ``head``.

    A cell reads ``v`` at its two ends and sums ``x`` over its steps;
    ``head`` replaces ``v`` where a cell starts at a trajectory's first state.
    """
    cells, weights = cell_set
    rows = batch.state_rows
    end = v[rows]
    start = end if head is None else np.concatenate(
        [np.full((len(rows), 1), head), end[:, 1:]], axis=1)
    x_rows = np.zeros(rows.size - len(rows))
    x_rows[batch.step_pos] = x
    res = subtrajectory_residuals(start, end, x_rows.reshape(len(rows), -1), cells)
    g_start, g_end, g_x = subtrajectory_transpose(
        weights * _coef(res, hp), cells, rows.shape)
    g_head = 0.0
    if head is not None:
        g_head = float(g_start[:, 0].sum())
        g_start[:, 0] = 0.0
    g_v = np.bincount(rows.ravel(), (g_start + g_end).ravel(), len(v))
    return float((weights * huber(res, hp)).sum()), g_v, g_x.ravel()[batch.step_pos], g_head


def _in_segments(mdp: EnumeratedMdp, visits):
    """The distinct states of ``visits`` in increasing order, their visit
    counts, and the ids and sources of their in-edges, state after state in
    table order, with each state's number of in-edges."""
    counts = np.bincount(visits, minlength=mdp.n_states)
    states = np.flatnonzero(counts)
    pos, n_in = segment_positions(mdp.in_offset, states)
    edges = mdp.in_edges[pos]
    return states, counts[states], edges, mdp.edge_src[edges], n_in


def _in_balance(v, w, segments, hp: HuberParams, head):
    """Huber loss of v(s) - logsumexp over the in-edges e of s of v(src e) +
    w(e) (``head`` where s has no parents; no w term where ``w`` is None) at
    the states of ``_in_segments``, weighted by their share of the visits,
    and its coefficients on the tables ``v``, ``w`` and ``head``."""
    states, counts, edges, srcs, n_in = segments
    weight = counts / float(counts.sum())
    terms = v[srcs] if w is None else v[srcs] + w[edges]
    lse = segment_logsumexp(terms, n_in)
    lse[n_in == 0] = head
    res = v[states] - lse
    c = weight * _coef(res, hp)
    c_in = -np.repeat(c, n_in) * np.exp(terms - np.repeat(lse, n_in))
    g_v = np.bincount(np.concatenate([states, srcs]), np.concatenate([c, c_in]), len(v))
    g_w = None if w is None else np.bincount(edges, c_in, len(w))
    return float((weight * huber(res, hp)).sum()), g_v, g_w, -float(c[n_in == 0].sum())


def compute_loss_and_grads(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    batch: RolloutBatch,
    config: TrainConfig,
    exact_l: np.ndarray | None = None,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Mean Huber of the policy residuals plus mean Huber of the n residuals.

    Returns (stats, grads) where grads holds one array per parameter group
    with pinned/clamped entries already zeroed.  Softmaxes and their VJPs
    run only on the segments the batch reads (see the module docstring).
    """
    if batch.lengths.size == 0:
        raise ValueError("batch must be nonempty")
    backward, n_traj = config.backward, config.n_objective == "trajectory"
    if backward == "maxent-known" and exact_l is None:
        raise BackwardRequiresL("backward='maxent-known' needs exact_l")
    if backward == "maxent-learned" and config.n_objective == "none" and exact_l is None:
        raise BackwardRequiresL(
            "backward='maxent-learned' with n_objective='none' would use an "
            "untrained l_hat; supply exact_l or enable an n objective"
        )
    n_states, n_edges, se = mdp.n_states, mdp.n_edges, batch.step_edge
    reads_q = config.objective in ("tb", "db", "stb")
    l_known = backward == "maxent-known"
    q_trains_l = reads_q and backward == "maxent-learned"
    ql_needed = n_traj or q_trains_l  # the l-induced backward q_l
    q_needed = reads_q and not q_trains_l  # any other backward q
    hp, lengths = config.huber, batch.lengths

    # The states a trajectory visits are the initial state, which has no
    # in-edges, and the steps' children.  One kernel call takes the softmax
    # segments the loss reads: the in-segments of the children for log q_l
    # and for log q, where needed, then the out-segments of the parents of the
    # visited states.  Those include the steps' sources, and are where each
    # parent's l-gradient through q_l adds up, in increasing edge id.
    visited = _in_segments(mdp, np.concatenate([mdp.edge_src[se], batch.terminals]))
    states, counts, q_edges, parents, q_runs = visited
    q_logits = [model.l_hat[parents]] if ql_needed else []
    if q_needed:
        q_logits.append(np.zeros(len(q_edges)) if backward == "uniform"
                        else exact_l[parents] if l_known else model.backward_logits[q_edges])
    out_edges, out_runs = segment_positions(
        mdp.out_offset, np.flatnonzero(np.bincount(parents, minlength=n_states)))
    n_q, q_size = len(q_logits), len(q_edges)
    runs = np.concatenate([q_runs] * n_q + [out_runs])
    # each segment is reduced by itself, so it gets the bits that
    # segment_log_softmax gives it on its whole table
    log_p = segment_log_softmax(np.concatenate(q_logits + [model.forward_logits[out_edges]]), runs)
    run = np.repeat(np.arange(len(runs)), runs)
    # group i's log-probabilities on its edges, read nowhere else: log q_l and
    # log q, where computed, and log pi
    tables = np.empty((n_q + 1) * n_edges)
    tables[np.concatenate([q_edges + i * n_edges for i in range(n_q)]
                          + [out_edges + n_q * n_edges])] = log_p
    *q_tables, log_pi = tables.reshape(n_q + 1, n_edges)

    g_l = np.zeros(n_states)  # direct l terms (not through log q)

    # ---- policy objective ------------------------------------------------
    # tb, db and stb: log F at both ends (clamped to log p~ at terminals) and
    # log pi - log q per step, over the whole trajectory, each step or every
    # sub-trajectory; pcl: the count-corrected terminal value log p~ - l and
    # log pi per step; tb and pcl read log Z at s0.  fm: log F(s) against its
    # in-flows or log Z at the visited states.  g_pi holds the coefficients
    # on log pi; those on log q are -g_pi.
    if config.objective == "fm":
        policy_loss, g_lf, g_pi, g_z = _in_balance(
            model.clamped_log_f(mdp), log_pi, visited, hp, model.log_z)
    else:
        whole = config.objective in ("tb", "pcl")
        cell_set = (trajectory_cells(lengths) if whole
                    else step_cells(lengths) if config.objective == "db"
                    else subtrajectory_cells(lengths, config.lambda_stb))
        # v and x inline: held in locals past the call, they slowed the loss
        policy_loss, g_v, g_x, g_z = _balance(
            batch, model.clamped_log_f(mdp) if reads_q
            else mdp.log_target - (exact_l if l_known else model.l_hat),
            log_pi[se] - q_tables[-1][se] if reads_q else log_pi[se],
            cell_set, hp, model.log_z if whole else None)
        g_pi = np.bincount(se, g_x, n_edges)
        g_lf = g_v if reads_q else np.zeros(n_states)
        if not (reads_q or l_known):
            g_l -= g_v

    # ---- n objective ------------------------------------------------------
    n_loss = 0.0
    if config.n_objective == "bellman":
        # l(s) against the logsumexp of l over the parents of each step's child
        children = states[1:], counts[1:], q_edges, parents, q_runs[1:]
        n_loss, g_v, _, _ = _in_balance(model.l_hat, None, children, hp, 0.0)
        g_l += g_v
    elif n_traj:
        # l(s_T) + sum log q_l, with the pinned l(s_0) = 0 as the head
        n_loss, g_v, g_x, _ = _balance(
            batch, -model.l_hat, q_tables[0][se], trajectory_cells(lengths), hp, 0.0)
        g_l -= g_v
        g_ql = np.bincount(se, g_x, n_edges)

    # ---- convert primitive coefficients into parameter gradients ----------
    # the softmax VJP g - p * (sum of g over the segment) on the kernel's runs,
    # with the coefficients on the log-probabilities group by group
    g = [-g_pi[q_edges]] if q_needed else []
    g.append(g_pi[out_edges])
    if ql_needed:
        g.insert(0, (g_ql[q_edges] if n_traj else 0.0) - (g_pi[q_edges] if q_trains_l else 0.0))
    g = np.concatenate(g)
    vjp = g - np.exp(log_p) * np.bincount(run, g, len(runs))[run]
    g_forward, g_back = np.zeros(n_edges), np.zeros(n_edges)
    g_forward[out_edges] = vjp[n_q * q_size:]
    if q_needed and backward == "free":
        g_back[q_edges] = vjp[(n_q - 1) * q_size:][:q_size]
    if ql_needed:
        through_q = np.zeros(n_edges)
        through_q[q_edges] = vjp[:q_size]
        g_l += np.bincount(mdp.edge_src[out_edges], through_q[out_edges], n_states)
    g_l[mdp.initial] = 0.0
    g_lf[mdp.terminal] = 0.0
    grads = {"forward": g_forward, "backward": g_back, "l": g_l, "log_f": g_lf,
             "log_z": np.array([g_z])}

    total = policy_loss + n_loss
    if not np.isfinite(total):
        raise NonFiniteGradient(f"non-finite loss {total}")
    stats = {"loss": total, "policy_loss": policy_loss, "n_loss": n_loss}
    return stats, grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: np.ndarray  # first moments over a model's ``params``
    v: np.ndarray  # second moments
    t: int = 0


def adam_init(model: PolicyModel) -> AdamState:
    return AdamState(m=np.zeros_like(model.params), v=np.zeros_like(model.params))


def optimizer_update(
    params: ParamGroups,
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> None:
    """One Adam step (betas 0.9, 0.999, eps 1e-8), in place on
    ``params.flat``, with the gradients laid end to end in ``PARAM_GROUPS``
    order.  Every entry gets the arithmetic of a per-group update, in the
    same order, so the steps are the same to the bit."""
    g = np.concatenate([grads[key] for key in PARAM_GROUPS])
    if not np.isfinite(g).all():
        key = next(k for k in PARAM_GROUPS if not np.isfinite(grads[k]).all())
        raise NonFiniteGradient(f"non-finite gradient in group {key!r}")
    beta1, beta2 = 0.9, 0.999
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    m, v, step = state.m, state.v, np.empty_like(g)
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=step)
    v *= beta2
    v += np.multiply(np.multiply(1.0 - beta2, g, out=step), g, out=step)
    np.multiply(np.divide(m, bc1, out=step), learning_rate, out=step)
    # g is read no more: it holds sqrt(v / bc2) + eps
    step /= np.add(np.sqrt(np.divide(v, bc2, out=g), out=g), 1e-8, out=g)
    params.flat -= step


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
    sampling_model.params *= decay
    sampling_model.params += (1.0 - decay) * train_model.params
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
    Deterministic given (config, workers): walker b of every batch reads the
    seed-derived stream b % workers; streams past the batch size, never read,
    are not made.
    """
    config.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    train_mdp = mdp
    if config.reward_exponent != 1.0:
        train_mdp = mdp.with_log_target(mdp.log_target * config.reward_exponent)

    if model is None:
        model = PolicyModel.init(train_mdp)
    sampling_model = model.copy()
    opt_state = adam_init(model)
    seeds = np.random.SeedSequence(config.seed).spawn(min(workers, config.batch_size))
    streams = [np.random.default_rng(child) for child in seeds]

    l_metrics = exact.count_paths(train_mdp)
    visited = np.zeros(mdp.n_states, dtype=bool)
    rows: list[MetricsRow] = []
    for step in range(1, config.steps + 1):
        batch = collect_batch(train_mdp, sampling_model, config, streams)
        visited[batch.terminals] = True
        stats = train_step(train_mdp, model, batch, config, opt_state, exact_l)
        ema_update(sampling_model, model, config.ema_decay)
        if step % metrics_every == 0 or step == config.steps:
            # modes are counted on the untempered target, the rest on p~**b
            report = metrics.evaluate_policy(train_mdp, model.forward_log_probs(train_mdp),
                                             l_hat=model.l_hat, l_exact=l_metrics)
            modes = metrics.mode_count(np.flatnonzero(visited), mdp.log_target, [mode_threshold])
            rows.append(MetricsRow(
                step=step,
                kl_forward=report.kl_forward,
                kl_reverse=report.kl_reverse,
                entropy=report.entropy,
                max_entropy_bound=report.max_entropy_bound,
                policy_loss=stats["policy_loss"],
                n_loss=stats["n_loss"],
                n_mse=report.n_mse,
                modes_found=modes[mode_threshold],
            ))
    return rows, model
