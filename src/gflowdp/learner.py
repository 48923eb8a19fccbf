"""Tabular stochastic-gradient training of policies, flows, counts, and Z.

The model is one float64 vector whose parts are the parameter groups, those
a config trains first: forward logits per edge, a log path-count estimate
per state (initial pinned to 0), log Z, a log state-flow estimate per state
(terminals clamped to the target), backward logits per edge (free only).
Every backward is ``exact.backward_softmax`` of per-edge logits: zeros
(uniform), l_hat or exact counts (count-induced), or free logits.
The loss has two residual shapes, each with a one-pass Huber (``_huber``):
``_balance`` over sub-trajectories of the sampled rows at flat row positions
(one call for tb, db, stb or pcl, one for n-trajectory) and ``_in_balance``
over the in-edges of the visited states (fm, n-bellman).  Loss and gradient
touch only the softmax segments the batch reads, in one
``numerics.segment_softmax`` call, whose normalizers and probabilities of
the l-induced backward are the n-bellman residual's; values are read and
coefficients summed at their positions in its output, and only gradients
are scattered into the model's gradient buffer, laid out as the vector.
Each sum keeps the order of the whole-table computation, so results are the
same to the bit.  Adam is one elementwise pass over the trained prefix (an
entry whose gradient is 0 at every step never moves), the EMA one over the
forward logits, the one table the sampler reads, and the behaviour CDF one
pass over the edges on tables cached on the MDP.
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
from .numerics import padded_logsumexp, segment_logsumexp, segment_softmax
from .objectives import cross_cumsum  # noqa: F401
from .objectives import HuberParams, step_cells, subtrajectory_cells, trajectory_cells

OBJECTIVES = ("tb", "db", "stb", "fm", "pcl")
BACKWARDS = ("uniform", "maxent-known", "maxent-learned", "free")
N_OBJECTIVES = ("none", "bellman", "trajectory")

PARAM_GROUPS = ("forward", "l", "log_z", "log_f", "backward")
TABLES = ("forward_logits", "l_hat", "log_z_hat", "log_f_hat", "backward_logits")

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

    def trained_groups(self) -> int:
        """The number of leading ``PARAM_GROUPS`` the loss can move."""
        free = self.backward == "free" and self.objective in ("tb", "db", "stb")
        return 5 if free else 4 if self.objective in ("db", "stb", "fm") else 3


class ParamGroups(dict):
    """Tables (or gradients) by group name, views of ``flat``; Adam reads ``flat[:size]``."""

    flat: np.ndarray
    size: int


@dataclass
class PolicyModel:
    """Mutable parameter tables; see module docstring for the groups.  The
    constructor copies them, in ``TABLES`` order, into the one float64 buffer
    ``params`` and keeps each as a view of its part, so tables are written
    in place: an array assigned to an attribute would not be in ``params``."""

    forward_logits: np.ndarray  # [E]
    backward_logits: np.ndarray  # [E]
    l_hat: np.ndarray  # [S], l_hat[initial] pinned to 0
    log_f_hat: np.ndarray  # [S], terminal entries clamped to log target
    log_z_hat: np.ndarray  # shape (1,)

    def __post_init__(self) -> None:
        tables = [getattr(self, name) for name in TABLES]
        self.params = np.concatenate(tables, dtype=float)
        self.ends = np.cumsum([len(t) for t in tables]).tolist()  # of the groups
        self._groups = self.split(self.params)
        for name, view in zip(TABLES, self._groups.values()):
            setattr(self, name, view)

    def split(self, flat: np.ndarray, size: int | None = None) -> ParamGroups:
        """``flat``, laid out as ``params``, as views by group; ``size`` defaults to all."""
        groups = ParamGroups(zip(PARAM_GROUPS, np.split(flat, self.ends[:-1])))
        groups.flat, groups.size = flat, len(flat) if size is None else size
        return groups

    @cached_property
    def grads(self) -> ParamGroups:
        """The gradients ``compute_loss_and_grads`` writes, ``size`` the prefix it last wrote."""
        return self.split(np.zeros_like(self.params), 0)

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
        return self._groups

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
        ``segment_log_softmax`` on the layout ``mdp.out_layout`` caches."""
        self.check_fits(mdp)
        layout = mdp.out_layout
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lse = padded_logsumexp(self.forward_logits, *layout,
                                   np.zeros(mdp.n_edges + len(layout[1])))  # a head per segment
        return self.forward_logits - np.repeat(lse, layout[1])

    def clamped_log_f(self, mdp: EnumeratedMdp) -> np.ndarray:
        return np.where(mdp.terminal, mdp.log_target, self.log_f_hat)

    # free-parameter vector, used by the finite-difference checks -----------

    @staticmethod
    def _free(mdp: EnumeratedMdp) -> np.ndarray:
        """Mask over ``params`` of the entries training moves: all but the
        pinned initial count and the clamped terminal flows."""
        return np.concatenate([np.ones(mdp.n_edges, dtype=bool), np.arange(mdp.n_states)
                               != mdp.initial, [True], ~mdp.terminal, np.ones(mdp.n_edges, bool)])

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
    seg = mdp.sampler_tables
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
    keys.imag[mdp.sampler_tables.caps] = np.inf
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


def _huber(res, hp: HuberParams):
    """Huber loss of the residuals and its gradient, zeroed in the deadband
    |res| <= RESIDUAL_TOL; past beta, ``clip(res, -beta, beta) / delta`` is
    ``beta * sign(res) / delta`` to the bit."""
    a = np.abs(res)
    value = np.where(a <= hp.beta, 0.5 * res * res / hp.delta,
                     hp.beta * (a - 0.5 * hp.beta) / hp.delta)
    return value, np.where(a > RESIDUAL_TOL, np.clip(res, -hp.beta, hp.beta) / hp.delta, 0.0)


def _balance(batch: RolloutBatch, v, x, cell_set, hp: HuberParams, head=None):
    """Weighted Huber loss of one sub-trajectory family and its coefficients
    on the per-state table ``v``, the per-step values ``x`` (one per entry of
    ``batch.step_edge``) and ``head``.  A cell (b, i, j) reads ``v`` at its
    ends, the flat positions b(T+1) + i and b(T+1) + j + 1 of the (B, T+1)
    state rows, and sums ``x`` over its steps; ``head`` replaces ``v`` where
    a cell starts at a row's first state."""
    (b, i, j), weights = cell_set
    rows = batch.state_rows
    n, width = rows.shape
    base = b * width
    start_at, end_at = base + i, base + j + 1
    start = end = v[rows].ravel()
    if head is not None:
        start = end.copy()
        start[::width] = head
    # prefix sums that restart at every row, so rounding grows with T, not B*T
    x_rows, y = np.zeros(n * (width - 1)), np.zeros((n, width))
    x_rows[batch.step_pos] = x
    np.cumsum(x_rows.reshape(n, -1), axis=1, out=y[:, 1:])
    y = y.ravel()
    value, grad = _huber(start[start_at] - end[end_at] + (y[end_at] - y[start_at]), hp)
    coef = weights * grad
    # a cell adds its coefficient at its start and takes it off past its end,
    # so a step's is the running sum along the row
    g_start, g_end = (np.bincount(at, coef, n * width).reshape(n, width)
                      for at in (start_at, end_at))
    g = g_start - g_end
    g_x = np.cumsum(g, axis=1)[:, :-1]
    g_head = 0.0
    if head is not None:  # an empty cell (a 0-step row) ends where it starts
        g_head = float(g_start[:, 0].sum())
        g[:, 0] = 0.0 - g_end[:, 0]
    g_v = np.bincount(rows.ravel(), g.ravel(), len(v))
    return float((weights * value).sum()), g_v, g_x.ravel()[batch.step_pos], g_head


def _in_segments(mdp: EnumeratedMdp, visits):
    """The distinct states of ``visits`` in increasing order, their visit
    counts, and the ids and sources of their in-edges, state after state in
    table order, with each state's number of in-edges."""
    counts = np.bincount(visits, minlength=mdp.n_states)
    states = np.flatnonzero(counts)
    pos, n_in = segment_positions(mdp.in_offset, states)
    edges = mdp.in_edges[pos]
    return states, counts[states], edges, mdp.edge_src[edges], n_in


def _in_balance(v, segments, lse, p, hp: HuberParams):
    """Huber loss of v(s) - lse(s) at the states of ``_in_segments``,
    weighted by their share of the visits, with the caller's normalizer lse,
    a logsumexp over the in-edges e of s of terms in v(src e), and p(e), e's
    share of it; and the coefficients on ``v``, on each in-edge's term and
    on lse where s has no parents."""
    states, counts, _, srcs, n_in = segments
    weight = counts / float(counts.sum())
    value, grad = _huber(v[states] - lse, hp)
    c = weight * grad
    c_in = -np.repeat(c, n_in) * p
    g_v = np.bincount(np.concatenate([states, srcs]), np.concatenate([c, c_in]), len(v))
    return float((weight * value).sum()), g_v, c_in, -float(c[n_in == 0].sum())


def compute_loss_and_grads(
    mdp: EnumeratedMdp,
    model: PolicyModel,
    batch: RolloutBatch,
    config: TrainConfig,
    exact_l: np.ndarray | None = None,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Mean Huber of the policy residuals plus mean Huber of the n residuals.

    Returns (stats, grads), grads being ``model.grads`` until the next call,
    with pinned/clamped entries zeroed.  Softmaxes and their VJPs run only
    on the segments the batch reads (see the module docstring).
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
    n_states, se = mdp.n_states, batch.step_edge
    reads_q = config.objective in ("tb", "db", "stb")
    l_known = backward == "maxent-known"
    bellman = config.n_objective == "bellman"
    q_trains_l = reads_q and backward == "maxent-learned"
    ql_read = n_traj or q_trains_l  # a residual reads the l-induced backward q_l
    q_needed = reads_q and not q_trains_l  # any other backward q
    hp, lengths = config.huber, batch.lengths

    # The visited states are the initial state (first in ``states``, the one
    # without in-edges) and the steps' children.  One kernel call takes the
    # softmax segments the loss reads, each reduced by itself as on its whole
    # table: the children's in-segments for q_l (whose normalizers are also
    # the Bellman residual's) and q, where needed, then the out-segments of
    # the visited states' parents, where each parent's l-gradient through
    # q_l adds up in increasing edge id.  An edge's position in its group is
    # its CSR position (out-edges by source, in-edges by child) less a shift
    # per state.
    src = mdp.edge_src[se]
    visited = _in_segments(mdp, np.concatenate([src, batch.terminals]))
    states, counts, q_edges, parents, q_runs = visited
    q_logits = [model.l_hat[parents]] if ql_read or bellman else []
    if q_needed:
        q_logits.append(np.zeros(len(q_edges)) if backward == "uniform"
                        else exact_l[parents] if l_known else model.backward_logits[q_edges])
    out_states = np.flatnonzero(np.bincount(parents, minlength=n_states))
    out_edges, out_runs = segment_positions(mdp.out_offset, out_states)
    n_q, q_size, n_out = len(q_logits), len(q_edges), len(out_edges)
    runs = np.concatenate([q_runs[1:]] * n_q + [out_runs])
    log_p, lse, p = segment_softmax(
        np.concatenate(q_logits + [model.forward_logits[out_edges]]), runs)
    log_ql, log_q = log_p[:q_size], log_p[(n_q - 1) * q_size:][:q_size]
    log_pi = log_p[n_q * q_size:]
    shift = np.empty(n_states, dtype=np.int64)  # read only at the states set
    shift[out_states] = mdp.out_offset[out_states] - (np.cumsum(out_runs) - out_runs)
    step_pi, q_at_out = se - shift[src], q_edges - shift[parents]
    if reads_q or n_traj:
        shift[states] = mdp.in_offset[states] - (np.cumsum(q_runs) - q_runs)
        step_q = mdp.in_rank[se] - shift[mdp.edge_dst[se]]

    grads, k = model.grads, config.trained_groups()
    grads.flat[:grads.size] = 0.0  # the prefix the last call wrote
    grads.size = model.ends[k - 1]
    g_l = grads["l"]  # direct l terms (not through log q)

    # ---- policy objective ------------------------------------------------
    # tb, db and stb: log F at both ends (clamped to log p~ at terminals) and
    # log pi - log q per step, over the whole trajectory, each step or every
    # sub-trajectory; pcl: the count-corrected terminal value log p~ - l and
    # log pi per step; tb and pcl read log Z at s0.  fm: log F(s) against its
    # in-flows or log Z at the visited states.  g_pi and g_pi_q hold the
    # coefficients on log pi at its and q's positions; those on log q: -g_pi_q.
    if config.objective == "fm":
        log_f = model.clamped_log_f(mdp)
        terms = log_f[parents] + log_pi[q_at_out]
        lse_f = segment_logsumexp(terms, q_runs)
        lse_f[q_runs == 0] = model.log_z
        policy_loss, g_lf, c_in, g_z = _in_balance(
            log_f, visited, lse_f, np.exp(terms - np.repeat(lse_f, q_runs)), hp)
        g_pi = np.bincount(q_at_out, c_in, n_out)
    else:
        whole = config.objective in ("tb", "pcl")
        cell_set = (trajectory_cells(lengths) if whole
                    else step_cells(lengths) if config.objective == "db"
                    else subtrajectory_cells(lengths, config.lambda_stb))
        # v and x inline: held in locals past the call, they slowed the loss
        policy_loss, g_v, g_x, g_z = _balance(
            batch, model.clamped_log_f(mdp) if reads_q
            else mdp.log_target - (exact_l if l_known else model.l_hat),
            log_pi[step_pi] - log_q[step_q] if reads_q else log_pi[step_pi],
            cell_set, hp, model.log_z if whole else None)
        g_pi = np.bincount(step_pi, g_x, n_out)
        g_pi_q = np.bincount(step_q, g_x, q_size) if reads_q else None
        g_lf = g_v  # on log F where reads_q, on -l for pcl
        if not (reads_q or l_known):
            g_l -= g_v

    # ---- n objective ------------------------------------------------------
    n_loss = 0.0
    if bellman:
        # l(s) against the logsumexp of l over the parents of each step's
        # child: the normalizers and probabilities of the q_l group
        children = states[1:], counts[1:], q_edges, parents, q_runs[1:]
        n_loss, g_v, _, _ = _in_balance(model.l_hat, children, lse[:len(states) - 1],
                                        p[:q_size], hp)
        g_l += g_v
    elif n_traj:
        # l(s_T) + sum log q_l, with the pinned l(s_0) = 0 as the head
        n_loss, g_v, g_x, _ = _balance(
            batch, -model.l_hat, log_ql[step_q], trajectory_cells(lengths), hp, 0.0)
        g_l -= g_v
        g_ql = np.bincount(step_q, g_x, q_size)

    # ---- convert primitive coefficients into parameter gradients ----------
    # the softmax VJP g - p * (sum of g over the segment) on the kernel's runs,
    # with the coefficients on the log-probabilities group by group; a q_l
    # group that only the Bellman residual reads takes none
    g = [-g_pi_q] if q_needed else []
    g.append(g_pi)
    if ql_read:
        g.insert(0, (g_ql if n_traj else 0.0) - (g_pi_q if q_trains_l else 0.0))
    skip = q_size if bellman and not ql_read else 0  # the group's kernel positions
    g = np.concatenate(g)
    run = np.repeat(np.arange(len(runs)), runs)[skip:]
    vjp = g - p[skip:] * np.bincount(run, g, len(runs))[run]
    grads["forward"][out_edges] = vjp[n_q * q_size - skip:]
    if q_needed and backward == "free":
        grads["backward"][q_edges] = vjp[(n_q - 1) * q_size - skip:][:q_size]
    if ql_read:
        through_q = np.zeros(n_out)
        through_q[q_at_out] = vjp[:q_size]
        g_l += np.bincount(mdp.edge_src[out_edges], through_q, n_states)
    g_l[mdp.initial] = 0.0
    if PARAM_GROUPS.index("log_f") < k:  # 0 at terminals
        np.copyto(grads["log_f"], g_lf, where=~mdp.terminal)
    grads["log_z"][0] = g_z

    total = policy_loss + n_loss
    if not np.isfinite(total):
        raise NonFiniteGradient(f"non-finite loss {total}")
    stats = {"loss": total, "policy_loss": policy_loss, "n_loss": n_loss}
    return stats, grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: np.ndarray  # first moments over the longest prefix of ``params`` Adam has read
    v: np.ndarray  # second moments
    t: int = 0


def adam_init(model: PolicyModel) -> AdamState:
    return AdamState(m=np.zeros(0), v=np.zeros(0))  # grown to the prefix a step reads


def optimizer_update(
    params: ParamGroups,
    grads: ParamGroups,
    state: AdamState,
    learning_rate: float,
) -> None:
    """One Adam step (betas 0.9, 0.999, eps 1e-8) on ``params.flat[:grads.size]``,
    with the arithmetic of a per-group update, to the bit.  A g*g that
    overflows, which would freeze its entry at a step m / sqrt(inf) = 0,
    raises NonFiniteGradient before anything changes."""
    g, n, beta1, beta2 = grads.flat[:grads.size], grads.size, 0.9, 0.999
    a, b = np.empty((2, n))
    with np.errstate(over="ignore"):
        np.multiply(np.multiply(1.0 - beta2, g, out=a), g, out=a)
        if not np.isfinite(a.max(initial=0.0) / (1.0 - beta2)):
            key = next(k for k in PARAM_GROUPS if not np.isfinite(
                (1.0 - beta2) * grads[k] * grads[k] / (1.0 - beta2)).all())
            raise NonFiniteGradient(f"non-finite gradient in group {key!r}" if not np.isfinite(
                grads[key]).all() else f"gradient whose square overflows in group {key!r}")
    if n > len(state.m):
        state.m, state.v = (np.concatenate([x, np.zeros(n - len(x))]) for x in (state.m, state.v))
    m, v = state.m[:n], state.v[:n]
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=b)
    v *= beta2
    v += a
    np.multiply(np.divide(m, bc1, out=a), learning_rate, out=a)
    a /= np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), 1e-8, out=b)
    params.flat[:n] -= a


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
    """sampling <- decay * sampling + (1 - decay) * train on the table the sampler reads."""
    sampling_model.forward_logits *= decay
    sampling_model.forward_logits += (1.0 - decay) * train_model.forward_logits
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
            # the report counts no modes: they are counted over the visited
            # terminals on the untempered target, the rest on p~**b
            report = metrics.evaluate_policy(train_mdp, model.forward_log_probs(train_mdp),
                                             l_hat=model.l_hat, l_exact=l_metrics, thresholds=())
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
