"""Residuals for every constraint family, all in log space.

Each multiplicative balance constraint is implemented as the log of its
left-hand side minus the log of its right-hand side, so a residual of zero
means the constraint holds exactly.  Trajectory, detailed and sub-trajectory
balance, path consistency (the count-corrected reward) and the path-count
trajectory residual are one residual on trajectory rows, a value at s_i
minus one at s_{j+1} plus a per-step sum over steps i..j, which
``learner._balance`` reads on a cell set (b, i, j): each whole trajectory,
each step, or every sub-trajectory with lambda**length weights normalized
in log space (memoized, as batches of one length profile share it).
``cross_cumsum`` and ``stb_residuals`` are the one-row case.
Flow matching's out side sum_a F(s) pi(a|s) is F(s), pi being normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mdp import EnumeratedMdp
from .numerics import logsumexp, segment_log_softmax


@dataclass(frozen=True)
class HuberParams:
    """Quadratic-then-linear loss: 0.5 x^2/delta for |x| <= beta, else
    beta(|x| - 0.5 beta)/delta.  Gradient magnitude is capped at beta/delta."""

    delta: float = 0.25
    beta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.delta < np.inf and 0.0 < self.beta < np.inf):
            raise ValueError("huber delta and beta must be finite and positive")


@dataclass(frozen=True)
class TrajectoryView:
    """Per-trajectory quantities every residual is a function of.

    T steps, T+1 states: log_pi/log_q/reward have length T, value/l length
    T+1.  ``log_target`` is the terminal's log target and ``log_z`` the
    model's log partition estimate.
    """

    log_pi: np.ndarray
    log_q: np.ndarray
    reward: np.ndarray
    value: np.ndarray
    l: np.ndarray
    log_target: float
    log_z: float

    def __post_init__(self):
        t = len(self.log_pi)
        if not (len(self.log_q) == len(self.reward) == t):
            raise ValueError("per-step arrays must share length T")
        if not (len(self.value) == len(self.l) == t + 1):
            raise ValueError("per-state arrays must have length T+1")


def db_residual(log_f_s: float, log_pi: float, log_q: float, log_f_next: float) -> float:
    """Detailed balance: log F(s) + log pi - log q - log F(s')."""
    return log_f_s + log_pi - log_q - log_f_next


def tb_residual(view: TrajectoryView) -> float:
    """Trajectory balance: log Z + sum log pi - log p~(s_T) - sum log q."""
    return float(view.log_z + view.log_pi.sum() - view.log_target - view.log_q.sum())


def fm_residual(log_target_s, out_log_flows, in_log_flows) -> float:
    """Flow matching at one state, as out-side minus in-side log mass.

    The out side stacks the state's own log target (finite only at
    terminals) with its outgoing log state-action flows; the in side is the
    incoming log flows.  For the initial state pass ``in_log_flows=[log_z]``
    since its inflow is the total flow.
    """
    out = logsumexp(np.append(np.asarray(out_log_flows, dtype=float), log_target_s))
    return float(out - logsumexp(in_log_flows))


def trajectory_cells(lengths):
    """The whole of each row, cells (b, 0, T_b - 1), weight 1/B each."""
    n = len(lengths)
    cells = (np.arange(n), np.zeros(n, dtype=np.int64), np.asarray(lengths) - 1)
    return cells, np.full(n, 1.0 / n)


def row_positions(lengths):
    """Row and position in the row of each element of rows of the given
    lengths laid end to end."""
    lengths = np.asarray(lengths, dtype=np.int64)
    b = np.repeat(np.arange(len(lengths)), lengths)
    return b, np.arange(len(b)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def step_cells(lengths):
    """Each step of each row, cells (b, k, k), weight 1/(number of steps)."""
    b, k = row_positions(lengths)
    return (b, k, k), np.full(len(b), 1.0 / max(len(b), 1))


def subtrajectory_cells(lengths, lam: float = 1.0):
    """Every sub-trajectory i <= j < T_b of every row, weighted lam**(j-i+1)
    normalized to sum to one within the row (in log space, so every finite
    positive lam works), then 1/B.  Memoized 1 deep, the arrays read-only."""
    return _subtrajectory_cells(np.asarray(lengths, dtype=np.int64).tobytes(), lam)


@lru_cache(maxsize=1)
def _subtrajectory_cells(key: bytes, lam: float):
    lengths = np.frombuffer(key, dtype=np.int64)
    ti, tj = np.triu_indices(int(lengths.max(initial=0)))
    b, at = np.nonzero(tj[None, :] < lengths[:, None])
    i, j = ti[at], tj[at]
    log_w = (j - i + 1) * np.log(lam)
    log_w = segment_log_softmax(log_w, lengths * (lengths + 1) // 2)
    out = b, i, j, np.exp(log_w) / len(lengths)
    for a in out:
        a.flags.writeable = False
    return out[:3], out[3]


subtrajectory_cells.cache_clear = _subtrajectory_cells.cache_clear


def cross_cumsum(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper-triangular D[i, j] = v[i] - v[j+1] + sum(x[i..j]) via one cumsum.

    v has length T+1, x length T; the result is a (T, T) matrix with zeros
    below the diagonal.  Entry (i, j) covers steps i..j inclusive.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    t = len(x)
    if len(v) != t + 1:
        raise ValueError("need len(v) == len(x) + 1")
    i, j = np.triu_indices(t)
    y = np.zeros(t + 1)
    np.cumsum(x, out=y[1:])
    d = np.zeros((t, t))
    d[i, j] = v[i] - v[j + 1] + (y[j + 1] - y[i])
    return d


def stb_residuals(
    view: TrajectoryView, lam: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """All sub-trajectory balance residuals plus their mixture weights.

    Residual (i, j) is log F(s_i) + sum(log pi - log q) - log F(s_{j+1})
    over steps i..j, with the terminal flow clamped to the target.  Weights
    are lam**length, normalized to sum to one over the triangle.
    """
    t = len(view.log_pi)
    v = view.value.copy()
    v[-1] = view.log_target
    d = cross_cumsum(v, view.log_pi - view.log_q)
    cells, w = subtrajectory_cells([t], lam)
    weights = np.zeros((t, t))
    weights[cells[1:]] = w
    return d, weights


def pcl_residuals(view: TrajectoryView) -> np.ndarray:
    """Soft-consistency residuals for every sub-trajectory.

    Entry (i, j) covers states s_i..s_{j+1}:
    V(s_i) + sum_{t=i..j} (log pi_t - R_t) - V(s_{j+1}), the cross_cumsum of
    V and log pi - R.
    """
    return cross_cumsum(view.value, view.log_pi - view.reward)


def n_bellman_residual(l_state: float, parent_l_values) -> float:
    """Path-count consistency at one state: l(s') - logsumexp of parent l."""
    return float(l_state - logsumexp(parent_l_values))


def n_trajectory_residual(
    mdp: EnumeratedMdp, state_ids: np.ndarray, l: np.ndarray
) -> float:
    """Full-trajectory path-count residual.

    With the backward ``exact.backward_maxent`` induces from ``l``, this is
    l(s_T) + sum_t log q_l(s_t, a_t | s_{t+1}) minus the pinned l(s_0)=0;
    it vanishes exactly when l satisfies the count recursion along the
    trajectory's states.
    """
    total = float(l[state_ids[-1]])
    for t in range(len(state_ids) - 1):
        s, s_next = int(state_ids[t]), int(state_ids[t + 1])
        ids = mdp.in_edge_ids(s_next)
        total += float(l[s]) - logsumexp(l[mdp.edge_src[ids]])
    return total
