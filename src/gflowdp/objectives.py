"""Residuals for every constraint family, all in log space.

Each multiplicative balance constraint is implemented as the log of its
left-hand side minus the log of its right-hand side, so a residual of zero
means the constraint holds exactly.  ``cross_cumsum`` is the cumulative-sum
trick that fills the whole upper triangle of sub-trajectory residuals in one
pass; the sub-trajectory and consistency objectives ride on it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    y = np.cumsum(x)
    shifted = np.concatenate(([0.0], y[:-1]))  # prefix sums before index i
    cross = y[None, :] - shifted[:, None]
    return np.triu(v[:t, None] - v[None, 1:] + cross)


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
    i, j = np.triu_indices(t)
    w = np.zeros((t, t))
    w[i, j] = lam ** (j - i + 1)
    return d, w / w.sum()


def pcl_residuals(
    view: TrajectoryView, tau: float = 1.0, gamma: float = 1.0
) -> np.ndarray:
    """Soft-consistency residuals for every sub-trajectory.

    Entry (i, j) covers states s_i..s_{j+1}:
    V(s_i) + sum_t gamma^{t-i} (tau log pi_t - R_t) - gamma^{j+1-i} V(s_{j+1}).
    With tau=gamma=1 this is exactly cross_cumsum over the value vector.
    """
    x = tau * view.log_pi - view.reward
    if gamma == 1.0:
        return cross_cumsum(view.value, x)
    t = len(x)
    powers = gamma ** np.arange(t + 1)
    y = np.cumsum(powers[:t] * x)
    shifted = np.concatenate(([0.0], y[:-1]))
    cross = (y[None, :] - shifted[:, None]) / powers[:t, None]
    span = np.triu(powers[np.arange(1, t + 1)[None, :] - np.arange(t)[:, None]])
    return np.triu(view.value[:t, None] - span * view.value[None, 1:] + cross)


def n_bellman_residual(l_state: float, parent_l_values) -> float:
    """Path-count consistency at one state: l(s') - logsumexp of parent l."""
    return float(l_state - logsumexp(parent_l_values))


def backward_from_counts(mdp: EnumeratedMdp, l: np.ndarray) -> np.ndarray:
    """Normalized backward policy induced by a (possibly learned) l table:
    log q(s,a|s') = l(s) - logsumexp over parents of s' of l."""
    log_q = np.empty(mdp.n_edges)
    log_q[mdp.in_edges] = segment_log_softmax(l[mdp.edge_src[mdp.in_edges]], mdp.in_offset)
    return log_q


def n_trajectory_residual(
    mdp: EnumeratedMdp, state_ids: np.ndarray, l: np.ndarray
) -> float:
    """Full-trajectory path-count residual.

    With the backward induced from ``l`` via ``backward_from_counts``, this
    is l(s_T) + sum_t log q_l(s_t, a_t | s_{t+1}) minus the pinned l(s_0)=0;
    it vanishes exactly when l satisfies the count recursion along the
    trajectory's states.
    """
    total = float(l[state_ids[-1]])
    for t in range(len(state_ids) - 1):
        s, s_next = int(state_ids[t]), int(state_ids[t + 1])
        ids = mdp.in_edge_ids(s_next)
        total += float(l[s]) - logsumexp(l[mdp.edge_src[ids]])
    return total
