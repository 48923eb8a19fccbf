"""Evaluation quantities: exact KLs, correlation, mode counts, count error."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import exact
from .mdp import EnumeratedMdp
from .numerics import logsumexp


class MetricsError(Exception):
    pass


class SupportMismatch(MetricsError):
    """The policy assigns zero mass where the target is positive."""


class DegenerateVariance(MetricsError):
    """Correlation is undefined for a constant sample."""


def _terminal_logs(mdp: EnumeratedMdp, log_mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log mu_T, log p) over the terminal states.  Both stay in log space so
    that a marginal far below the smallest double is not read as zero."""
    log_target = mdp.log_target[mdp.terminal]
    return log_mu[mdp.terminal], log_target - logsumexp(log_target)


def _kl(log_mu: np.ndarray, log_p: np.ndarray, direction: str) -> float:
    if direction == "forward":
        mask = log_mu > -np.inf
        kl = float((np.exp(log_mu[mask]) * (log_mu[mask] - log_p[mask])).sum())
    elif direction == "reverse":
        mask = log_p > -np.inf
        if (log_mu[mask] == -np.inf).any():
            raise SupportMismatch("policy puts zero mass on a positive-target terminal")
        kl = float((np.exp(log_p[mask]) * (log_p[mask] - log_mu[mask])).sum())
    else:
        raise ValueError("direction must be 'forward' or 'reverse'")
    # rounding can push an exact zero a hair below it
    return 0.0 if -1e-9 < kl < 0.0 else kl


def kl_terminal(mdp: EnumeratedMdp, log_pi: np.ndarray, direction: str = "forward") -> float:
    """Exact KL between the terminal marginal mu_T and the normalized target.

    ``forward`` is KL(mu_T || p), ``reverse`` is KL(p || mu_T); zero terms
    follow the 0 * log(0/.) = 0 convention.
    """
    return _kl(*_terminal_logs(mdp, exact.log_marginals(mdp, log_pi)), direction)


def pearson_logprob(
    samples,
    policy_terminal_logprob: np.ndarray,
    log_target: np.ndarray,
) -> float:
    """Pearson r between exact policy log-probabilities and log targets,
    over a multiset of sampled terminal state ids; clipped to [-1, 1], which
    rounding can overshoot."""
    idx = np.asarray(samples, dtype=np.int64)
    # np.unique imports numpy.ma unless it is asked for counts or an inverse
    if len(np.unique(idx, return_counts=True)[0]) < 2:
        raise DegenerateVariance("need at least two distinct samples")
    x = np.asarray(policy_terminal_logprob, dtype=float)[idx]
    y = np.asarray(log_target, dtype=float)[idx]
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise DegenerateVariance("zero variance in log-probabilities or targets")
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def mode_count(visited_terminals, log_target: np.ndarray, thresholds) -> dict[float, int]:
    """Distinct visited terminals with target at or above each threshold;
    with no thresholds, the terminals are not read."""
    if len(thresholds) == 0:
        return {}
    targets = log_target[np.unique(np.asarray(visited_terminals, dtype=np.int64),
                                   return_counts=True)[0]]
    return {float(theta): int((targets >= np.log(theta)).sum()) for theta in thresholds}


def n_mse(l_hat: np.ndarray, l_exact: np.ndarray) -> float:
    """Mean squared error between log path-count tables, uniform over states."""
    d = np.asarray(l_hat, dtype=float) - np.asarray(l_exact, dtype=float)
    return float((d * d).mean())


@dataclass(frozen=True)
class EvalReport:
    kl_forward: float
    kl_reverse: float
    l1: float
    entropy: float
    max_entropy_bound: float
    pearson: float | None = None
    n_mse: float | None = None
    modes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["modes"] = {str(k): v for k, v in self.modes.items()}
        return json.dumps(doc)


def evaluate_policy(
    mdp: EnumeratedMdp,
    log_pi: np.ndarray,
    l_hat: np.ndarray | None = None,
    l_exact: np.ndarray | None = None,
    thresholds=(1.0,),
    pearson_samples=None,
) -> EvalReport:
    """Assemble the standard report for one policy on an enumerable MDP; modes
    count every terminal, and ``pearson`` is None where it is undefined."""
    if l_exact is None:
        l_exact = exact.count_paths(mdp)
    log_mu = exact.log_marginals(mdp, log_pi)
    pearson = None
    if pearson_samples is not None:
        try:
            pearson = pearson_logprob(pearson_samples, log_mu, mdp.log_target)
        except DegenerateVariance:
            pass
    log_mu_t, log_p = _terminal_logs(mdp, log_mu)
    return EvalReport(
        kl_forward=_kl(log_mu_t, log_p, "forward"),
        kl_reverse=_kl(log_mu_t, log_p, "reverse"),
        l1=float(np.abs(np.exp(log_mu_t) - np.exp(log_p)).sum()),
        entropy=exact.flow_entropy(mdp, log_pi, np.exp(log_mu)),
        max_entropy_bound=exact.max_entropy_bound(mdp, l_exact),
        pearson=pearson,
        n_mse=None if l_hat is None else n_mse(l_hat, l_exact),
        modes=mode_count(mdp.terminal_ids, mdp.log_target, thresholds),
    )
