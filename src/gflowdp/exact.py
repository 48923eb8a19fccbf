"""Exact dynamic-programming solvers on enumerated acyclic MDPs.

Everything here is a pure function of an ``EnumeratedMdp``: log path counts,
soft (logsumexp) Bellman values and their softmax policies, state flows and
the forward policy induced by a backward policy, marginals, partition
function, and the two entropy computations (flow-based and brute-force over
trajectories).

Policies are flat edge arrays: a forward policy is ``log_pi[E]`` normalized
within each state's out-edge segment, a backward policy is ``log_q[E]``
normalized within each state's in-edge segment by ``backward_softmax``,
which ``backward_maxent`` applies to the parents' log counts.

Every DP is one of two log-space recursions over the CSR edge tables:

- ``push_forward``: a state's value is the logsumexp over its in-edges of
  parent value plus edge weight (path counts, marginals);
- ``pull_backward``: a state's value is the logsumexp over its out-edges of
  child value plus edge weight (soft values, flows).

``enumerate_mdp`` numbers the states level by level, so each level is an
index range, a run of ``EnumeratedMdp.levels``.  Both recursions update a
whole run at once with ``padded_logsumexp``, reading its states, its edge
segments and its window of one ``numerics.padded_layout`` per direction
(``mdp.padded_runs``, cached on the MDP) as slices: O(E) numpy work plus a
fixed few numpy calls per run.  The softmaxes and sums over segments take
the segments' lengths, ``np.diff`` of the CSR offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .mdp import EnumeratedMdp, segment_positions
from .numerics import NEG_INF, entropy_from_log_probs, json_float_texts, logsumexp
from .numerics import padded_logsumexp, segment_log_softmax, segment_sum


class ExactError(Exception):
    pass


class NonFiniteTarget(ExactError):
    """A terminal state has a non-finite log target."""


class ZeroFlow(ExactError):
    """A non-terminal state has no path to a positive-target terminal."""


class TrajectoryBudgetExceeded(ExactError):
    """Brute-force enumeration hit its trajectory budget."""


def _sweep(mdp: EnumeratedMdp, out: np.ndarray, runs: list[tuple], terms) -> np.ndarray:
    """Set ``out[a:b]`` of each of the ``runs`` in turn to the logsumexp over
    each state's segment of ``terms(lo, hi)``, the run's terms."""
    padded = np.zeros(mdp.n_edges + mdp.n_states)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for a, b, lo, hi, starts, lengths, slots, heads in runs:
            out[a:b] = padded_logsumexp(terms(lo, hi), starts, lengths, slots, heads,
                                        padded[: hi + b])
    return out


def push_forward(mdp: EnumeratedMdp, log_w: np.ndarray, log_init: np.ndarray) -> np.ndarray:
    """Forward log-space recursion over in-edges, one run at a time.

    ``out(s) = log_init(s)`` for states without parents, which in a valid MDP
    is the initial state alone; every other state gets the logsumexp over its
    in-edges ``e`` of ``out(src e) + log_w(e)``, and its ``log_init`` is not
    read.
    """
    log_w, e = np.asarray(log_w, dtype=float), mdp.in_edges
    out, src = np.array(log_init, dtype=float), mdp.edge_src[e]
    return _sweep(mdp, out, mdp.in_runs, lambda lo, hi: out[src[lo:hi]] + log_w[e[lo:hi]])


def pull_backward(mdp: EnumeratedMdp, log_w: np.ndarray, log_terminal: np.ndarray) -> np.ndarray:
    """Backward log-space recursion over out-edges, last run first.

    ``out(s) = log_terminal(s)`` for states without children; otherwise the
    logsumexp over out-edges ``e`` of ``log_w(e) + out(dst e)``.
    """
    log_w = np.asarray(log_w, dtype=float)
    out = np.array(log_terminal, dtype=float)
    return _sweep(mdp, out, mdp.out_runs[::-1],
                  lambda lo, hi: log_w[lo:hi] + out[mdp.edge_dst[lo:hi]])


def count_paths(mdp: EnumeratedMdp) -> np.ndarray:
    """Log number of distinct trajectories from the initial state.

    One topological pass: l(initial)=0 and l(s') = logsumexp over parents of
    l(s).  Equivalently, the zero-reward soft value function of the reversed
    DAG, in which the initial state is the one terminal, and the log
    marginals of unit edge weights.
    """
    return log_marginals(mdp, np.zeros(mdp.n_edges))


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

    v = pull_backward(mdp, r_step, r_term)
    q = r_step + v[mdp.edge_dst]
    return v, q, q - v[mdp.edge_src]


def gsql_rewards(mdp: EnumeratedMdp, l: np.ndarray) -> np.ndarray:
    """Terminal rewards log p~(t) - l(t) that make soft values sample the target."""
    if not np.isfinite(mdp.log_target[mdp.terminal]).all():
        raise NonFiniteTarget("every terminal state needs a finite log target")
    r_term = np.zeros(mdp.n_states)
    t = mdp.terminal
    r_term[t] = mdp.log_target[t] - l[t]
    return r_term


def gsql_solution(
    mdp: EnumeratedMdp, l: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Soft values, per-edge Q, and policy under zero step rewards and
    terminal reward log p~(t) - l(t)."""
    return soft_value_iteration(mdp, terminal_rewards=gsql_rewards(mdp, l))


def gsql_policy(mdp: EnumeratedMdp, l: np.ndarray) -> np.ndarray:
    """Forward policy whose terminal distribution is exactly p~/Z."""
    return gsql_solution(mdp, l)[2]


def log_partition(mdp: EnumeratedMdp, l: np.ndarray) -> tuple[float, float]:
    """(logsumexp of terminal log-targets, initial soft value).

    The two coincide: the initial-state value under the count-corrected
    terminal reward is the log partition function.
    """
    direct = logsumexp(mdp.log_target[mdp.terminal])
    v, _, _ = gsql_solution(mdp, l)
    return direct, float(v[mdp.initial])


def log_marginals(mdp: EnumeratedMdp, log_pi: np.ndarray) -> np.ndarray:
    """Log probability of passing through each state under a forward policy."""
    log_init = np.full(mdp.n_states, NEG_INF)
    log_init[mdp.initial] = 0.0
    return push_forward(mdp, log_pi, log_init)


def marginals(mdp: EnumeratedMdp, log_pi: np.ndarray) -> np.ndarray:
    """Probability of passing through each state under a forward policy."""
    return np.exp(log_marginals(mdp, log_pi))


def terminal_distribution(mdp: EnumeratedMdp, log_pi: np.ndarray) -> np.ndarray:
    """Marginal restricted to terminal states (zero elsewhere)."""
    mu = marginals(mdp, log_pi)
    out = np.zeros_like(mu)
    out[mdp.terminal] = mu[mdp.terminal]
    return out


def target_distribution(mdp: EnumeratedMdp) -> np.ndarray:
    """Normalized target p over states (zero off terminal states)."""
    p = np.zeros(mdp.n_states)
    t = mdp.terminal
    p[t] = np.exp(mdp.log_target[t] - logsumexp(mdp.log_target[t]))
    return p


def backward_softmax(mdp: EnumeratedMdp, logits: np.ndarray) -> np.ndarray:
    """Backward policy: softmax of per-edge logits within each state's
    in-edge segment."""
    log_q = np.empty(mdp.n_edges)
    log_q[mdp.in_edges] = segment_log_softmax(logits[mdp.in_edges], np.diff(mdp.in_offset))
    return log_q


def backward_maxent(mdp: EnumeratedMdp, l: np.ndarray) -> np.ndarray:
    """Backward policy log q(s,a|s') = l(s) - logsumexp of l over the
    parents of s', for exact or learned (``learner.backward_from_counts``) l.

    On exact counts the logsumexp is l(s'), so q = n(s)/n(s'): the unique
    backward whose induced forward policy maximizes trajectory entropy,
    uniform over the backward trajectories of each terminal state.
    """
    return backward_softmax(mdp, l[mdp.edge_src])


def backward_uniform(mdp: EnumeratedMdp) -> np.ndarray:
    """Backward policy uniform over each state's parent pairs."""
    return -np.log(np.diff(mdp.in_offset)[mdp.edge_dst])


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
    log_q = np.asarray(log_q, dtype=float)
    log_f = pull_backward(mdp, log_q, mdp.log_target)
    dry = np.flatnonzero(~mdp.terminal & (log_f == NEG_INF))
    if dry.size:
        raise ZeroFlow(f"state {int(dry[-1])} has no path to a positive-target terminal")
    return log_f, log_q + log_f[mdp.edge_dst] - log_f[mdp.edge_src]


def flow_entropy(
    mdp: EnumeratedMdp, log_pi: np.ndarray, mu: np.ndarray | None = None
) -> float:
    """Expected per-state policy entropy weighted by marginals."""
    if mu is None:
        mu = marginals(mdp, log_pi)
    log_pi = np.asarray(log_pi, dtype=float)
    p = np.exp(log_pi)
    plogp = np.multiply(p, log_pi, out=np.zeros_like(p), where=p > 0.0)
    live = np.flatnonzero(~mdp.terminal & (mu != 0.0))
    edges, lengths = segment_positions(mdp.out_offset, live)
    return float((mu[live] * -segment_sum(plogp[edges], lengths)).sum())


def iter_trajectories(
    mdp: EnumeratedMdp, budget: int = 1_000_000
) -> Iterator[list[int]]:
    """Yield every trajectory (as a list of edge ids) from the initial state."""
    count = 0
    stack: list[int] = []

    def walk(s: int) -> Iterator[list[int]]:
        nonlocal count
        if mdp.terminal[s]:
            count += 1
            if count > budget:
                raise TrajectoryBudgetExceeded(f"more than {budget} trajectories")
            yield list(stack)
            return
        for e in range(int(mdp.out_offset[s]), int(mdp.out_offset[s + 1])):
            stack.append(e)
            yield from walk(int(mdp.edge_dst[e]))
            stack.pop()

    yield from walk(mdp.initial)


def trajectory_entropy_bruteforce(
    mdp: EnumeratedMdp, log_pi: np.ndarray, budget: int = 1_000_000
) -> float:
    """Shannon entropy of the trajectory distribution by full enumeration."""
    total = 0.0
    for edges in iter_trajectories(mdp, budget):
        lp = float(log_pi[edges].sum()) if edges else 0.0
        p = np.exp(lp)
        if p > 0.0:
            total -= p * lp
    return total


def max_entropy_bound(mdp: EnumeratedMdp, l: np.ndarray) -> float:
    """Largest trajectory entropy attainable while sampling the target:
    H(p) + sum_t p(t) l(t)."""
    t = mdp.terminal
    log_p = mdp.log_target[t] - logsumexp(mdp.log_target[t])
    p = np.exp(log_p)
    return float(entropy_from_log_probs(log_p) + (p * l[t]).sum())


@dataclass(frozen=True)
class ExactTables:
    """All closed-form per-state quantities for one MDP.

    l: log path counts; V: soft values under the count-corrected terminal
    reward; mu: marginals of the induced policy; logF: state flows of the
    maximum-entropy flow solution; logZ: log partition function.
    """

    l: np.ndarray
    V: np.ndarray
    mu: np.ndarray
    logF: np.ndarray
    logZ: float

    def to_json(self) -> str:
        """``json.dumps`` of ``{"logZ": logZ, "states": {"<s>": {"l": ..,
        "V": .., "mu": .., "logF": ..}}}``, byte for byte, with each distinct
        value formatted once (``json_float_texts``)."""
        n = self.l.size
        columns = np.column_stack((self.l, self.V, self.mu, self.logF))
        texts = json_float_texts(np.append(columns, self.logZ))
        cells = np.empty((n, 9), dtype=object)
        cells[:, 0] = [f'"{s}": {{"l": ' for s in range(n)]
        cells[:, 1::2] = texts[:-1].reshape(n, 4)
        cells[:, 2:8:2] = [', "V": ', ', "mu": ', ', "logF": ']
        cells[:, 8] = "}, "
        cells[n - 1:, 8] = "}"  # no ", " after the last state
        states = "".join(cells.ravel().tolist())
        return f'{{"logZ": {texts[-1]}, "states": {{{states}}}}}'


def maxent_solution(mdp: EnumeratedMdp) -> tuple[ExactTables, np.ndarray, np.ndarray]:
    """The exact tables with the max-entropy forward and backward policies
    ``(log_pi, log_q)`` they were solved from, each DP run once."""
    l = count_paths(mdp)
    v, _, log_pi = gsql_solution(mdp, l)
    log_q = backward_maxent(mdp, l)
    log_f, _ = forward_from_backward(mdp, log_q)
    log_z = float(logsumexp(mdp.log_target[mdp.terminal]))
    return ExactTables(l=l, V=v, mu=marginals(mdp, log_pi), logF=log_f, logZ=log_z), log_pi, log_q


def exact_tables(mdp: EnumeratedMdp) -> ExactTables:
    """Solve every table at once for the maximum-entropy flow solution."""
    return maxent_solution(mdp)[0]
