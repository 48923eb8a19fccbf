"""The paper's max-entropy theorem as properties over random DAGs, random
backward policies and log targets spread over up to 1400 nats.

For a backward q, ``forward_from_backward`` gives the one forward policy pi
that is consistent with q and the target; mu are pi's marginals.  Then

- the trajectory entropy is the target's entropy plus the expected backward
  entropy: flow_entropy(pi) = H(p) + sum_s mu(s) H(q(.|s));
- its gap to the bound H(p) + E_p[l] is a KL to the count-ratio backward
  q* = backward_maxent(count_paths): bound - flow_entropy(pi) =
  sum_s mu(s) KL(q(.|s) || q*(.|s)) >= 0, zero at q = q*;
- the soft-Q side: gsql_policy(l) is the forward policy of q*, and the
  initial soft value is log Z.

The sums over states are per-state loops here, independent of the
package's segment tables.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gflowdp import exact
from gflowdp.mdp import enumerate_mdp, parse_dag_text
from gflowdp.numerics import entropy_from_log_probs, logsumexp

from conftest import layered_dag_text, random_dag_text

TOL = 1e-9


def wide_targets(m, rng, span):
    """``m`` with terminal log targets drawn from a window ``span`` nats wide
    placed anywhere in [-1400, 1400]."""
    log_target = m.log_target.copy()
    low = rng.uniform(-1400.0, 1400.0 - span)
    log_target[m.terminal] = low + span * rng.random(int(m.terminal.sum()))
    return m.with_log_target(log_target)


def in_segments(m):
    """Each state's in-edge ids, state by state."""
    return [m.in_edge_ids(s) for s in range(m.n_states)]


def target_entropy(m):
    t = m.log_target[m.terminal]
    return entropy_from_log_probs(t - logsumexp(t))


dags = st.one_of(random_dag_text(), layered_dag_text(), layered_dag_text(skip=True))
spans = st.floats(0.0, 1400.0)


@given(dags, st.integers(0, 2**32 - 1), spans, st.sampled_from([0.0, 1.0, 4.0]))
@example("initial 0\nterminal 0 0.5\n", 0, 0.0, 1.0)  # no edges
@example("initial 0\n0 0 1\n0 1 2\n1 0 3\n2 0 3\nterminal 3 0.0\n", 1, 1400.0, 4.0)
@settings(max_examples=100, deadline=None)
def test_entropy_is_target_entropy_plus_backward_entropy_and_its_gap_is_a_kl(
        text, seed, span, scale):
    rng = np.random.default_rng(seed)
    m = wide_targets(enumerate_mdp(parse_dag_text(text)), rng, span)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        log_q = exact.backward_softmax(m, rng.normal(0.0, scale, m.n_edges))
        _, log_pi = exact.forward_from_backward(m, log_q)
        mu = exact.marginals(m, log_pi)
        entropy = exact.flow_entropy(m, log_pi, mu)
        l = exact.count_paths(m)
        bound = exact.max_entropy_bound(m, l)
        log_q_star = exact.backward_maxent(m, l)
    h_q = kl = 0.0
    for s, edges in enumerate(in_segments(m)):
        q = np.exp(log_q[edges])
        h_q += mu[s] * -(q * log_q[edges]).sum()
        kl += mu[s] * (q * (log_q[edges] - log_q_star[edges])).sum()
    assert abs(entropy - (target_entropy(m) + h_q)) <= TOL
    assert abs((bound - entropy) - kl) <= TOL
    assert bound - entropy >= -TOL


@given(dags, st.integers(0, 2**32 - 1), spans)
@example("initial 0\n0 0 1\n0 1 2\n1 0 3\n2 0 3\n1 1 4\nterminal 3 0.0\nterminal 4 0.0\n",
         2, 1400.0)
@settings(max_examples=100, deadline=None)
def test_count_ratio_backward_attains_the_bound_and_is_the_soft_q_solution(text, seed, span):
    rng = np.random.default_rng(seed)
    m = wide_targets(enumerate_mdp(parse_dag_text(text)), rng, span)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        l = exact.count_paths(m)
        _, log_pi = exact.forward_from_backward(m, exact.backward_maxent(m, l))
        v, _, log_pi_gsql = exact.gsql_solution(m, l)
        entropy = exact.flow_entropy(m, log_pi)
        bound = exact.max_entropy_bound(m, l)
    np.testing.assert_allclose(log_pi_gsql, log_pi, rtol=1e-12, atol=TOL)
    assert np.array_equal(exact.gsql_policy(m, l), log_pi_gsql)
    log_z = logsumexp(m.log_target[m.terminal])
    assert abs(v[m.initial] - log_z) <= TOL * max(1.0, abs(log_z))
    assert abs(bound - entropy) <= TOL
