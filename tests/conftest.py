"""Shared fixtures, test-local brute-force oracles and test helpers.

The oracles here deliberately avoid the library's DP code paths: path counts
come from exhaustive recursion with exact integers, probabilities from
explicit products over enumerated trajectories.  The ``oracle_*_json``
writers are the plain ``json.dumps`` forms of the package's JSON writers.
The helpers build and read what only tests need: a model at the exact fixed
point, a batch from given trajectories, the exact tables back from their
JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from gflowdp import envs, exact, mdp
from gflowdp.learner import PolicyModel, RolloutBatch, SampledPath
from gflowdp.numerics import logsumexp

# the tests that start a Python subprocess import the same package as this
# run, also from a checkout that is not installed
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(mdp.__file__).parents[1]), os.environ.get("PYTHONPATH")]))

# ---------------------------------------------------------------------------
# oracles


def oracle_path_counts(m: mdp.EnumeratedMdp) -> list[int]:
    """Count paths from the initial state by walking every one of them."""
    counts = [0] * m.n_states

    def walk(s: int) -> None:
        counts[s] += 1
        for c in m.edge_dst[m.out_slice(s)].tolist():
            walk(c)

    walk(m.initial)
    return counts


def oracle_trajectories(m: mdp.EnumeratedMdp):
    """All (states, edges) trajectories from the initial state, by recursion."""
    out = []

    def walk(s, states, edges):
        if m.terminal[s]:
            out.append((tuple(states), tuple(edges)))
            return
        for e in range(int(m.out_offset[s]), int(m.out_offset[s + 1])):
            walk(int(m.edge_dst[e]), states + [int(m.edge_dst[e])], edges + [e])

    walk(m.initial, [m.initial], [])
    return out


def oracle_trajectory_probs(m: mdp.EnumeratedMdp, log_pi: np.ndarray):
    """(states, edges, probability) per trajectory, probabilities by product."""
    out = []
    for states, edges in oracle_trajectories(m):
        p = 1.0
        for e in edges:
            p *= math.exp(log_pi[e])
        out.append((states, edges, p))
    return out


def oracle_terminal_probs(m: mdp.EnumeratedMdp, log_pi: np.ndarray) -> np.ndarray:
    probs = np.zeros(m.n_states)
    for states, _, p in oracle_trajectory_probs(m, log_pi):
        probs[states[-1]] += p
    return probs


def random_log_pi(m: mdp.EnumeratedMdp, rng: np.random.Generator) -> np.ndarray:
    """A random valid forward policy as a per-edge log-prob array."""
    out = np.zeros(m.n_edges)
    for s in range(m.n_states):
        sl = m.out_slice(s)
        if sl.stop > sl.start:
            logits = rng.normal(0.0, 1.0, sl.stop - sl.start)
            out[sl] = logits - logsumexp(logits)
    return out


@st.composite
def random_dag_text(draw):
    """DAG spec text for a random single-initial DAG of 2-10 states: each
    state after the first gets 1-3 distinct lower-numbered parents, and every
    sink is a terminal with a log target in [-2, 2]."""
    n = draw(st.integers(min_value=2, max_value=10))
    lines = ["initial 0"]
    actions = {s: 0 for s in range(n)}
    has_parent = [False] * n
    for child in range(1, n):
        k = draw(st.integers(min_value=1, max_value=min(3, child)))
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=child - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        for p in parents:
            lines.append(f"{p} {actions[p]} {child}")
            actions[p] += 1
            has_parent[child] = True
    sinks = [s for s in range(n) if actions[s] == 0]
    for s in sinks:
        value = draw(st.floats(min_value=-2.0, max_value=2.0))
        lines.append(f"terminal {s} {value!r}")
    return "\n".join(lines) + "\n"


@st.composite
def layered_dag_text(draw, skip=False):
    """DAG spec text for a random layered DAG: the initial state, then 2-4
    layers of 1-3 states, each state with 1-3 distinct parents in the layer
    before, so every edge goes from layer k to layer k + 1 and breadth-first
    discovery finds each state at its layer.  With ``skip``, one more edge
    goes from a state to one two or more layers further on, so discovery
    finds that state early.  Every sink is a terminal with a log target in
    [-2, 2]."""
    layers, n = [[0]], 1
    for size in draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)):
        layers.append(list(range(n, n + size)))
        n += size
    lines = ["initial 0"]
    actions = [0] * n
    for above, layer in zip(layers, layers[1:]):
        for child in layer:
            k = draw(st.integers(1, min(3, len(above))))
            for p in draw(st.lists(st.sampled_from(above), min_size=k, max_size=k, unique=True)):
                lines.append(f"{p} {actions[p]} {child}")
                actions[p] += 1
    if skip:
        i = draw(st.integers(0, len(layers) - 3))
        p = draw(st.sampled_from(layers[i]))
        child = draw(st.sampled_from([s for layer in layers[i + 2:] for s in layer]))
        lines.append(f"{p} {actions[p]} {child}")
        actions[p] += 1
    for s in range(n):
        if actions[s] == 0:
            lines.append(f"terminal {s} {draw(st.floats(min_value=-2.0, max_value=2.0))!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fixture MDPs


TWO_TERMINAL_TEXT = f"""
# two terminals with different path counts: n(3)=2, n(4)=1
initial 0
0 0 1
0 1 2
1 0 3
2 0 3
2 1 4
terminal 3 {math.log(0.7)!r}
terminal 4 {math.log(0.2)!r}
"""


@pytest.fixture(scope="session")
def fig_diamond() -> mdp.EnumeratedMdp:
    """The 4-state diamond with a cross edge and one terminal (3 paths)."""
    return mdp.enumerate_mdp(envs.SimpleDagEnv())


@pytest.fixture(scope="session")
def two_terminal() -> mdp.EnumeratedMdp:
    return mdp.enumerate_mdp(mdp.parse_dag_text(TWO_TERMINAL_TEXT))


@pytest.fixture(scope="session")
def grid33() -> mdp.EnumeratedMdp:
    return mdp.enumerate_mdp(envs.HypergridEnv(2, 3))


@pytest.fixture(scope="session")
def grid44() -> mdp.EnumeratedMdp:
    return mdp.enumerate_mdp(envs.HypergridEnv(2, 4))


@pytest.fixture(scope="session")
def chain() -> mdp.EnumeratedMdp:
    text = "initial 0\n0 0 1\n1 0 2\n2 0 3\nterminal 3 0.0\n"
    return mdp.enumerate_mdp(mdp.parse_dag_text(text))


@pytest.fixture(scope="session")
def single_state() -> mdp.EnumeratedMdp:
    return mdp.enumerate_mdp(mdp.parse_dag_text("initial 0\nterminal 0 0.5\n"))


@pytest.fixture(scope="session")
def tree_env_mdp() -> mdp.EnumeratedMdp:
    """Unlabeled trees up to 5 nodes; maxent backward is non-uniform here."""
    return mdp.enumerate_mdp(envs.TreeBuildEnv(1, 5))


@pytest.fixture(scope="session")
def bitvec3() -> mdp.EnumeratedMdp:
    return mdp.enumerate_mdp(envs.BitVectorEnv(3, ones_reward=0.4))


@pytest.fixture(scope="session")
def mdp_zoo(fig_diamond, two_terminal, grid33, grid44, chain, single_state, tree_env_mdp, bitvec3):
    """Small MDPs with varied structure, all cheap to enumerate exhaustively."""
    words_e = mdp.enumerate_mdp(envs.WordsEnv(2, 4, "append-either-side"))
    words_r = mdp.enumerate_mdp(envs.WordsEnv(2, 4, "append-right"))
    grid_d3 = mdp.enumerate_mdp(envs.HypergridEnv(3, 3))
    return [
        fig_diamond,
        two_terminal,
        grid33,
        grid44,
        grid_d3,
        chain,
        single_state,
        tree_env_mdp,
        bitvec3,
        words_e,
        words_r,
    ]


def find_state(m: mdp.EnumeratedMdp, encoding: bytes) -> int:
    return m.states.index(encoding)


# ---------------------------------------------------------------------------
# helpers


def parents_of(m: mdp.EnumeratedMdp, s: int) -> list[tuple[int, int]]:
    """(parent, action) pairs of ``s`` in (parent, action) order."""
    ids = m.in_edge_ids(s)
    return list(zip(m.edge_src[ids].tolist(), m.edge_action[ids].tolist()))


def edge_set(m: mdp.EnumeratedMdp) -> set[tuple[int, int]]:
    """Edges as (src, dst) index pairs, ignoring action labels."""
    return set(zip(m.edge_src.tolist(), m.edge_dst.tolist()))


def tree_n_from_state(state: bytes) -> int:
    """``envs.tree_n`` of the tree a ``TreeBuildEnv`` state encodes."""
    labels, adj = envs.parse_tree(state)
    edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
    return envs.tree_n(len(labels), edges)


def exact_tables_from_json(text: str) -> exact.ExactTables:
    """The tables ``ExactTables.to_json`` wrote."""
    doc = json.loads(text)
    n = len(doc["states"])
    cols = {key: np.zeros(n) for key in ("l", "V", "mu", "logF")}
    for s, row in doc["states"].items():
        for key, col in cols.items():
            col[int(s)] = row[key]
    return exact.ExactTables(**cols, logZ=float(doc["logZ"]))


def oracle_exact_tables_json(tables: exact.ExactTables) -> str:
    """``ExactTables.to_json``'s bytes, from ``json.dumps`` of the lists."""
    rows = zip(tables.l.tolist(), tables.V.tolist(), tables.mu.tolist(), tables.logF.tolist())
    doc = {
        "logZ": float(tables.logZ),
        "states": {
            str(s): {"l": l, "V": v, "mu": mu, "logF": log_f}
            for s, (l, v, mu, log_f) in enumerate(rows)
        },
    }
    return json.dumps(doc)


def oracle_lists_json(doc: dict) -> str:
    """``cli.lists_json``'s bytes: ``json.dumps`` with ``indent=2``."""
    return json.dumps({key: np.asarray(v, dtype=float).tolist() for key, v in doc.items()},
                      indent=2)


def oracle_model_json(model: PolicyModel) -> str:
    """``cli.model_to_json``'s bytes, from ``json.dumps`` of the lists."""
    doc = {f.name: getattr(model, f.name).tolist() for f in fields(PolicyModel)}
    doc["log_z_hat"] = model.log_z
    return json.dumps(doc)


def model_at_exact(m: mdp.EnumeratedMdp, tables: exact.ExactTables) -> PolicyModel:
    """The model at the fixed point: every residual is zero there.  The
    constructor copies the tables into the model's buffer."""
    return PolicyModel(
        forward_logits=exact.gsql_policy(m, tables.l),
        backward_logits=exact.backward_maxent(m, tables.l),
        l_hat=tables.l,
        log_f_hat=tables.logF,
        log_z_hat=np.array([tables.logZ]),
    )


def batch_from_trajectories(trajectories: list[SampledPath]) -> RolloutBatch:
    """The batch of the given trajectories, its ``trajectories`` view primed
    with them."""
    lengths = [len(t.edges) for t in trajectories]
    b, width = len(trajectories), max(lengths, default=0)
    states = [np.pad(t.states, (0, width - n), mode="edge")
              for t, n in zip(trajectories, lengths)]
    edges = [np.pad(t.edges, (0, width - n), constant_values=-1)
             for t, n in zip(trajectories, lengths)]
    batch = RolloutBatch.from_rows(np.array(states, dtype=np.int64).reshape(b, width + 1),
                                   np.array(edges, dtype=np.int64).reshape(b, width))
    batch.trajectories = list(trajectories)
    return batch
