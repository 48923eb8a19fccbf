"""Whole-command invariances on small DAG files, driven through ``cli.main``
in this process: outputs do not depend on how a DAG file names its states
or orders its lines, the action labels at a state move only the state
numbering, and a constant added to every log target moves only the
quantities that carry the target's scale."""

import json
import random
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gflowdp import cli
from gflowdp.mdp import enumerate_mdp, parse_dag_text

from conftest import layered_dag_text, random_dag_text

CONFIG = """
[env]
name = dag-file
path = {path}

[train]
objective = tb
backward = maxent-learned
n_objective = bellman
learning_rate = 0.05
batch_size = 8
steps = 4
seed = 3

[eval]
metrics_every = 2
pearson_samples = 16
"""


def run_all(root, text):
    """Every file that enumerate, exact, train and eval (exact and trained
    policy) write for the DAG ``text``, by name."""
    root.mkdir()
    (root / "dag.txt").write_text(text)
    cfg = root / "config.ini"
    cfg.write_text(CONFIG.format(path=root / "dag.txt"))
    out = {}
    for command, extra in (("enumerate", []), ("exact", []), ("train", []), ("eval", []),
                           ("eval", ["--model", str(root / "train" / "model.json")])):
        target = root / f"{command}{len(extra)}"
        argv = [command, "--config", str(cfg), "--out", str(target)] + extra
        assert cli.main(argv) == 0, argv
        if command == "train":
            target.rename(root / "train")
            target = root / "train"
        out.update({f"{target.name}/{f.name}": f.read_bytes() for f in target.iterdir()})
    return out


def rewrite(text, name, shift=0.0):
    """``text`` with every state id mapped by ``name`` and ``shift`` added to
    every log target."""
    lines = []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "initial":
            parts[1] = str(name[int(parts[1])])
        elif parts[0] == "terminal":
            # as written when unshifted: 0.0 + -0.0 would turn a -0.0 target into 0.0
            parts[1:] = [str(name[int(parts[1])]),
                         repr(float(parts[2]) + shift) if shift else parts[2]]
        else:
            parts[0], parts[2] = str(name[int(parts[0])]), str(name[int(parts[2])])
        lines.append(" ".join(parts))
    return lines


# random_dag_text names its states 0..n-1 with n <= 10
new_ids = st.lists(st.integers(0, 10**6), min_size=10, max_size=10, unique=True)


@given(random_dag_text(), new_ids, st.randoms(use_true_random=False))
# a -0.0 target, which the rewritten text must keep
@example(text="initial 0\n" + "".join(f"0 {k} {k + 1}\n" for k in range(6)) + "1 0 7\n"
         + "".join(f"terminal {s} 0.0\n" for s in range(2, 7)) + "terminal 7 -0.0\n",
         ids=list(range(10)), rnd=random.Random(0))
@settings(max_examples=25, deadline=None)
def test_outputs_do_not_depend_on_state_ids_or_line_order(tmp_path_factory, text, ids, rnd):
    lines = rewrite(text, ids)
    rnd.shuffle(lines)
    root = tmp_path_factory.mktemp("ids")
    assert run_all(root / "a", text) == run_all(root / "b", "\n".join(lines) + "\n")


def exact_outputs(root, text):
    root.mkdir()
    (root / "dag.txt").write_text(text)
    (root / "config.ini").write_text(CONFIG.format(path=root / "dag.txt"))
    assert cli.main(["exact", "--config", str(root / "config.ini"), "--out", str(root)]) == 0
    tables = json.loads((root / "exact_tables.json").read_text())
    policies = json.loads((root / "policies.json").read_text())
    columns = {key: np.array([row[key] for row in tables["states"].values()])
               for key in ("l", "V", "mu", "logF")}
    return tables["logZ"], columns, {key: np.array(v) for key, v in policies.items()}


@given(random_dag_text(), st.floats(-30.0, 30.0))
@settings(max_examples=40, deadline=None)
def test_a_constant_on_the_log_targets_shifts_only_the_scaled_tables(tmp_path_factory, text, c):
    root = tmp_path_factory.mktemp("shift")
    log_z, tables, policies = exact_outputs(root / "a", text)
    shifted = "\n".join(rewrite(text, range(10), c)) + "\n"
    log_z_c, tables_c, policies_c = exact_outputs(root / "b", shifted)
    tol = 1e-9 * (1.0 + abs(c))
    assert abs(log_z_c - (log_z + c)) <= tol
    for key in ("l", "mu"):
        assert np.allclose(tables_c[key], tables[key], rtol=0.0, atol=tol), key
    for key in ("V", "logF"):
        assert np.allclose(tables_c[key], tables[key] + c, rtol=0.0, atol=tol), key
    for key in policies:  # the uniform backward's forward is scale-free too
        assert np.allclose(policies_c[key], policies[key], rtol=0.0, atol=tol), key


def permute_actions(text, rnd):
    """``text`` with the action ids of each state permuted at random."""
    lines = [line.split() for line in text.splitlines()]
    degree = Counter(parts[0] for parts in lines if parts[0] not in ("initial", "terminal"))
    new_id = {p: rnd.sample(range(k), k) for p, k in degree.items()}
    for parts in lines:
        if parts[0] in new_id:
            parts[1] = str(new_id[parts[0]][int(parts[1])])
    return "\n".join(" ".join(parts) for parts in lines) + "\n"


@given(st.one_of(random_dag_text(), layered_dag_text()), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_action_labels_move_only_the_state_numbering(tmp_path_factory, text, rnd):
    root = tmp_path_factory.mktemp("actions")
    permuted = permute_actions(text, rnd)
    log_z, tables, _ = exact_outputs(root / "a", text)
    log_z_p, tables_p, _ = exact_outputs(root / "b", permuted)
    # the commands number the states as enumerate_mdp does; match them by encoding
    index = {s: i for i, s in enumerate(enumerate_mdp(parse_dag_text(permuted)).states)}
    match = [index[s] for s in enumerate_mdp(parse_dag_text(text)).states]
    assert abs(log_z_p - log_z) <= 1e-9
    for key in ("l", "V", "mu", "logF"):
        assert np.allclose(tables_p[key][match], tables[key], rtol=0.0, atol=1e-9), key
