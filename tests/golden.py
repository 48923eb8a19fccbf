"""The golden-output cases and the regeneration of their digests.

Each case is a config that runs ``enumerate``, ``exact``, ``train``,
``eval`` and ``eval --model`` (on the model ``train`` wrote) in-process
through ``cli.main``; its digests are the sha256 of every file those
commands write.  ``tests/test_golden.py`` checks them against
``golden_digests.json``, which also records the host they were made on.

A change that alters outputs on purpose regenerates the file in the same
commit, from the root of a checkout:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from gflowdp import cli

DIGESTS = Path(__file__).with_name("golden_digests.json")

# the criterion-9 config (tb, learned max-ent backward, bellman n objective)
TB = "objective = tb\nbackward = maxent-learned\nn_objective = bellman\n"
GRID6 = "name = hypergrid\ndims = 2\nside = 6\n"
SMALL = "batch_size = 16\nlearning_rate = 0.01\nsteps = 20\n"

# a DAG with multi-parent states and an edge that skips a level
DAG = """\
initial 0
0 0 1
0 1 2
0 2 4
1 0 3
1 1 4
2 0 4
2 1 5
3 0 6
4 0 6
4 1 7
5 0 7
terminal 6 0.5
terminal 7 -1.25
"""

# name -> (env section, train section without the seed, metrics_every, threads);
# the first four are the benchmark workloads' configs
CASES = {
    "exact-grid4d": ("name = hypergrid\ndims = 4\nside = 10\n",
                     TB + "batch_size = 64\nlearning_rate = 0.015\nsteps = 1\n", 1, 1),
    "train-grid8-tb": ("name = hypergrid\ndims = 2\nside = 8\n",
                       TB + "batch_size = 64\nlearning_rate = 0.015\nsteps = 100\n", 50, 1),
    "train-grid8-tb-threads3": ("name = hypergrid\ndims = 2\nside = 8\n",
                                TB + "batch_size = 64\nlearning_rate = 0.015\nsteps = 100\n",
                                50, 3),
    "train-grid64-tb": ("name = hypergrid\ndims = 2\nside = 64\n",
                        TB + "batch_size = 64\nlearning_rate = 0.015\nsteps = 10\n", 5, 1),
    "train-bitvec-stb": ("name = bitvector\nlength = 5\nones_reward = 0.5\n",
                         "objective = stb\nbackward = maxent-learned\n"
                         "n_objective = trajectory\nsteps = 24\n", 12, 1),
    "dag-file-db": ("name = dag-file\npath = {dir}/dag.txt\n",
                    "objective = db\nbackward = uniform\nn_objective = trajectory\n" + SMALL, 5, 1),
    "words-fm": ("name = words\nlength = 4\nalphabet = 2\nmode = append-either-side\n",
                 "objective = fm\nbackward = maxent-learned\nn_objective = trajectory\n" + SMALL,
                 5, 1),
    "tree-tb": ("name = tree\nmax_nodes = 5\nlabels = 2\n",
                "objective = tb\nbackward = maxent-learned\nn_objective = trajectory\n" + SMALL,
                5, 1),
    "stb-free": (GRID6, "objective = stb\nbackward = free\nn_objective = none\n" + SMALL, 5, 1),
    "pcl-known": (GRID6, "objective = pcl\nbackward = maxent-known\nn_objective = none\n" + SMALL,
                  5, 3),
    "fm-bellman": (GRID6, "objective = fm\nbackward = uniform\nn_objective = bellman\n" + SMALL,
                   5, 1),
    "tb-uniform-bellman": (GRID6, "objective = tb\nbackward = uniform\nn_objective = bellman\n"
                           + SMALL, 5, 1),
    # every group trains but log F, on the tempered target
    "tb-free-tempered": (GRID6, "objective = tb\nbackward = free\nn_objective = trajectory\n"
                         "reward_exponent = 2\n" + SMALL, 5, 1),
    # log F trains, l is read from the exact counts
    "db-known": ("name = dag-file\npath = {dir}/dag.txt\n",
                 "objective = db\nbackward = maxent-known\nn_objective = none\n" + SMALL, 5, 1),
}


def host() -> dict:
    """What decides the last bits of numpy's ``exp`` and ``log``: the numpy
    version, the machine, and the SIMD targets numpy dispatches to on it."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {"numpy": np.__version__, "machine": platform.machine(),
            "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def case_digests(name: str, work: Path) -> dict[str, str]:
    """``command/file`` -> sha256 of each file the case's commands write,
    run in the empty directory ``work``."""
    env, train, metrics_every, threads = CASES[name]
    (work / "dag.txt").write_text(DAG)
    config = work / "config.ini"
    config.write_text(f"[env]\n{env.format(dir=work)}[train]\n{train}seed = 7\n"
                      f"[eval]\nmetrics_every = {metrics_every}\n")
    commands = {
        "enumerate": ["enumerate"],
        "exact": ["exact"],
        "train": ["train", "--threads", str(threads)],
        "eval": ["eval"],
        "eval-model": ["eval", "--model", str(work / "train" / "model.json")],
    }
    digests = {}
    for label, argv in commands.items():
        out = work / label
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*argv, "--config", str(config), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{name}: {label} exited {rc}")
        for path in sorted(out.iterdir()):
            digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = {}
        for name in CASES:
            (Path(tmp) / name).mkdir()
            cases[name] = case_digests(name, Path(tmp) / name)
    DIGESTS.write_text(json.dumps({"host": host(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
