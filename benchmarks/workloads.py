"""Workloads, the generated INI configs, the CLI runner and the output checks.

Every workload runs the package's CLI story on its own MDP: ``exact`` (the
closed-form tables), ``train`` (tabular training) and ``eval`` (exact
metrics of a policy).  The workloads differ in MDP size and training config,
so each one puts most of its time into a different layer, and each command
kind gets a share of the run's time budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gflowdp import cli
from gflowdp.learner import MetricsRow
from gflowdp.mdp import enumerate_mdp
from hostspeed import HostSpeed

TOL = 1e-9
MIN_SAMPLES = 3

# The criterion-9 desk-run config (tb, learned max-ent backward, bellman n).
TRAIN_TB = (
    "objective = tb\n"
    "backward = maxent-learned\n"
    "n_objective = bellman\n"
    "batch_size = 64\n"
    "learning_rate = 0.015\n"
    "epsilon_uniform = 1e-3\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    env: str  # [env] section body
    train: str  # [train] section body, without the seed
    metrics_every: int
    eval_model: bool  # eval the trained model, else the exact max-ent policy
    shares: dict  # command kind -> share of the run's seconds
    golden: tuple  # (state encoding, exact log path count) checked in exact_tables.json

    def config_text(self, seed: int) -> str:
        return (
            f"[env]\n{self.env}"
            f"[train]\n{self.train}seed = {seed}\n"
            f"[eval]\nmetrics_every = {self.metrics_every}\n"
        )


def _grid_corner(dims: int, side: int) -> tuple:
    """Far-corner terminal of a hypergrid and its log path count
    log((d(side-1))! / ((side-1)!)^d)."""
    k = side - 1
    return bytes([1] + [k] * dims), math.lgamma(dims * k + 1) - dims * math.lgamma(k + 1)


WORKLOADS = {
    w.name: w
    for w in (
        # S=20000, E=46000: enumeration, validation and every exact DP carry
        # the run; one training step on it shows how a step scales with S.
        Workload(
            name="exact-grid4d",
            env="name = hypergrid\ndims = 4\nside = 10\n",
            train=TRAIN_TB + "steps = 1\n",
            metrics_every=1,
            eval_model=False,
            shares={"exact": 0.5, "train": 0.1, "eval": 0.4},
            golden=_grid_corner(4, 10),
        ),
        # S=128: sampling, loss and per-state loops share a step; the config
        # of criterion 9.
        Workload(
            name="train-grid8-tb",
            env="name = hypergrid\ndims = 2\nside = 8\n",
            train=TRAIN_TB + "steps = 100\n",
            metrics_every=50,
            eval_model=True,
            shares={"exact": 0.15, "train": 0.7, "eval": 0.15},
            golden=_grid_corner(2, 8),
        ),
        # S=8192: per-state Python loops and the metrics rows dominate a step.
        Workload(
            name="train-grid64-tb",
            env="name = hypergrid\ndims = 2\nside = 64\n",
            train=TRAIN_TB + "steps = 10\n",
            metrics_every=5,
            eval_model=True,
            shares={"exact": 0.2, "train": 0.6, "eval": 0.2},
            golden=_grid_corner(2, 64),
        ),
        # S=243 multi-parent DAG, T=5, B=256: the walker loop and the stb
        # cross_cumsum triangle dominate.
        Workload(
            name="train-bitvec-stb",
            env="name = bitvector\nlength = 5\nones_reward = 0.5\n",
            train=(
                "objective = stb\n"
                "backward = maxent-learned\n"
                "n_objective = trajectory\n"
                "steps = 24\n"
            ),
            metrics_every=12,
            eval_model=True,
            shares={"exact": 0.15, "train": 0.7, "eval": 0.15},
            golden=(b"11111", math.log(math.factorial(5))),
        ),
    )
}

OUTPUTS = {
    "exact": ("exact_tables.json", "policies.json", "exact_report.json"),
    "train": ("metrics.csv", "model.json"),
    "eval": ("eval_report.json",),
}


class Ledger:
    """Every command run and every output check, with its outcome."""

    def __init__(self):
        self.ops: list[dict] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append({"op": name, "ok": bool(ok), "detail": detail})
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.record(f"check {name}", ok, detail)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures())

    def failures(self) -> list[dict]:
        return [op for op in self.ops if not op["ok"]]


def run_cli(argv: list[str]) -> tuple[int | None, float, str, str]:
    """One CLI command in this process: (exit code, wall seconds, stdout, stderr).

    An exception escaping ``cli.main`` is a failed command (exit code None).
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # the benchmark must report a crash, not die on it
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def command_argv(kind: str, workload: Workload, ini: Path, out: Path, seed: int) -> list[str]:
    argv = [kind, "--config", str(ini), "--out", str(out), "--seed", str(seed), "--threads", "1"]
    if kind == "eval" and workload.eval_model:
        argv += ["--model", str(out / "model.json")]
    return argv


def read_metrics_csv(path: Path) -> tuple[str, list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


class OutputChecks:
    """Checks of one workload's command outputs; each check is one ledger op.

    A repeated command must write byte-identical files (every command is
    deterministic for a fixed seed and stream count).
    """

    def __init__(self, workload: Workload, mdp, ledger: Ledger):
        self.workload = workload
        self.ledger = ledger
        self.golden_state = mdp.states.index(workload.golden[0])
        self.digests: dict[str, str] = {}
        self.exact_bound: float | None = None
        self.last_row: dict | None = None

    def run(self, kind: str, out: Path) -> None:
        """The checks of one finished command; unreadable outputs fail a check."""
        try:
            getattr(self, kind)(out)
            self.repeat(kind, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.ledger.check(f"{kind} outputs readable", False, repr(exc))

    def repeat(self, kind: str, out: Path) -> None:
        h = hashlib.sha256()
        for name in OUTPUTS[kind]:
            h.update((out / name).read_bytes())
        digest = h.hexdigest()
        first = self.digests.setdefault(kind, digest)
        self.ledger.check(f"{kind} outputs repeat byte-identical", digest == first)

    def exact(self, out: Path) -> None:
        c = self.ledger.check
        report = json.loads((out / "exact_report.json").read_text())
        self.exact_bound = report["max_entropy_bound"]
        c("exact logZ == logZ_value", abs(report["logZ"] - report["logZ_value"]) <= TOL,
          f"{report['logZ']} vs {report['logZ_value']}")
        c("exact entropy_maxent == max_entropy_bound",
          abs(report["entropy_maxent"] - report["max_entropy_bound"]) <= TOL,
          f"{report['entropy_maxent']} vs {report['max_entropy_bound']}")
        tables = json.loads((out / "exact_tables.json").read_text())
        l_golden = tables["states"][str(self.golden_state)]["l"]
        c("exact golden path count", abs(l_golden - self.workload.golden[1]) <= TOL,
          f"l = {l_golden}, closed form {self.workload.golden[1]}")

    def train(self, out: Path) -> None:
        c = self.ledger.check
        header, rows = read_metrics_csv(out / "metrics.csv")
        c("train metrics.csv header == MetricsRow.FIELDS", header == ",".join(MetricsRow.FIELDS),
          header)
        c("train metrics all finite", bool(rows) and all(math.isfinite(x) for r in rows for x in r))
        if not rows:
            return
        self.last_row = dict(zip(MetricsRow.FIELDS, rows[-1]))
        if len(rows) >= 2:
            kl = MetricsRow.FIELDS.index("kl_forward")
            c("train last kl_forward < first", rows[-1][kl] < rows[0][kl],
              f"{rows[0][kl]} -> {rows[-1][kl]}")
        if self.exact_bound is not None:
            bound = self.last_row["max_entropy_bound"]
            c("train max_entropy_bound == exact report", abs(bound - self.exact_bound) <= TOL,
              f"{bound} vs {self.exact_bound}")

    def eval(self, out: Path) -> None:
        c = self.ledger.check
        report = json.loads((out / "eval_report.json").read_text())
        if self.workload.eval_model:
            if self.last_row is not None:
                kl = self.last_row["kl_forward"]
                c("eval --model kl_forward == last metrics row",
                  abs(report["kl_forward"] - kl) <= TOL, f"{report['kl_forward']} vs {kl}")
        else:
            for key in ("kl_forward", "kl_reverse", "l1"):
                c(f"eval max-ent {key} <= {TOL}", report[key] <= TOL, str(report[key]))


def schedule(shares: dict, seconds: float, run_one, min_samples: int) -> None:
    """Run command kinds interleaved by time share until the budget is spent.

    The kind furthest below its share runs next (ties in ``shares`` order, so
    a workload's first round runs exact, train, eval).  Once a kind has
    ``min_samples`` runs, it is started only if its median so far still fits
    in the budget; the kinds that fit share what is left.  ``run_one(kind)``
    returns the command's seconds.
    """
    used = {k: 0.0 for k in shares}
    times: dict[str, list[float]] = {k: [] for k in shares}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        ready = [k for k in shares if len(times[k]) < min_samples
                 or elapsed + sorted(times[k])[len(times[k]) // 2] <= seconds]
        if not ready:
            return
        kind = min(ready, key=lambda k: (len(times[k]) >= min_samples, used[k] / shares[k]))
        dt = run_one(kind)
        used[kind] += dt
        times[kind].append(dt)


def measure(workload: Workload, mdp, seed: int, seconds: float, run_dir: Path,
            ledger: Ledger, speed: HostSpeed) -> tuple[dict, dict]:
    """The untraced run: CLI commands in this process, checked after each run.

    Returns the per-command samples behind each end-to-end metric, timings
    scaled to nominal host speed, and the same timings raw.
    """
    ini = run_dir / "workload.ini"
    out = run_dir / "out"
    config = cli.build_train_config(cli.load_config(str(ini)), seed)
    traj = config.batch_size * config.steps
    checks = OutputChecks(workload, mdp, ledger)
    samples: dict[str, list[float]] = {
        "exact_cmd_s": [], "eval_cmd_s": [], "train_traj_per_s": [],
        "final_kl_forward": [], "final_n_mse": [],
    }
    raw: dict[str, list[float]] = {"exact_cmd_s": [], "eval_cmd_s": [], "train_traj_per_s": []}

    def run_one(kind: str) -> float:
        (rc, _, _, err), dt, scaled = speed.timed(
            run_cli, command_argv(kind, workload, ini, out, seed))
        if not ledger.record(f"command {kind}", rc == 0, err.strip()[-500:]):
            return dt
        checks.run(kind, out)
        if kind == "train":
            samples["train_traj_per_s"].append(traj / scaled)
            raw["train_traj_per_s"].append(traj / dt)
            if checks.last_row is not None:
                samples["final_kl_forward"].append(checks.last_row["kl_forward"])
                samples["final_n_mse"].append(checks.last_row["n_mse"])
        else:
            samples[f"{kind}_cmd_s"].append(scaled)
            raw[f"{kind}_cmd_s"].append(dt)
        return dt

    schedule(workload.shares, seconds, run_one, MIN_SAMPLES)
    return samples, raw


def summary(values, scale: float = 1.0) -> dict:
    """Median of the samples, their count, and the 90th percentile only when
    at least ten samples lie beyond it."""
    values = [v * scale for v in values]
    out = {"value": statistics.median(values) if values else 0.0, "n": len(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    else:
        out["samples"] = values
    return out


def build_mdp(cp, env=None):
    """The workload's MDP, enumerated the way the CLI does it; ``env``
    defaults to the one the config names."""
    if env is None:
        env = cli.build_env(cp)
    return enumerate_mdp(env, max_states=cp["env"].getint("max_states", 1_000_000))

