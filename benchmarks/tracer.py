"""The traced run: spans and counts around each layer's public calls.

Spans are opened here, in the benchmark, around the calls the CLI commands
make into each module.  The traced commands repeat the bodies of
``gflowdp.cli``'s ``exact``, ``eval`` and ``train`` (and of
``learner.run_training``) one call at a time, and their outputs are checked
byte-for-byte against the untraced commands, so the spans describe the same
program.  Only while a traced command runs are ``logsumexp``,
``backward_from_counts`` and ``cross_cumsum`` wrapped, at the module names
through which ``exact``, ``learner`` and ``objectives`` call them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gflowdp import cli, exact, learner, metrics, objectives
from gflowdp.learner import PolicyModel
from gflowdp.mdp import validate

from workloads import (
    OUTPUTS,
    Ledger,
    OutputChecks,
    Workload,
    build_mdp,
    command_argv,
    run_cli,
    schedule,
    summary,
)

SETUP_REPEATS = 3
EDGE_DPS = (
    "exact.count_paths",
    "exact.soft_value_iteration",
    "exact.marginals",
    "exact.forward_from_backward",
    "exact.backward_uniform",
    "exact.flow_entropy",
)


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float
    counts: dict  # counter increments while the span was open

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus counters; spans snapshot the counters they cover."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        sid = len(self.spans) + len(self._stack)
        parent, parent_trace = self._stack[-1] if self._stack else (None, None)
        trace = trace or parent_trace or name
        before = dict(self.counters)
        self._stack.append((sid, trace))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counts = {k: v - before.get(k, 0.0) for k, v in self.counters.items()
                      if v != before.get(k, 0.0)}
            self.spans.append(Span(sid, parent, trace, name, start, end, counts))

    def timed(self, key: str, fn):
        """``fn`` wrapped to add its calls and seconds to the counters."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[key + ".s"] += time.perf_counter() - start
                counters[key + ".calls"] += 1

        return wrapper

    def spanned(self, name: str, fn):
        """``fn`` wrapped in a span and in the counters."""
        inner = self.timed(name, fn)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the three hot helpers at the names their callers use."""
        patches = [
            (exact, "logsumexp", self.timed("numerics.logsumexp", exact.logsumexp)),
            (learner, "logsumexp", self.timed("numerics.logsumexp", learner.logsumexp)),
            (objectives, "logsumexp", self.timed("numerics.logsumexp", objectives.logsumexp)),
            (learner, "backward_from_counts",
             self.spanned("objectives.backward_from_counts", learner.backward_from_counts)),
            (learner, "cross_cumsum", self.spanned("objectives.cross_cumsum", learner.cross_cumsum)),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def write(self, path: Path, render) -> None:
        """Serialize (``render()`` gives the text) and write one output file."""
        start = time.perf_counter()
        with self.span("cli.write"):
            text = render()
            path.write_text(text)
        self.counters["cli.write.s"] += time.perf_counter() - start
        self.counters["cli.bytes_written"] += len(text.encode())

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total seconds, and self seconds (duration
        minus the part covered by child spans)."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.seconds
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.seconds - child_s[s.id]
        return out

    def dump(self, path: Path) -> None:
        with path.open("w") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps([s.id, s.parent, s.trace, s.name, s.start, s.end, s.counts]) + "\n")


class CountingEnv:
    """An env whose methods add their calls and seconds to the tracer."""

    METHODS = ("initial_state", "n_actions", "step", "is_terminal", "log_target", "parents")

    def __init__(self, env, tracer: Tracer):
        for name in self.METHODS:
            setattr(self, name, tracer.timed("envs", getattr(env, name)))


# ---------------------------------------------------------------------------
# traced commands: the bodies of cli.cmd_exact / cmd_eval / cmd_train


def _load(t: Tracer, ini: Path):
    cp = cli.load_config(str(ini))
    with t.span("mdp.enumerate_mdp"):
        mdp = build_mdp(cp)
    return cp, mdp


def _call(t: Tracer, name: str, fn, *args, **kwargs):
    with t.span(name):
        return fn(*args, **kwargs)


def _gsql_policy(t: Tracer, mdp, l):
    rewards = exact.gsql_rewards(mdp, l)
    return _call(t, "exact.soft_value_iteration", exact.soft_value_iteration, mdp,
                 terminal_rewards=rewards)


def traced_exact(t: Tracer, ini: Path, out: Path) -> None:
    _, mdp = _load(t, ini)
    out.mkdir(parents=True, exist_ok=True)
    # exact.exact_tables
    l = _call(t, "exact.count_paths", exact.count_paths, mdp)
    v, _, log_pi = _gsql_policy(t, mdp, l)
    mu = _call(t, "exact.marginals", exact.marginals, mdp, log_pi)
    log_f, _ = _call(t, "exact.forward_from_backward", exact.forward_from_backward, mdp,
                     exact.backward_maxent(mdp, l))
    log_z = exact.logsumexp(mdp.log_target[mdp.terminal])
    tables = exact.ExactTables(l=l, V=v, mu=mu, logF=log_f, logZ=float(log_z))
    t.write(out / "exact_tables.json", tables.to_json)

    log_pi_maxent = _gsql_policy(t, mdp, tables.l)[2]
    q_uniform = _call(t, "exact.backward_uniform", exact.backward_uniform, mdp)
    _, log_pi_uniform = _call(t, "exact.forward_from_backward", exact.forward_from_backward,
                              mdp, q_uniform)
    entropy_maxent = _call(t, "exact.flow_entropy", exact.flow_entropy, mdp, log_pi_maxent)
    entropy_uniform = _call(t, "exact.flow_entropy", exact.flow_entropy, mdp, log_pi_uniform)
    # exact.log_partition
    log_z_direct = exact.logsumexp(mdp.log_target[mdp.terminal])
    log_z_value = float(_gsql_policy(t, mdp, tables.l)[0][mdp.initial])
    policies = {
        "maxent_forward": log_pi_maxent.tolist(),
        "uniform_forward": log_pi_uniform.tolist(),
        "maxent_backward": exact.backward_maxent(mdp, tables.l).tolist(),
        "uniform_backward": _call(t, "exact.backward_uniform", exact.backward_uniform,
                                  mdp).tolist(),
    }
    t.write(out / "policies.json", lambda: json.dumps(policies, indent=2))
    report = {
        "n_states": mdp.n_states,
        "n_edges": mdp.n_edges,
        "n_terminals": int(mdp.terminal.sum()),
        "logZ": log_z_direct,
        "logZ_value": log_z_value,
        "entropy_maxent": entropy_maxent,
        "entropy_uniform": entropy_uniform,
        "max_entropy_bound": exact.max_entropy_bound(mdp, tables.l),
    }
    t.write(out / "exact_report.json", lambda: json.dumps(report, indent=2))


def traced_eval(t: Tracer, ini: Path, out: Path, seed: int, model_path: Path | None) -> None:
    cp, mdp = _load(t, ini)
    l_exact = _call(t, "exact.count_paths", exact.count_paths, mdp)
    if model_path is not None:
        model = cli.model_from_json(model_path.read_text())
        log_pi = _call(t, "learner.forward_log_probs", model.forward_log_probs, mdp)
        l_hat = model.l_hat
    else:
        log_pi = _gsql_policy(t, mdp, l_exact)[2]
        l_hat = None
    ev = cp["eval"]
    thresholds = [float(x) for x in ev.get("thresholds", "1.0").replace(",", " ").split()]
    rng = np.random.default_rng(seed)
    p = exact.target_distribution(mdp)
    n_samples = ev.getint("pearson_samples", 512)
    if ev.get("pearson_mode", "proportional") == "uniform":
        samples = rng.choice(mdp.terminal_ids, size=n_samples, replace=True)
    else:
        samples = rng.choice(mdp.n_states, size=n_samples, replace=True, p=p)
    report = _call(t, "metrics.evaluate_policy", metrics.evaluate_policy, mdp, log_pi,
                   l_hat=l_hat, l_exact=l_exact, thresholds=thresholds, pearson_samples=samples)
    out.mkdir(parents=True, exist_ok=True)
    t.write(out / "eval_report.json", report.to_json)


def traced_train(t: Tracer, ini: Path, out: Path, seed: int, cmd: str) -> PolicyModel:
    """``gflowdp train`` with ``run_training``'s loop driven step by step
    through ``collect_batch``, the two halves of ``train_step`` and
    ``ema_update``."""
    cp, mdp = _load(t, ini)
    config = cli.build_train_config(cp, seed)
    ev = cp["eval"]
    metrics_every = ev.getint("metrics_every", 10)
    mode_threshold = ev.getfloat("mode_threshold", 1.0)
    exact_l = (_call(t, "exact.count_paths", exact.count_paths, mdp)
               if config.backward == "maxent-known" else None)
    train_mdp = mdp
    if config.reward_exponent != 1.0:
        train_mdp = mdp.with_log_target(mdp.log_target * config.reward_exponent)
    model = PolicyModel.init(train_mdp)
    sampling_model = model.copy()
    opt_state = learner.adam_init(model)
    streams = [np.random.default_rng(child)
               for child in np.random.SeedSequence(config.seed).spawn(1)]
    l_metrics = _call(t, "exact.count_paths", exact.count_paths, train_mdp)
    bound = exact.max_entropy_bound(train_mdp, l_metrics)
    log_mode_threshold = np.log(mode_threshold)
    visited: set[int] = set()
    rows = []
    for step in range(1, config.steps + 1):
        trace = f"{cmd}.step{step}"
        with t.span("learner.step", trace=trace):
            with t.span("learner.collect_batch"):
                batch = learner.collect_batch(train_mdp, sampling_model, config, streams)
            t.counters["learner.walker_steps"] += len(batch.step_edge)
            visited.update(int(x) for x in batch.terminals)
            with t.span("learner.train_step"):
                with t.span("learner.compute_loss_and_grads"):
                    stats, grads = learner.compute_loss_and_grads(
                        train_mdp, model, batch, config, exact_l)
                with t.span("learner.optimizer_update"):
                    learner.optimizer_update(model.param_groups(), grads, opt_state,
                                             config.learning_rate)
                model.repin(train_mdp)
            with t.span("learner.ema_update"):
                learner.ema_update(sampling_model, model, config.ema_decay)
        if step % metrics_every == 0 or step == config.steps:
            with t.span("metrics.row", trace=trace):
                log_pi = _call(t, "learner.forward_log_probs", model.forward_log_probs, train_mdp)
                modes = sum(1 for x in visited if mdp.log_target[x] >= log_mode_threshold)
                rows.append(learner.MetricsRow(
                    step=step,
                    kl_forward=_call(t, "metrics.kl_terminal", metrics.kl_terminal,
                                     train_mdp, log_pi, "forward"),
                    kl_reverse=_call(t, "metrics.kl_terminal", metrics.kl_terminal,
                                     train_mdp, log_pi, "reverse"),
                    entropy=_call(t, "exact.flow_entropy", exact.flow_entropy, train_mdp, log_pi),
                    max_entropy_bound=bound,
                    policy_loss=stats["policy_loss"],
                    n_loss=stats["n_loss"],
                    n_mse=metrics.n_mse(model.l_hat, l_metrics),
                    modes_found=modes,
                ))
    out.mkdir(parents=True, exist_ok=True)
    t.write(out / "metrics.csv", lambda: cli.metrics_csv(rows))
    t.write(out / "model.json", lambda: cli.model_to_json(model))
    return model


# ---------------------------------------------------------------------------
# the traced run


def _same_files(kind: str, a: Path, b: Path) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in OUTPUTS[kind])


def _same_model(a: PolicyModel, b: PolicyModel) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.param_groups().values(),
                                                     b.param_groups().values()))


def trace_run(workload: Workload, mdp, seed: int, seconds: float, run_dir: Path,
              ledger: Ledger) -> tuple[dict, Tracer]:
    """Traced setup and commands; returns (per-layer metrics, tracer)."""
    ini = run_dir / "workload.ini"
    ref, out = run_dir / "out", run_dir / "traced"
    t = Tracer()
    cp = cli.load_config(str(ini))
    config = cli.build_train_config(cp, seed)

    setup = []
    for i in range(SETUP_REPEATS):
        with t.span("setup", trace=f"setup{i}"):
            with t.span("mdp.enumerate_mdp"):
                m = build_mdp(cp, CountingEnv(cli.build_env(cp), t))
            with t.span("mdp.validate"):
                ok = validate(m).ok
        ledger.check("validate(enumerated mdp)", ok)
        setup.append(t.spans[-3:])

    # untraced references: the same commands through gflowdp.cli.main
    checks = OutputChecks(workload, mdp, ledger)
    untraced_train_s = []
    for kind in workload.shares:
        rc, dt, _, err = run_cli(command_argv(kind, workload, ini, ref, seed))
        if ledger.record(f"command {kind}", rc == 0, err.strip()[-500:]):
            checks.run(kind, ref)
        if kind == "train":
            untraced_train_s.append(dt)
    numbers = itertools.count(1)

    def run_one(kind: str) -> float:
        cmd = f"{kind}#{next(numbers)}"
        if kind == "train":  # pair every traced train with an untraced one
            rc, dt, _, err = run_cli(command_argv(kind, workload, ini, ref, seed))
            ledger.record("command train", rc == 0, err.strip()[-500:])
            untraced_train_s.append(dt)
        start = time.perf_counter()
        try:
            with t.instrument(), t.span(f"cli.{kind}", trace=cmd):
                if kind == "exact":
                    traced_exact(t, ini, out)
                elif kind == "eval":
                    model_path = ref / "model.json" if workload.eval_model else None
                    traced_eval(t, ini, out, seed, model_path)
                else:
                    model = traced_train(t, ini, out, seed, cmd)
            same = _same_files(kind, out, ref)
            if kind == "train":
                ref_model = cli.model_from_json((ref / "model.json").read_text())
                ledger.check("traced-loop model bit-identical to run_training's",
                             _same_model(model, ref_model))
        except Exception:  # a failed traced command is a failed op, not a crash
            ledger.record(f"traced {kind}", False, traceback.format_exc()[-500:])
            return time.perf_counter() - start
        ledger.check(f"traced {kind} outputs byte-identical to gflowdp {kind}", same)
        return time.perf_counter() - start

    schedule(workload.shares, seconds, run_one, 1)
    return per_layer(t, mdp, config, setup, untraced_train_s), t


def per_layer(t: Tracer, mdp, config, setup, untraced_train_s) -> dict:
    """The per-layer metrics: name -> (unit, summary)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in t.spans:
        by_name[s.name].append(s)

    def secs(name):
        return [s.seconds for s in by_name[name]]

    def counts(name, key):
        return [s.counts.get(key, 0.0) for s in by_name[name]]

    def ratio(num, den, n, scale=1.0):
        return {"value": scale * num / den if den else 0.0, "n": n}

    enum = [group[0] for group in setup]  # spans close child-first
    out = {
        "envs.calls": ("count", summary([s.counts.get("envs.calls", 0.0) for s in enum])),
        "envs.s": ("s", summary([s.counts.get("envs.s", 0.0) for s in enum])),
        "mdp.enumerate_mdp.s": ("s", summary([s.seconds for s in enum])),
        "mdp.validate.s": ("s", summary([group[1].seconds for group in setup])),
        "mdp.states": ("count", summary([mdp.n_states])),
        "mdp.edges": ("count", summary([mdp.n_edges])),
    }
    for name in EDGE_DPS:
        out[f"{name}.s"] = ("s", summary(secs(name)))
    dp_calls = sum(len(by_name[n]) for n in EDGE_DPS)
    dp_s = sum(sum(secs(n)) for n in EDGE_DPS)
    out["exact.edges_per_s"] = ("1/s", ratio(mdp.n_edges * dp_calls, dp_s, dp_calls))

    lse = "numerics.logsumexp"
    out[f"{lse}.calls_per_solve"] = ("count", summary(counts("cli.exact", f"{lse}.calls")))
    out[f"{lse}.calls_per_step"] = ("count", summary(counts("learner.step", f"{lse}.calls")))
    out[f"{lse}.us_per_call"] = (
        "us", ratio(t.counters[f"{lse}.s"], t.counters[f"{lse}.calls"],
                    int(t.counters[f"{lse}.calls"]), 1e6))

    for name in ("objectives.backward_from_counts", "objectives.cross_cumsum"):
        out[f"{name}.s"] = ("s", summary(counts("learner.step", f"{name}.s")))
        out[f"{name}.calls"] = ("count", summary(counts("learner.step", f"{name}.calls")))

    out["learner.forward_log_probs.s"] = ("s", summary(secs("learner.forward_log_probs")))
    out["learner.collect_batch.s"] = ("s", summary(secs("learner.collect_batch")))
    walkers = counts("learner.step", "learner.walker_steps")
    out["learner.walker_steps"] = ("count", summary(walkers))
    out["learner.collect_batch.us_per_walker_step"] = (
        "us", ratio(sum(secs("learner.collect_batch")), sum(walkers), len(walkers), 1e6))
    for name in ("learner.compute_loss_and_grads", "learner.optimizer_update",
                 "learner.ema_update"):
        out[f"{name}.s"] = ("s", summary(secs(name)))
    out["learner.step.ms"] = ("ms", summary(secs("learner.step"), 1e3))

    for name in ("metrics.row", "metrics.kl_terminal", "metrics.evaluate_policy"):
        out[f"{name}.s"] = ("s", summary(secs(name)))

    def per_round(key):  # one exact, one train and one eval command
        kinds = ("exact", "train", "eval")
        return {"value": sum(summary(counts(f"cli.{k}", key))["value"] for k in kinds),
                "n": sum(len(by_name[f"cli.{k}"]) for k in kinds)}

    out["cli.write.s"] = ("s", per_round("cli.write.s"))
    out["cli.bytes_written"] = ("count", per_round("cli.bytes_written"))

    traj = config.batch_size * config.steps
    untraced = summary([traj / s for s in untraced_train_s])
    traced = summary([traj / s for s in secs("cli.train")])
    out["trace.train_traj_per_s"] = ("1/s", traced)
    out["trace.overhead_ratio"] = (
        "ratio", ratio(untraced["value"], traced["value"], min(untraced["n"], traced["n"])))
    return out
