"""Command-line front end: enumerate, exact solve, train, eval, render.

One command per process.  Config files are INI-style sections of flat
key=value pairs ([env], [train], [eval]); every training default bakes in
the reference hyperparameters (lr 5e-4, batch 256, epsilon 1e-3, EMA 0.95,
Huber delta 0.25 / beta 1, sample budget 1e7) so short desk runs only need
to override steps.  Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import envs, exact, learner, metrics
from .learner import MetricsRow, PolicyModel, TrainConfig
from .mdp import EnumeratedMdp, MdpError, dump_dag_text, enumerate_mdp, parse_dag_text
from .objectives import HuberParams


class UsageError(Exception):
    pass


class DimensionUnsupported(Exception):
    """render-grid only knows how to draw 2-D hypergrids."""


DEFAULT_SAMPLES = 10_000_000


def load_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path is not None:
        read = cp.read(path)
        if not read:
            raise UsageError(f"config file {path!r} not found")
    for section in ("env", "train", "eval"):
        if not cp.has_section(section):
            cp.add_section(section)
    _check_eval_section(cp["eval"])
    return cp


def _positive(x: float) -> bool:
    return 0.0 < x < math.inf


def _check_eval_section(ev: configparser.SectionProxy) -> None:
    """Reject [eval] values that are malformed or out of range."""
    try:
        thresholds = [float(x) for x in ev.get("thresholds", "1.0").replace(",", " ").split()]
        checks = [
            (ev.getint("metrics_every", 10) >= 1, "metrics_every must be >= 1"),
            (_positive(ev.getfloat("mode_threshold", 1.0)),
             "mode_threshold must be finite and positive"),
            (all(map(_positive, thresholds)), "thresholds must be finite and positive"),
            (ev.getint("pearson_samples", 512) >= 2, "pearson_samples must be >= 2"),
            (ev.get("pearson_mode", "proportional") in ("proportional", "uniform"),
             "pearson_mode must be 'proportional' or 'uniform'"),
        ]
    except ValueError as exc:
        raise UsageError(f"bad eval config: {exc}") from exc
    for ok, message in checks:
        if not ok:
            raise UsageError(f"bad eval config: {message}")


def build_env(cp: configparser.ConfigParser):
    section = dict(cp["env"])
    name = section.pop("name", None)
    if name is None:
        raise UsageError("config needs [env] name = ...")
    if name == "dag-file":
        path = section.get("path")
        if path is None:
            raise UsageError("env 'dag-file' needs [env] path = ...")
        return parse_dag_text(Path(path).read_text())
    try:
        return envs.make_env(name, section)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad env config: {exc}") from exc


def build_train_config(cp: configparser.ConfigParser, seed: int | None) -> TrainConfig:
    t = cp["train"]
    try:
        batch_size = t.getint("batch_size", 256)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if "steps" in t:
            steps = t.getint("steps")
        else:
            samples = t.getfloat("samples", DEFAULT_SAMPLES)
            if not _positive(samples):
                raise ValueError("samples must be finite and positive")
            steps = math.ceil(samples / batch_size)
        config = TrainConfig(
            objective=t.get("objective", "tb"),
            backward=t.get("backward", "maxent-learned"),
            n_objective=t.get("n_objective", "trajectory"),
            learning_rate=t.getfloat("learning_rate", 5e-4),
            batch_size=batch_size,
            epsilon_uniform=t.getfloat("epsilon_uniform", 1e-3),
            reward_exponent=t.getfloat("reward_exponent", 1.0),
            lambda_stb=t.getfloat("lambda_stb", 1.0),
            huber=HuberParams(
                delta=t.getfloat("huber_delta", 0.25),
                beta=t.getfloat("huber_beta", 1.0),
            ),
            steps=steps,
            seed=seed if seed is not None else t.getint("seed", 0),
            ema_decay=t.getfloat("ema_decay", 0.95),
        )
        config.validate()
    except ValueError as exc:
        raise UsageError(f"bad train config: {exc}") from exc
    return config


def _enumerate(cp: configparser.ConfigParser) -> EnumeratedMdp:
    env = build_env(cp)
    try:
        max_states = cp["env"].getint("max_states", 1_000_000)
    except ValueError as exc:
        raise UsageError(f"bad env config: {exc}") from exc
    return enumerate_mdp(env, max_states=max_states)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# model and table files


def model_to_json(model: PolicyModel) -> str:
    return json.dumps(
        {
            "forward_logits": model.forward_logits.tolist(),
            "backward_logits": model.backward_logits.tolist(),
            "l_hat": model.l_hat.tolist(),
            "log_f_hat": model.log_f_hat.tolist(),
            "log_z_hat": float(model.log_z_hat[0]),
        },
        indent=2,
    )


def model_from_json(text: str) -> PolicyModel:
    try:
        doc = json.loads(text)
        return PolicyModel(
            forward_logits=np.asarray(doc["forward_logits"], dtype=float),
            backward_logits=np.asarray(doc["backward_logits"], dtype=float),
            l_hat=np.asarray(doc["l_hat"], dtype=float),
            log_f_hat=np.asarray(doc["log_f_hat"], dtype=float),
            log_z_hat=np.array([float(doc["log_z_hat"])]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise learner.ModelMismatch(f"malformed model file: {exc!r}") from exc


def metrics_csv(rows: list[MetricsRow]) -> str:
    lines = [",".join(MetricsRow.FIELDS)]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.step),
                    _fmt(row.kl_forward),
                    _fmt(row.kl_reverse),
                    _fmt(row.entropy),
                    _fmt(row.max_entropy_bound),
                    _fmt(row.policy_loss),
                    _fmt(row.n_loss),
                    _fmt(row.n_mse),
                    str(row.modes_found),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PGM / CSV rendering


def write_pgm(path: Path, values: np.ndarray) -> None:
    """Binary (P5) grayscale image, min-max normalized over finite values."""
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    pixels = np.zeros(v.shape, dtype=np.uint8)
    if finite.any():
        lo, hi = v[finite].min(), v[finite].max()
        span = hi - lo
        if span > 0:
            pixels[finite] = np.round(255.0 * (v[finite] - lo) / span).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode()
    path.write_bytes(header + pixels.tobytes())


def write_matrix_csv(path: Path, values: np.ndarray) -> None:
    lines = [",".join(_fmt(x) for x in row) for row in np.asarray(values, dtype=float)]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    cp = load_config(args.config)
    mdp = _enumerate(cp)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "mdp.dag").write_text(dump_dag_text(mdp))
    print(
        f"states {mdp.n_states} edges {mdp.n_edges} "
        f"terminals {int(mdp.terminal.sum())}"
    )
    return 0


def cmd_exact(args) -> int:
    cp = load_config(args.config)
    mdp = _enumerate(cp)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    tables = exact.exact_tables(mdp)
    (out_dir / "exact_tables.json").write_text(tables.to_json())

    log_pi_maxent = exact.gsql_policy(mdp, tables.l)
    _, log_pi_uniform = exact.forward_from_backward(mdp, exact.backward_uniform(mdp))
    entropy_maxent = exact.flow_entropy(mdp, log_pi_maxent)
    entropy_uniform = exact.flow_entropy(mdp, log_pi_uniform)
    log_z_direct, log_z_value = exact.log_partition(mdp, tables.l)
    policies = {
        "maxent_forward": log_pi_maxent.tolist(),
        "uniform_forward": log_pi_uniform.tolist(),
        "maxent_backward": exact.backward_maxent(mdp, tables.l).tolist(),
        "uniform_backward": exact.backward_uniform(mdp).tolist(),
    }
    (out_dir / "policies.json").write_text(json.dumps(policies, indent=2))
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
    (out_dir / "exact_report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report))
    return 0


def cmd_train(args) -> int:
    cp = load_config(args.config)
    mdp = _enumerate(cp)
    config = build_train_config(cp, args.seed)
    exact_l = exact.count_paths(mdp) if config.backward == "maxent-known" else None
    ev = cp["eval"]
    rows, model = learner.run_training(
        mdp,
        config,
        exact_l=exact_l,
        workers=args.threads,
        metrics_every=ev.getint("metrics_every", 10),
        mode_threshold=ev.getfloat("mode_threshold", 1.0),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(metrics_csv(rows))
    (out_dir / "model.json").write_text(model_to_json(model))
    if rows:
        last = rows[-1]
        print(f"step {last.step} kl_forward {last.kl_forward} n_mse {last.n_mse}")
    else:
        print("no training steps")
    return 0


def cmd_eval(args) -> int:
    cp = load_config(args.config)
    mdp = _enumerate(cp)
    l_exact = exact.count_paths(mdp)
    if args.model is not None:
        model = model_from_json(Path(args.model).read_text())
        log_pi = model.forward_log_probs(mdp)
        l_hat = model.l_hat
    else:
        log_pi = exact.gsql_policy(mdp, l_exact)
        l_hat = None
    ev = cp["eval"]
    thresholds = [
        float(x) for x in ev.get("thresholds", "1.0").replace(",", " ").split()
    ]
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    p = exact.target_distribution(mdp)
    n_samples = ev.getint("pearson_samples", 512)
    if ev.get("pearson_mode", "proportional") == "uniform":
        terminals = mdp.terminal_ids
        samples = rng.choice(terminals, size=n_samples, replace=True)
    else:
        samples = rng.choice(mdp.n_states, size=n_samples, replace=True, p=p)
    report = metrics.evaluate_policy(
        mdp,
        log_pi,
        l_hat=l_hat,
        l_exact=l_exact,
        thresholds=thresholds,
        pearson_samples=samples,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "eval_report.json").write_text(report.to_json())
    print(report.to_json())
    return 0


def cmd_render_grid(args) -> int:
    cp = load_config(args.config)
    name = cp["env"].get("name")
    if name != "hypergrid":
        raise DimensionUnsupported("render-grid needs a hypergrid env")
    if cp["env"].getint("dims") != 2:
        raise DimensionUnsupported("render-grid supports dims=2 only")
    env = build_env(cp)
    mdp = _enumerate(cp)
    side = env.side
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    matrix = np.zeros((side, side))
    if args.field == "mu":
        if args.model is not None:
            model = model_from_json(Path(args.model).read_text())
            log_pi = model.forward_log_probs(mdp)
        elif args.backward == "uniform":
            _, log_pi = exact.forward_from_backward(mdp, exact.backward_uniform(mdp))
        else:
            log_pi = exact.gsql_policy(mdp, exact.count_paths(mdp))
        mu = exact.terminal_distribution(mdp, log_pi)
        for t in mdp.terminal_ids:
            st = mdp.states[t]
            matrix[st[2], st[1]] = mu[t]
        with np.errstate(divide="ignore"):
            image = np.log(matrix)
    elif args.field == "target":
        for t in mdp.terminal_ids:
            st = mdp.states[t]
            matrix[st[2], st[1]] = math.exp(mdp.log_target[t])
        image = matrix
    elif args.field == "l":
        l = exact.count_paths(mdp)
        for t in mdp.terminal_ids:
            st = mdp.states[t]
            matrix[st[2], st[1]] = l[t]
        image = matrix
    else:
        raise UsageError(f"unknown field {args.field!r}")

    stem = f"grid_{args.field}"
    write_pgm(out_dir / f"{stem}.pgm", image)
    write_matrix_csv(out_dir / f"{stem}.csv", matrix)
    print(f"wrote {stem}.pgm and {stem}.csv")
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    parse.__name__ = f"integer >= {low}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gflowdp")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("enumerate", cmd_enumerate),
        ("exact", cmd_exact),
        ("train", cmd_train),
        ("eval", cmd_eval),
        ("render-grid", cmd_render_grid),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=_int_at_least(1), default=1, help="sampler streams")
        p.set_defaults(fn=fn)
        if name in ("eval", "render-grid"):
            p.add_argument("--model", default=None, help="model JSON to evaluate")
        if name == "render-grid":
            p.add_argument("--field", default="mu", choices=("mu", "target", "l"))
            p.add_argument("--backward", default="maxent", choices=("maxent", "uniform"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MdpError, exact.ExactError, learner.LearnerError, metrics.MetricsError,
            DimensionUnsupported, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
