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
from dataclasses import fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import envs, exact, learner, metrics
from .learner import MetricsRow, PolicyModel, TrainConfig
from .mdp import (DEFAULT_MAX_STATES, EnumeratedMdp, MdpError, dump_dag_text, enumerate_mdp,
                  parse_dag_text)
from .numerics import json_float_texts
from .objectives import HuberParams


class UsageError(Exception):
    pass


class DimensionUnsupported(Exception):
    """render-grid only knows how to draw 2-D hypergrids."""


DEFAULT_SAMPLES = 10_000_000


def load_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path is not None:
        try:
            read = cp.read(path)
        except configparser.Error as exc:  # its message can span lines
            raise UsageError("bad config file: " + " ".join(str(exc).split())) from exc
        if not read:
            raise UsageError(f"config file {path!r} not found")
    sections = ("env", "train", "eval")
    stray = [s for s in cp.sections() if s not in sections] + ["DEFAULT"] * bool(cp.defaults())
    if stray:
        raise UsageError(f"unknown config section [{stray[0]}]: expected [env], [train] or [eval]")
    for section in sections:
        if not cp.has_section(section):
            cp.add_section(section)
    eval_settings(cp)  # a bad [eval] fails every command before any work
    return cp


def _positive(x: float) -> bool:
    return 0.0 < x < math.inf


def _read(section: configparser.SectionProxy, defaults: dict) -> dict:
    """``section``'s values for the keys of ``defaults``, each parsed as the
    type of its default, which fills in a missing key; a type in place of a
    default marks a required key.  Unknown and missing keys raise."""
    for key in section:
        if key not in defaults:
            raise ValueError(f"unknown key {key!r}")
    parse = {int: section.getint, float: section.getfloat, str: section.get}
    values = {}
    for key, default in defaults.items():
        required = isinstance(default, type)
        if required and key not in section:
            raise ValueError(f"missing key {key!r}")
        values[key] = parse[default if required else type(default)](key, default)
    return values


EVAL_DEFAULTS = {"metrics_every": 10, "mode_threshold": 1.0, "thresholds": "1.0",
                 "pearson_samples": 512, "pearson_mode": "proportional"}


def eval_settings(cp: configparser.ConfigParser) -> dict:
    """The [eval] values with defaults filled in; a malformed, out-of-range
    or unknown entry is a usage error."""
    try:
        ev = _read(cp["eval"], EVAL_DEFAULTS)
        ev["thresholds"] = [float(x) for x in ev["thresholds"].replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad eval config: {exc}") from exc
    checks = [
        (ev["metrics_every"] >= 1, "metrics_every must be >= 1"),
        (_positive(ev["mode_threshold"]), "mode_threshold must be finite and positive"),
        (all(map(_positive, ev["thresholds"])), "thresholds must be finite and positive"),
        (ev["pearson_samples"] >= 2, "pearson_samples must be >= 2"),
        (ev["pearson_mode"] in ("proportional", "uniform"),
         "pearson_mode must be 'proportional' or 'uniform'"),
    ]
    for ok, message in checks:
        if not ok:
            raise UsageError(f"bad eval config: {message}")
    return ev


# each [env] name's constructor and the keys it takes, with their defaults; a type
# in place of a default marks a required key
ENVS = {
    "simple-dag": (envs.SimpleDagEnv, {"target": 1.0}),
    "hypergrid": (envs.HypergridEnv, {"dims": int, "side": int}),
    "words": (envs.WordsEnv, {"length": int, "alphabet": 2, "mode": "append-right"}),
    "bitvector": (envs.BitVectorEnv, {"length": int, "ones_reward": 0.0}),
    "tree": (envs.TreeBuildEnv, {"max_nodes": int, "labels": 1}),
    "dag-file": (lambda path: parse_dag_text(Path(path).read_text()), {"path": str}),
}


def _env(cp: configparser.ConfigParser) -> tuple[object, int]:
    """The env the [env] section names, built from its keys, and
    ``max_states``, the enumeration's state budget."""
    name = cp["env"].get("name")
    if name is None:
        raise UsageError("config needs [env] name = ...")
    try:
        if name not in ENVS:
            raise ValueError(f"unknown env {name!r}")
        make, keys = ENVS[name]
        values = _read(cp["env"], {"name": str, "max_states": DEFAULT_MAX_STATES, **keys})
        if values["max_states"] < 1:
            raise ValueError("max_states must be >= 1")
        return make(**{key: values[key] for key in keys}), values["max_states"]
    except ValueError as exc:
        raise UsageError(f"bad env config: {exc}") from exc


def build_env(cp: configparser.ConfigParser):
    """The env of the [env] section."""
    return _env(cp)[0]


def build_train_config(cp: configparser.ConfigParser, seed: int | None) -> TrainConfig:
    """The [train] section read by ``TrainConfig``'s fields and defaults, with
    ``HuberParams``' fields as ``huber_<name>``.  Without ``steps`` the run
    takes ``samples`` trajectories (DEFAULT_SAMPLES unless given)."""
    defaults = TrainConfig()
    keys = {f.name: getattr(defaults, f.name) for f in fields(TrainConfig) if f.name != "huber"}
    huber = {f"huber_{f.name}": getattr(defaults.huber, f.name) for f in fields(HuberParams)}
    try:
        values = _read(cp["train"], {**keys, **huber, "samples": float(DEFAULT_SAMPLES)})
        config = TrainConfig(
            **{key: values[key] for key in keys},
            huber=HuberParams(**{key.removeprefix("huber_"): values[key] for key in huber}),
        )
        if seed is not None:
            config.seed = seed
        config.validate()
        if config.backward == "maxent-learned" and config.n_objective == "none":
            raise ValueError("backward = maxent-learned needs n_objective = bellman or "
                             "trajectory, not none: nothing would train its counts")
        if "steps" not in cp["train"]:
            if not _positive(values["samples"]):
                raise ValueError("samples must be finite and positive")
            config.steps = math.ceil(values["samples"] / config.batch_size)
    except ValueError as exc:
        raise UsageError(f"bad train config: {exc}") from exc
    return config


def _enumerate(cp: configparser.ConfigParser) -> EnumeratedMdp:
    env, max_states = _env(cp)
    return enumerate_mdp(env, max_states=max_states)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# model and table files


def model_to_json(model: PolicyModel) -> str:
    """``json.dumps`` of the model's tables as lists, but ``log_z_hat`` as
    its one number, byte for byte, with each distinct value formatted once
    (``json_float_texts``)."""
    texts = json_float_texts(model.params).tolist()  # the tables in field order
    items, start = [], 0
    for f in fields(PolicyModel)[:-1]:  # all but log_z_hat, the last
        size = getattr(model, f.name).size
        items.append(f'"{f.name}": [{", ".join(texts[start:start + size])}]')
        start += size
    items.append(f'"log_z_hat": {texts[start]}')
    return "{" + ", ".join(items) + "}"


def model_from_json(text: str) -> PolicyModel:
    """The model ``model_to_json`` wrote; ModelMismatch unless each table is
    a flat list of finite numbers and ``log_z_hat`` one finite number."""
    try:
        doc = json.loads(text)
        tables = {f.name: np.asarray(doc[f.name], dtype=float) for f in fields(PolicyModel)}
        tables["log_z_hat"] = tables["log_z_hat"].reshape(1)
        for name, table in tables.items():
            if table.ndim != 1 or not np.isfinite(table).all():
                raise ValueError(f"{name} is not a list of finite numbers")
        return PolicyModel(**tables)
    except (ValueError, KeyError, TypeError) as exc:
        raise learner.ModelMismatch(f"malformed model file: {exc!r}") from exc


def lists_json(doc: dict[str, np.ndarray | list[float]]) -> Iterator[str]:
    """``json.dumps(doc, indent=2)`` of a dict of float arrays or lists, byte
    for byte, in one part per key, with each distinct value formatted once
    (``json_float_texts``).  Written part by part, neither the whole text
    nor its encoded copy is ever held."""
    for k, (key, values) in enumerate(doc.items()):
        texts = json_float_texts(values).tolist()
        body = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
        yield f"{',' if k else '{'}\n  {json.dumps(key)}: {body}"
    yield "\n}" if doc else "{}"


def metrics_csv(rows: list[MetricsRow]) -> str:
    """One line per row: ints as ``str``, floats as ``repr(float)``."""
    lines = [",".join(MetricsRow.FIELDS)]
    for row in rows:
        values = (getattr(row, name) for name in MetricsRow.FIELDS)
        lines.append(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in values))
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

    tables, log_pi_maxent, log_q_maxent = exact.maxent_solution(mdp)
    (out_dir / "exact_tables.json").write_text(tables.to_json())

    log_q_uniform = exact.backward_uniform(mdp)
    _, log_pi_uniform = exact.forward_from_backward(mdp, log_q_uniform)
    policies = {
        "maxent_forward": log_pi_maxent,
        "uniform_forward": log_pi_uniform,
        "maxent_backward": log_q_maxent,
        "uniform_backward": log_q_uniform,
    }
    with open(out_dir / "policies.json", "w") as f:
        f.writelines(lists_json(policies))
    report = {
        "n_states": mdp.n_states,
        "n_edges": mdp.n_edges,
        "n_terminals": int(mdp.terminal.sum()),
        "logZ": tables.logZ,
        "logZ_value": float(tables.V[mdp.initial]),  # log_partition's second value
        "entropy_maxent": exact.flow_entropy(mdp, log_pi_maxent, tables.mu),
        "entropy_uniform": exact.flow_entropy(mdp, log_pi_uniform),
        "max_entropy_bound": exact.max_entropy_bound(mdp, tables.l),
    }
    (out_dir / "exact_report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report))
    return 0


def cmd_train(args) -> int:
    cp = load_config(args.config)
    config = build_train_config(cp, args.seed)
    mdp = _enumerate(cp)
    exact_l = exact.count_paths(mdp) if config.backward == "maxent-known" else None
    ev = eval_settings(cp)
    rows, model = learner.run_training(
        mdp,
        config,
        exact_l=exact_l,
        workers=args.threads,
        metrics_every=ev["metrics_every"],
        mode_threshold=ev["mode_threshold"],
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
    ev = eval_settings(cp)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    n_samples = ev["pearson_samples"]
    if ev["pearson_mode"] == "uniform":
        samples = rng.choice(mdp.terminal_ids, size=n_samples, replace=True)
    else:
        p = exact.target_distribution(mdp)
        samples = rng.choice(mdp.n_states, size=n_samples, replace=True, p=p)
    report = metrics.evaluate_policy(
        mdp,
        log_pi,
        l_hat=l_hat,
        l_exact=l_exact,
        thresholds=ev["thresholds"],
        pearson_samples=samples,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "eval_report.json").write_text(report.to_json())
    print(report.to_json())
    return 0


def cmd_render_grid(args) -> int:
    cp = load_config(args.config)
    env, max_states = _env(cp)
    if not isinstance(env, envs.HypergridEnv):
        raise DimensionUnsupported("render-grid needs a hypergrid env")
    if env.dims != 2:
        raise DimensionUnsupported("render-grid supports dims=2 only")
    mdp = enumerate_mdp(env, max_states=max_states)
    side = env.side
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.field == "target":
        values = np.exp(mdp.log_target)
    elif args.field == "l":
        values = exact.count_paths(mdp)
    else:
        if args.model is not None:
            log_pi = model_from_json(Path(args.model).read_text()).forward_log_probs(mdp)
        elif args.backward == "uniform":
            _, log_pi = exact.forward_from_backward(mdp, exact.backward_uniform(mdp))
        else:
            log_pi = exact.gsql_policy(mdp, exact.count_paths(mdp))
        values = exact.terminal_distribution(mdp, log_pi)
    matrix = np.zeros((side, side))
    for t in mdp.terminal_ids:
        st = mdp.states[t]
        matrix[st[2], st[1]] = values[t]
    image = matrix
    if args.field == "mu":
        with np.errstate(divide="ignore"):
            image = np.log(matrix)

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
