"""Benchmark of gflowdp's exact solver and training step.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` drives the CLI commands in this process, untouched, and
reports the end-to-end metrics; ``--trace 1`` runs the same commands with
spans around each layer and reports the per-layer metrics.  Either way the
outputs are checked, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The generated
config, the full result (machine, commit, seed, sample counts, every check)
and, when traced, the spans go to ``.bench_runs/<run>/``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 7, 2.0

END_TO_END = {
    "setup_s": "s",
    "exact_cmd_s": "s",
    "eval_cmd_s": "s",
    "train_traj_per_s": "1/s",
    "final_kl_forward": "nats",
    "final_n_mse": "nats2",
    "peak_rss_mb": "MB",
}


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    import numpy

    info["numpy"] = numpy.__version__
    return info


def source_identity() -> dict:
    """The git commit when the checkout has one, and a hash of src/ always."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                commit = path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else []:
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def measure_setup(ini: Path, ledger) -> tuple[list[float], list[float]]:
    """Cold set-up times: import plus enumerate + validate, each in a fresh
    interpreter, run one after another: at least SETUP_MIN of them, more
    while they have taken under SETUP_SECONDS in all.  Returns them scaled to
    nominal host speed (by the probe itself), and raw."""
    totals, raw = [], []
    start = time.perf_counter()
    for i in range(SETUP_MAX):
        if i >= SETUP_MIN and time.perf_counter() - start > SETUP_SECONDS:
            break
        try:  # run() kills and reaps the probe on timeout
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(ini)],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            ledger.record("setup probe", False, "timed out after 120 s")
            continue
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            probe = None
        ok = proc.returncode == 0 and probe is not None and probe["ok"]
        if ledger.record("setup probe", ok, proc.stderr.strip()[-500:]):
            raw.append(probe["raw_s"])
            totals.append(probe["scaled_s"])
    return totals, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gflowdp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'gflowdp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gflowdp

    if Path(gflowdp.__file__).resolve().parent != (SRC / "gflowdp").resolve():
        print(f"error: imported gflowdp from {gflowdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import tracer
    import workloads
    from gflowdp import cli

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    ini = run_dir / "workload.ini"
    ini.write_text(workload.config_text(args.seed))

    ledger = workloads.Ledger()
    started = time.time()
    if not args.trace:
        speed = hostspeed.HostSpeed()
        setup, setup_raw = measure_setup(ini, ledger)
    mdp = workloads.build_mdp(cli.load_config(str(ini)))
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "source": source_identity(),
        "config": ini.name,
    }
    if args.trace:
        layers, t = tracer.trace_run(workload, mdp, args.seed, args.seconds, run_dir, ledger)
        t.dump(run_dir / "spans.jsonl")
        result["self_times"] = t.self_times()
        metrics = {name: dict(unit=unit, **stat) for name, (unit, stat) in layers.items()}
    else:
        samples, raw = workloads.measure(workload, mdp, args.seed, args.seconds, run_dir,
                                         ledger, speed)
        samples["setup_s"], raw["setup_s"] = setup, setup_raw
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples["peak_rss_mb"] = [rss_mb]
        metrics = {name: dict(unit=unit, **workloads.summary(samples[name]))
                   for name, unit in END_TO_END.items()}
        for name, values in raw.items():
            metrics[name]["raw"] = workloads.summary(values)
        result["reference_loop_s"] = dict(nominal=hostspeed.NOMINAL_S,
                                          **workloads.summary(speed.samples))
    for name in ("out", "traced"):
        shutil.rmtree(run_dir / name, ignore_errors=True)

    result.update(
        wall_s=time.time() - started,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failed_ops_frac=ledger.failed / max(ledger.attempted, 1),
        failures=ledger.failures(),
        metrics=metrics,
        ops=ledger.ops,
    )
    (run_dir / "result.json").write_text(json.dumps(result, indent=2))

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{ledger.attempted} ops, {ledger.failed} failed; results in {run_dir.relative_to(ROOT)}")
    for op in ledger.failures():
        print(f"# FAILED {op['op']}: {op['detail']}")
    for name, m in metrics.items():
        p90 = f" p90 {m['p90']:.6g}" if "p90" in m else ""
        print(f"# {name:45s} {m['value']:.6g} {m['unit']} (n={m['n']}{p90})")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
