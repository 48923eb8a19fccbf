"""The traced commands of ``benchmarks/tracer.py`` write the same files as the
CLI: a change that breaks ``benchmarks/run.py --trace 1`` fails here."""

from pathlib import Path

from gflowdp import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
CONFIG = """
[env]
name = hypergrid
dims = 2
side = 4

[train]
objective = stb
backward = maxent-learned
n_objective = trajectory
batch_size = 16
steps = 3

[eval]
metrics_every = 2
"""


def test_traced_commands_match_the_cli(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer
    ini = tmp_path / "config.ini"
    ini.write_text(CONFIG)
    ref, traced = tmp_path / "ref", tmp_path / "traced"
    for kind in ("train", "exact", "eval"):
        argv = [kind, "--config", str(ini), "--out", str(ref), "--seed", "3"]
        if kind == "eval":
            argv += ["--model", str(ref / "model.json")]
        assert cli.main(argv) == 0, kind
    t = tracer.Tracer()
    with t.instrument():
        tracer.traced_exact(t, ini, traced)
        tracer.traced_train(t, ini, traced, 3, "train")
        tracer.traced_eval(t, ini, traced, 3, ref / "model.json")
    for kind, names in tracer.OUTPUTS.items():
        for name in names:
            assert (traced / name).read_bytes() == (ref / name).read_bytes(), name
    assert t.counters["numerics.logsumexp.calls"] > 0
