"""One cold set-up in a fresh interpreter: import the package, then enumerate
and validate a workload's MDP, with the host's speed sampled throughout.

    python3 setup_probe.py <src dir> <config.ini>

numpy is imported before the timed section.  Its import is ~0.16 s of
shared-library loading that the package cannot change, and its cost moved
by 40% between runs minutes apart on a shared host while CPU-bound work did
not; the package's own imports, stdlib modules included, stay timed.

Prints one JSON object with the raw and scaled seconds of the set-up.
"""

import json
import sys

import numpy  # noqa: F401  (see above)
from hostspeed import HostSpeed


def setup(src: str, ini: str) -> bool:
    sys.path.insert(0, src)
    import gflowdp
    from gflowdp import cli

    cp = cli.load_config(ini)
    env = cli.build_env(cp)
    mdp = gflowdp.enumerate_mdp(env, max_states=cp["env"].getint("max_states", 1_000_000))
    return gflowdp.validate(mdp).ok


ok, raw, scaled = HostSpeed().timed(setup, sys.argv[1], sys.argv[2])
print(json.dumps({"raw_s": raw, "scaled_s": scaled, "ok": ok}))
