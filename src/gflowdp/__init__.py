"""Exact and learned samplers for unnormalized targets on the terminal
states of acyclic deterministic MDPs.

Importing the package loads only ``mdp`` and ``numerics``; each other module
loads the first time it is named (PEP 562).  The package never loads ``cli``
itself, so ``python -m gflowdp.cli`` runs it once, as ``__main__``."""

import importlib

from .mdp import EnumeratedMdp, enumerate_mdp, validate

__all__ = ["cli", "envs", "exact", "learner", "metrics", "mdp", "numerics", "objectives",
           "EnumeratedMdp", "enumerate_mdp", "validate"]


def __getattr__(name: str):
    if name in __all__:  # a submodule not loaded yet; loading it binds the name
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
