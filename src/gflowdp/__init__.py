"""Exact and learned samplers for unnormalized targets on the terminal
states of acyclic deterministic MDPs."""

from . import envs, exact, learner, metrics, mdp, numerics, objectives
from .mdp import EnumeratedMdp, enumerate_mdp, validate

__all__ = [
    "cli",
    "envs",
    "exact",
    "learner",
    "metrics",
    "mdp",
    "numerics",
    "objectives",
    "EnumeratedMdp",
    "enumerate_mdp",
    "validate",
]
