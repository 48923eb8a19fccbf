"""The groups a config trains are a prefix of ``PolicyModel.params``
(``TrainConfig.trained_groups``), so Adam passes over that prefix only and
the EMA averages only the forward logits.  Both rest on invariants checked
here: the gradient of every group past the prefix is +-0 in every entry, an
entry whose gradient is +-0 at every step never moves under Adam, and the
sampler reads no table of the sampling model but the forward logits."""

import itertools

import numpy as np
import pytest

import loop_oracles as loops
from gflowdp import envs, exact
from gflowdp.learner import (
    BACKWARDS,
    N_OBJECTIVES,
    OBJECTIVES,
    PARAM_GROUPS,
    TABLES,
    PolicyModel,
    TrainConfig,
    adam_init,
    collect_batch,
    compute_loss_and_grads,
    optimizer_update,
)
from gflowdp.mdp import enumerate_mdp

ENVS = {"grid5": envs.HypergridEnv(2, 5), "bitvec4": envs.BitVectorEnv(4, 0.5),
        "tree5": envs.TreeBuildEnv(2, 5)}
CONFIGS = [TrainConfig(objective=o, backward=b, n_objective=n)
           for o, b, n in itertools.product(OBJECTIVES, BACKWARDS, N_OBJECTIVES)]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def same_bits_but_zero_signs(a, b):
    # x + 0.0 is x to the bit, but for -0.0, which turns +0.0
    return np.array_equal(bits(a + 0.0), bits(b + 0.0))


@pytest.fixture(scope="module", params=list(ENVS))
def mdp(request):
    return enumerate_mdp(ENVS[request.param])


def test_trained_groups_are_the_prefix_the_docstring_names():
    want = {"tb": 3, "pcl": 3, "db": 4, "stb": 4, "fm": 4}
    for config in CONFIGS:
        free_q = config.backward == "free" and config.objective in ("tb", "db", "stb")
        assert config.trained_groups() == (5 if free_q else want[config.objective]), config
    assert PARAM_GROUPS[:3] == ("forward", "l", "log_z") and PARAM_GROUPS[3:] == (
        "log_f", "backward")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_groups_past_the_prefix_have_a_zero_gradient(mdp, seed):
    rng = np.random.default_rng(seed)
    model = PolicyModel.init(mdp, rng, 0.8)
    batch = collect_batch(mdp, model, TrainConfig(batch_size=12, epsilon_uniform=0.2),
                          rng.spawn(3))
    l = exact.count_paths(mdp)
    for config in CONFIGS:
        k = config.trained_groups()
        _, want = loops.dense_loss_and_grads(mdp, model, batch, config, l)
        _, looped = loops.compute_loss_and_grads(mdp, model, batch, config, l)
        for key in PARAM_GROUPS[k:]:
            assert np.all(want[key] == 0.0) and np.all(looped[key] == 0.0), (config, key)
        _, grads = compute_loss_and_grads(mdp, model, batch, config, l)
        assert grads.size == sum(len(grads[key]) for key in PARAM_GROUPS[:k])
        for key in PARAM_GROUPS[:k]:
            assert same_bits_but_zero_signs(grads[key], want[key]), (config, key)
        for key in PARAM_GROUPS[k:]:
            assert not bits(grads[key]).any(), (config, key)  # +0, as the buffer was built


@pytest.mark.parametrize("k", range(1, len(PARAM_GROUPS) + 1))
def test_adam_over_a_prefix_is_adam_over_every_group_to_the_bit(k):
    # sparse gradients with +0, -0 and values far below Adam's eps; the
    # whole-buffer update gets +0 or -0 past the prefix
    m = enumerate_mdp(ENVS["grid5"])
    rng = np.random.default_rng(k)
    model = PolicyModel.init(m, rng, 0.5)
    whole = model.copy()
    state, whole_state = adam_init(model), adam_init(whole)
    grads = model.grads  # as a loss leaves it: the prefix written, the rest zero
    grads.size = model.ends[k - 1]
    for _ in range(60):
        every = {}
        for key in PARAM_GROUPS:
            n = len(grads[key])
            g = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-18, 1, n)
            g[rng.random(n) < 0.4] = 0.0
            g[rng.random(n) < 0.2] = -0.0
            if key in PARAM_GROUPS[k:]:
                g = np.where(rng.random(n) < 0.5, 0.0, -0.0)
            else:
                grads[key][:] = g
            every[key] = g
        optimizer_update(model.param_groups(), grads, state, 0.01)
        every = whole.split(np.concatenate([every[key] for key in PARAM_GROUPS]))
        optimizer_update(whole.param_groups(), every, whole_state, 0.01)
        model.repin(m)
        whole.repin(m)
    n = model.ends[k - 1]  # the moments cover the prefix; past it, the whole's stay +0
    for have, want in [(model.params, whole.params), (state.m, whole_state.m[:n]),
                       (state.v, whole_state.v[:n])]:
        assert np.array_equal(bits(have), bits(want))
    assert not bits(whole_state.m[n:]).any() and not bits(whole_state.v[n:]).any()
    assert state.t == whole_state.t == 60


def test_the_sampler_reads_only_the_forward_logits(mdp):
    model = PolicyModel.init(mdp, np.random.default_rng(4), 1.0)
    blind = model.copy()
    for name in TABLES:
        if name != "forward_logits":
            getattr(blind, name)[:] = np.nan
    config = TrainConfig(batch_size=32, epsilon_uniform=0.1)
    want = collect_batch(mdp, model, config, np.random.default_rng(5).spawn(3))
    have = collect_batch(mdp, blind, config, np.random.default_rng(5).spawn(3))
    for name in ("state_rows", "lengths", "terminals", "step_pos", "step_edge"):
        assert np.array_equal(getattr(have, name), getattr(want, name)), name
