"""The memo on ``objectives.subtrajectory_cells``: a hit is the fresh build
to the bit, its arrays are read-only, and a run whose batches share one
length profile builds the cell set once."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gflowdp import envs, exact, objectives
from gflowdp.learner import PolicyModel, TrainConfig, collect_batch, compute_loss_and_grads
from gflowdp.learner import run_training
from gflowdp.mdp import enumerate_mdp
from gflowdp.objectives import subtrajectory_cells

LAMBDAS = [1.0, 0.7, 2.0, 1e-3]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_cell_set(a, b):
    (cells_a, w_a), (cells_b, w_b) = a, b
    return all(map(same_bits, cells_a + (w_a,), cells_b + (w_b,)))


@given(st.lists(st.integers(0, 12), min_size=1, max_size=8), st.sampled_from(LAMBDAS))
@example([5] * 6, 1.0)  # one length profile, as bit-vector batches
@example([0, 3, 0, 7, 1], 0.7)  # rows of length 0 among mixed lengths
@example([0], 2.0)
@settings(max_examples=150, deadline=None)
def test_a_memo_hit_is_a_fresh_build_to_the_bit(lengths, lam):
    # neighbouring entries: another lam, one more row, a leading empty row
    other = LAMBDAS[LAMBDAS.index(lam) - 1]
    for ls, x in [(lengths, lam), (lengths, other), (lengths + [2], lam), ([0] + lengths, lam)]:
        subtrajectory_cells.cache_clear()
        subtrajectory_cells(ls, x)
        # the same lengths in another dtype read the same entry
        hit = subtrajectory_cells(np.array(ls, dtype=np.int32), x)
        assert objectives._subtrajectory_cells.cache_info().hits == 1
        subtrajectory_cells.cache_clear()
        fresh = subtrajectory_cells(ls, x)
        assert fresh[1] is not hit[1]
        assert same_cell_set(hit, fresh), (ls, x)


def test_memo_is_bounded():
    subtrajectory_cells.cache_clear()
    for t in range(20):
        subtrajectory_cells([t, 1], 0.5)
    info = objectives._subtrajectory_cells.cache_info()
    assert info.maxsize is not None and info.misses == 20 and info.currsize == info.maxsize


def test_memo_arrays_are_read_only():
    subtrajectory_cells.cache_clear()
    (b, i, j), w = subtrajectory_cells([3, 2], 0.7)
    for a in (b, i, j, w):
        with pytest.raises(ValueError):
            a[0] = 1
        with pytest.raises(ValueError):
            a += 1
    (b2, i2, j2), w2 = subtrajectory_cells([3, 2], 0.7)
    assert same_cell_set(((b2, i2, j2), w2), ((b, i, j), w))
    assert (w2 * 2).sum() == pytest.approx(2.0)


@pytest.fixture(scope="module")
def bitvec5():
    return enumerate_mdp(envs.BitVectorEnv(5, ones_reward=0.4))


def test_stb_run_on_bit_vectors_builds_the_cell_set_once(bitvec5):
    # every bit-vector trajectory has 5 steps, so every batch has one profile
    config = TrainConfig(objective="stb", batch_size=16, steps=6, seed=3, lambda_stb=0.9)
    subtrajectory_cells.cache_clear()
    run_training(bitvec5, config, exact.count_paths(bitvec5), metrics_every=3)
    info = objectives._subtrajectory_cells.cache_info()
    assert (info.misses, info.hits) == (1, config.steps - 1)


@pytest.mark.parametrize("backward", ["maxent-learned", "free"])
def test_loss_on_a_memo_hit_is_the_loss_on_a_fresh_build(bitvec5, backward):
    config = TrainConfig(objective="stb", backward=backward, batch_size=32, lambda_stb=0.7)
    model = PolicyModel.init(bitvec5, np.random.default_rng(5), 0.5)
    batch = collect_batch(bitvec5, model, config, np.random.default_rng(6).spawn(4))
    l = exact.count_paths(bitvec5)
    compute_loss_and_grads(bitvec5, model, batch, config, l)  # fills the memo
    stats, grads = compute_loss_and_grads(bitvec5, model, batch, config, l)
    hit = stats, {k: g.copy() for k, g in grads.items()}  # the next call overwrites grads
    assert objectives._subtrajectory_cells.cache_info().hits >= 1
    subtrajectory_cells.cache_clear()
    fresh = compute_loss_and_grads(bitvec5, model, batch, config, l)
    assert hit[0] == fresh[0]
    assert hit[1].keys() == fresh[1].keys()
    assert all(same_bits(hit[1][k], fresh[1][k]) for k in hit[1])
