"""Log-space numeric helpers shared by the DP solvers and objectives.

Everything that sums flows, path counts, or probabilities goes through the
max-shifted logsumexp here; path counts overflow 64-bit integers long before
the grids get interesting, so linear-space arithmetic is never an option.

The ``segment_*`` helpers reduce many consecutive segments of one flat array
at once (the CSR layout of ``EnumeratedMdp``'s edge tables) with the same
arithmetic as the scalar helpers applied segment by segment.  They all take
the segments' lengths, empty segments allowed, and all reduce on the one
layout of ``padded_layout``, which the exact DPs also slice run by run.

``json_float_texts`` gives the JSON writers the text of each table entry,
formatting each distinct value once.  The DP-table writers call it on whole
tables, which repeat values by symmetry, not next to each other: on the 4-D
side-10 grid the 80001 entries of ``exact_tables.json`` form 80001 runs, and
collapsing runs inside it made the ``exact`` writers 3.8 ms slower (42.0 ->
45.8 ms).  A model that trained a few steps is mostly long runs of its
initial values, so ``cli.model_to_json`` collapses runs first, when they are
at most half its entries, and passes only their heads.
"""

from __future__ import annotations

import json

import numpy as np

NEG_INF = float("-inf")


def logsumexp(values) -> float:
    """Stable log(sum(exp(values))) of a 1-D array; empty input gives -inf."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    m = float(arr.max())
    if not np.isfinite(m):
        # all -inf stays -inf; +inf/nan propagate
        return m
    return m + float(np.log(np.exp(arr - m).sum()))


def padded_layout(lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, slots, heads)`` of segments of the given lengths laid end
    to end, each behind a 0.0: segment k starts at ``starts[k]`` among the
    values, and in a zeroed array of ``len(values) + len(lengths)`` entries
    the values fill the ``slots`` mask, the segment's 0.0 at ``heads[k]``.

    ``add.reduceat`` seeds a segment with its first element and adds the rest
    pairwise, while ``ndarray.sum`` adds the whole segment pairwise from zero.
    With the 0.0 ahead, ``add.reduceat`` over ``heads`` adds in the same
    order, so a segment sums to ``values[segment].sum()`` to the last bit
    rather than to rounding, and an empty one to 0.0.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    heads = starts + np.arange(lengths.size)
    slots = np.ones(lengths.sum() + lengths.size, dtype=bool)
    slots[heads] = False
    return starts, slots, heads


def segment_sum(values, lengths) -> np.ndarray:
    """Sum of each segment of ``values`` (segments of the given lengths laid
    end to end, empty ones allowed), bit for bit ``ndarray.sum``."""
    _, slots, heads = padded_layout(lengths)
    padded = np.zeros(slots.size)
    padded[slots] = values
    return np.add.reduceat(padded, heads)


def segment_logsumexp(values, lengths) -> np.ndarray:
    """``logsumexp`` of each segment of ``values`` (segments as in
    ``segment_sum``): shifted by the segment's max, -inf for an empty or all
    -inf segment, +inf/nan propagated."""
    values = np.asarray(values, dtype=float)
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.full(lengths.size, NEG_INF)
    live = lengths > 0
    starts, slots, heads = padded_layout(lengths[live])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out[live] = padded_logsumexp(values, starts, lengths[live], slots, heads,
                                     np.zeros(slots.size))
    return out


def padded_logsumexp(values, starts, lengths, slots, heads, padded) -> np.ndarray:
    """``segment_logsumexp`` of nonempty segments on the tables of
    ``padded_layout`` (or on slices of them, with ``slots`` as indices), with
    the zeroed ``padded`` to fill.  The caller silences warnings."""
    m = np.maximum.reduceat(values, starts)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    padded[slots] = np.exp(values - np.repeat(shift, lengths))
    return np.where(finite, shift + np.log(np.add.reduceat(padded, heads)), m)


def segment_softmax(values, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``segment_log_softmax``, logsumexp and softmax of nonempty segments."""
    starts, slots, heads = padded_layout(lengths)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lse = padded_logsumexp(values, starts, lengths, slots, heads, np.zeros(slots.size))
    log_p = values - np.repeat(lse, lengths)
    return log_p, lse, np.exp(log_p)


def segment_log_softmax(values, lengths) -> np.ndarray:
    """``values`` minus the logsumexp of their segment (segments as in
    ``segment_sum``)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return values - np.repeat(segment_logsumexp(values, lengths), lengths)


def json_float_texts(values) -> np.ndarray:
    """``json.dumps``'s text of each entry of a float array, as an object
    array of the same shape, with each distinct value formatted once: the
    tables a DP solves on a symmetric DAG repeat few values.

    Entries are grouped by their bits, not by ``==``: ``-0.0`` and ``0.0``
    print differently, and NaN equals nothing.  With ``return_inverse``,
    ``np.unique`` does not import ``numpy.ma``.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, rank = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    # no float's text holds ", "; with no values, the one "" is never read
    texts = json.dumps(bits.view(float).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[rank].reshape(values.shape)


def entropy_from_log_probs(log_p) -> float:
    """Shannon entropy -sum p*log(p) with the 0*log(0)=0 convention."""
    log_p = np.asarray(log_p, dtype=float)
    p = np.exp(log_p)
    mask = p > 0.0
    return float(-(p[mask] * log_p[mask]).sum())
