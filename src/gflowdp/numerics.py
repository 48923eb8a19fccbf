"""Log-space numeric helpers shared by the DP solvers and objectives.

Everything that sums flows, path counts, or probabilities goes through the
max-shifted logsumexp here; path counts overflow 64-bit integers long before
the grids get interesting, so linear-space arithmetic is never an option.

The ``segment_*`` helpers reduce many consecutive segments of one flat array
at once (the CSR layout of ``EnumeratedMdp``'s edge tables) with the same
arithmetic as the scalar helpers applied segment by segment.

``json_float_texts`` gives the JSON writers the text of each table entry.
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


def segment_sum(values, starts) -> np.ndarray:
    """Sum of each segment of ``values``; ``starts`` are the offsets of the
    nonempty segments, increasing, the first 0.

    ``add.reduceat`` seeds a segment with its first element and adds the rest
    pairwise, while ``ndarray.sum`` adds the whole segment pairwise from zero.
    A 0.0 put at the head of every segment makes the two add in the same
    order, so the results match ``values[segment].sum()`` to the last bit
    rather than to rounding.
    """
    values = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size == 0:
        return np.zeros(0)
    heads = starts + np.arange(starts.size)
    keep = np.ones(values.size + starts.size, dtype=bool)
    keep[heads] = False
    padded = np.zeros(keep.size)
    padded[keep] = values
    return np.add.reduceat(padded, heads)


def segment_logsumexp(values, starts) -> np.ndarray:
    """``logsumexp`` of each segment of ``values`` (segments as in
    ``segment_sum``): shifted by the segment's max, -inf for an all -inf
    segment, +inf/nan propagated."""
    values = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size == 0:
        return np.zeros(0)
    heads = starts + np.arange(starts.size)
    keep = np.ones(values.size + starts.size, dtype=bool)
    keep[heads] = False
    lengths = np.diff(starts, append=values.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return padded_logsumexp(values, starts, lengths, keep, heads, np.zeros(keep.size))


def padded_logsumexp(values, starts, lengths, slots, heads, padded) -> np.ndarray:
    """``segment_logsumexp`` on kept tables: segment k is ``lengths[k]`` long;
    in the zeroed ``padded`` the values go to ``slots`` (indices or a mask), a
    0.0 ahead of each segment at ``heads``.  The caller silences warnings."""
    m = np.maximum.reduceat(values, starts)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    padded[slots] = np.exp(values - np.repeat(shift, lengths))
    return np.where(finite, shift + np.log(np.add.reduceat(padded, heads)), m)


def segment_log_softmax(values, offset) -> np.ndarray:
    """``values`` minus the logsumexp of their segment, for segments given as
    CSR offsets (``offset[i]:offset[i + 1]``, empty segments allowed)."""
    values = np.asarray(values, dtype=float)
    offset = np.asarray(offset, dtype=np.int64)
    lengths = np.diff(offset)
    live = lengths > 0
    lse = segment_logsumexp(values, offset[:-1][live])
    return values - np.repeat(lse, lengths[live])


def json_float_texts(values) -> np.ndarray:
    """``json.dumps``'s text of each entry of a float array, as an object
    array of the same shape, with each distinct value formatted once: the
    tables a DP solves on a symmetric DAG repeat few values.

    Entries are grouped by their bits, not by ``==``: ``-0.0`` and ``0.0``
    print differently, and NaN equals nothing.
    """
    values = np.ascontiguousarray(values, dtype=float)
    flat = values.reshape(-1)
    bits = flat.view(np.int64)
    order = np.argsort(bits)
    bits = bits[order]
    first = np.ones(flat.size, dtype=bool)  # first of a run of equal bits
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    # no float's text holds ", "; with no values, the one "" is never read
    texts = json.dumps(flat[order[first]].tolist())[1:-1].split(", ")
    rank = np.empty(flat.size, dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return np.array(texts, dtype=object)[rank].reshape(values.shape)


def entropy_from_log_probs(log_p) -> float:
    """Shannon entropy -sum p*log(p) with the 0*log(0)=0 convention."""
    log_p = np.asarray(log_p, dtype=float)
    p = np.exp(log_p)
    mask = p > 0.0
    return float(-(p[mask] * log_p[mask]).sum())
