"""Deterministic Monte Carlo scheduling.

Every trial owns an RNG stream keyed by (root seed, trial index), so
results are independent of worker count and scheduling order.  Trials
run in contiguous chunks, so a worker can batch work shared by a chunk's
trials (one codebook product instead of one per trial).  A worker
returns a dict of arrays with the chunk's trials on the leading axis,
and each array is joined across chunks in trial order.

The calling thread takes chunks beside the pool's threads rather than
idling: its malloc arena already holds what a set-up on that thread
freed, so its share of the chunks reuses that memory, where a pool
thread grows an arena of its own.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Largest chunk.  A (64 x N) channel stack against the codebook is one
# matrix-matrix product that costs about a fifth of 64 matrix-vector ones
# and holds a few MB at the reference array.
CHUNK_TRIALS = 64

# Smallest chunk worth a worker of its own.  A chunk of a few trials is
# dozens of small numpy calls that hold the interpreter lock, so a second
# thread gains less than the smaller chunks cost.  Measured on tracking at
# 2 workers: 6 seeds ran in 1.0 s as one chunk and 1.3 s as two chunks of
# 3, broke even at two chunks of 8, and gained 16% at two chunks of 12.
# Training at the reference array, 2 workers, also ran 4, 8 and 12 trials
# faster as one chunk than as two.
MIN_CHUNK_TRIALS = 8


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The canonical per-trial generator."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def trial_chunks(n_trials: int, workers: int = 1) -> list[range]:
    """Split ``range(n_trials)`` into contiguous, near-equal chunks.

    Only as many workers count as each get ``MIN_CHUNK_TRIALS`` trials
    (at least one).  The chunk count is the smallest multiple of those
    workers that keeps every chunk at most ``CHUNK_TRIALS`` long, so no
    worker is left with a long tail; it is capped at ``n_trials``, so no
    chunk is empty.
    """
    if n_trials <= 0:
        return []
    workers = max(1, min(workers, n_trials // MIN_CHUNK_TRIALS))
    per_round = workers * CHUNK_TRIALS
    n_chunks = min(n_trials, workers * -(-n_trials // per_round))
    size, extra = divmod(n_trials, n_chunks)     # the first `extra` get one more
    return [range(k * size + min(k, extra), (k + 1) * size + min(k + 1, extra))
            for k in range(n_chunks)]


def run_trials(worker, n_trials: int, seed: int, workers: int = 1) -> dict:
    """Run ``worker(indices, rngs)`` once per chunk of trials; return each
    of its arrays joined across the chunks in index order.

    ``worker`` gets a chunk's trial indices and their generators and
    returns a dict of arrays, each with one row per index.  The same
    per-trial streams are used regardless of ``workers``, so a parallel
    run returns exactly the sequential result.  With more than one chunk,
    the calling thread and ``workers - 1`` pool threads take the next
    chunk in turn until none is left.
    """
    def one(chunk):
        out = worker(chunk, [trial_rng(seed, i) for i in chunk])
        for key, rows in out.items():
            if len(rows) != len(chunk):
                raise ValueError(f"worker returned {len(rows)} rows of {key!r} "
                                 f"for {len(chunk)} trials")
        return out

    chunks = trial_chunks(n_trials, workers)
    takers = min(workers, len(chunks))
    if takers <= 1:
        parts = [one(c) for c in chunks]
    else:
        parts = [None] * len(chunks)
        pending = iter(range(len(chunks)))
        lock = threading.Lock()

        def take():
            while True:
                with lock:
                    k = next(pending, None)
                if k is None:
                    return
                parts[k] = one(chunks[k])

        with ThreadPoolExecutor(max_workers=takers - 1) as pool:
            helpers = [pool.submit(take) for _ in range(takers - 1)]
            take()
            for helper in helpers:
                helper.result()
    if not parts:
        return {}
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
