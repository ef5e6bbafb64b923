"""Two-stage beam training over the hybrid codebook, plus the exhaustive
and far-field-only sweep baselines.

Stage 1 sweeps the M per-subarray DFT beams once (all subarrays in
parallel, one pilot per beam).  Stage 2 spends no pilots: for every
hybrid codeword it reassembles the already-measured RF outputs and
applies the codeword's digital row.  Noise drawn in stage 1 is therefore
reused verbatim by every codeword that shares a sweep index.

Stage-1 noise is drawn per RF-chain output, M x N_RF values per sweep,
instead of per antenna (M x N) and then projected.  The two have the same
law: each DFT beam has M unit-modulus entries, so one beam applied to
CN(0, sigma^2) antenna noise gives CN(0, M sigma^2).  Outputs of
different beams see the noise of different pilots, and outputs of
different RF chains see disjoint antennas, so all M x N_RF noise terms
are independent.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, ChannelRealization, antenna_noise, crandn, h_of
from .codebooks import HybridCodebook, SubarrayCodebook
from .combining import CombinerPair, quantize_pointing, subarray_pointing


@dataclass
class Stage1Sweep:
    """All stage-1 measurements: z[m, t] is beam m's output on RF chain t."""

    z: np.ndarray = field(repr=False)        # (M, N_RF) complex; (T, M, N_RF) stacked
    signal: np.ndarray = field(repr=False)   # noiseless part
    noise: np.ndarray = field(repr=False)    # added; i.i.d. CN(0, M sigma^2) per RF output
    pilots: int = 0


@dataclass
class TrainedDesign:
    """Channel-independent stage-2 design cache for one codebook.

    Holds, for every codeword p: the subarray pointing sines, the DFT
    beam picks m_t(p), and the matched digital row v_p.  Building this is
    the only O(N * P) work; afterwards each trial's stage 2 is a gather.
    """

    book: HybridCodebook
    sub_book: SubarrayCodebook
    psi: np.ndarray = field(repr=False)       # (P, N_RF)
    m_idx: np.ndarray = field(repr=False)     # (P, N_RF) 0-based
    v: np.ndarray = field(repr=False)         # (P, N_RF) complex
    # (P, N_RF): where z[m_idx[p, t], t] sits in a sweep's flattened (M, N_RF) outputs
    gather: np.ndarray = field(repr=False)

    def combiner(self, p) -> CombinerPair:
        """Materialize codeword p's combiner pair (p is 1-based); an array of
        codewords gives a stack of pairs."""
        w_blocks = np.moveaxis(self.sub_book.matrix[:, self.m_idx[np.asarray(p) - 1]], 0, -1)
        return CombinerPair(cfg=self.book.cfg, w_blocks=w_blocks.conj(),
                            v=self.v[np.asarray(p) - 1])


def design_all(book: HybridCodebook, sub_book: SubarrayCodebook) -> TrainedDesign:
    """Vectorized hybrid-combiner design for every codeword in the book."""
    cfg = book.cfg
    n_rf, m = cfg.n_rf, cfg.m_per_sub
    p_total = book.n_columns
    qs = book.n_near

    psi = np.empty((p_total, n_rf))
    psi[:qs] = subarray_pointing(cfg, np.repeat(book.theta, book.n_rings),
                                 book.distances.reshape(-1))
    psi[qs:] = book.theta[:, None]

    m_idx = quantize_pointing(psi.reshape(-1), sub_book).reshape(p_total, n_rf) - 1

    fc = np.empty((p_total, n_rf), dtype=complex)
    bh = sub_book.matrix.conj().T                                   # (M, M)
    stored, mirrored = book.source(np.arange(1, p_total + 1))
    n, sources = cfg.n_antennas, book.matrix[:, :qs - book.n_stored_near]
    # Do not stream these products in blocks of columns to save memory.
    # The ~13 MiB they free stays in the main thread's malloc arena, and
    # glibc raises its mmap threshold to their size (~6.8 MB), so the trial
    # phase's arrays up to that size come from the heap without page faults.
    # An experiment driver whose schemes read no stored column drops the
    # matrix before its trials, so `position`'s peak is now the set-up's
    # own: 75.1 MiB, these products' ~13 MiB included.  Measured with 256-column blocks (v
    # bit-identical; 2 vCPUs, one BLAS thread, the benchmark's settings):
    # the `position` and `track` peaks fell from 75.1 and 80.0 to 64.7 and
    # 75.1 MiB, but a warm `train4` call faulted 6.2k-7.7k pages instead of
    # 1, and a cold `position` call 4.3k instead of 2.5k.
    for t in range(n_rf):
        # a mirrored column's rows of subarray t are its source's rows of
        # subarray N_RF - 1 - t reversed; copied into columns of their own,
        # each entry sums the products a full matrix's column would, in order
        for cols, block in ((~mirrored, book.matrix[t * m:(t + 1) * m]),
                            (mirrored, sources[n - (t + 1) * m:n - t * m][::-1])):
            gt = bh @ np.ascontiguousarray(block)                   # (M, columns of block)
            fc[cols, t] = gt[m_idx[cols, t], stored[cols]]
            del gt      # so no two products coexist
    norms = np.linalg.norm(fc, axis=1)
    v = fc.conj() / (math.sqrt(m) * norms[:, None])
    return TrainedDesign(book=book, sub_book=sub_book, psi=psi, m_idx=m_idx, v=v,
                         gather=m_idx * n_rf + np.arange(n_rf))


@dataclass
class TrainingResult:
    """Outcome of one beam-training run.

    A stacked run (:func:`stage2_select` on a stacked sweep, or a sweep
    baseline on a stack of signals) fills ``best_index``, ``rough_omega``
    and ``rough_range`` with one entry per channel and ``powers`` with one
    row per channel, a list of rows from a sweep baseline (``is_far`` is
    for a single result).
    """

    scheme: str
    best_index: int                       # 1-based codeword index
    rough_omega: float
    rough_range: float                    # inf when a far codeword won
    powers: np.ndarray = field(repr=False)
    pilots: int = 0

    @property
    def is_far(self) -> bool:
        return math.isinf(self.rough_range)


def stage1_sweep(cfg: ArrayConfig, sub_book: SubarrayCodebook, h: np.ndarray,
                 noise_power: float = 0.0,
                 rng: np.random.Generator | Sequence | None = None) -> Stage1Sweep:
    """Sweep all M DFT beams; every subarray applies beam m on pilot m.

    ``h`` may be a (T, N) stack of channels, with ``rng`` a sequence of one
    generator per channel: ``z``, ``signal`` and ``noise`` then get a
    leading trial axis, and each channel's noise comes from its own
    generator.  The sweeps of a stack are one stacked matrix product.
    """
    m, n_rf = cfg.m_per_sub, cfg.n_rf
    h = np.asarray(h)
    h_blocks = h.reshape(*h.shape[:-1], n_rf, m).swapaxes(-1, -2)   # (..., M, N_RF)
    signal = sub_book.matrix.conj().T @ h_blocks                     # (..., M, N_RF)
    # the RF-output noise has the law of M x N_RF antenna samples of power M sigma^2
    rngs = [rng] if h.ndim == 1 or rng is None else rng
    noise = antenna_noise(rngs, m * n_rf, m * noise_power)
    noise = np.zeros_like(signal) if noise is None else noise.reshape(signal.shape)
    return Stage1Sweep(z=signal + noise, signal=signal, noise=noise, pilots=m)


def assemble_reused(z: np.ndarray, design: TrainedDesign, p=None) -> np.ndarray:
    """Reassemble codeword p's RF outputs from one channel's stage-1
    measurements ``z`` (a sweep's (M, N_RF) ``z``).

    Entry t is copied from measurement ``z[m_t(p), t]``; no pilot is
    consumed.  ``p`` is 1-based; an array of indices gives one row of N_RF
    outputs per codeword, and ``None`` the (P, N_RF) rows of every codeword.
    """
    rows = design.gather if p is None else np.take(design.gather, p - 1, axis=0)
    return np.take(z, rows)


def _chain_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` bit for bit, as a few whole-array additions.

    numpy's reduce runs its inner loop once per row, which for rows of a
    few RF chains costs more than the additions themselves.  numpy adds a
    row of 4 <= n <= 64 complex numbers as ``(s0 + s1) + (s2 + s3)``,
    where ``s_k`` adds entries k, k + 4, ... of the first n - n % 4 in
    turn, and then the remaining entries in turn.  Other rows go to
    numpy's sum.
    """
    n = x.shape[-1]
    if not 4 <= n <= 64:
        return x.sum(axis=-1)
    q = n - n % 4
    s = [functools.reduce(np.add, (x[..., i] for i in range(k, q, 4))) for k in range(4)]
    return functools.reduce(np.add, (x[..., i] for i in range(q, n)),
                            (s[0] + s[1]) + (s[2] + s[3]))


def stage2_select(book: HybridCodebook, design: TrainedDesign,
                  sweep: Stage1Sweep) -> TrainingResult:
    """Test every codeword digitally and pick the largest combined power.

    Exact power ties break toward the smaller codeword index.  A stacked
    sweep gives a stacked result (see :class:`TrainingResult`); its
    channels are scored one after another, so the (P, N_RF) reassembled
    outputs are held for one channel at a time.
    """
    z = sweep.z.reshape(-1, *sweep.z.shape[-2:])                    # (T, M, N_RF)
    powers = np.empty((len(z), book.n_columns))
    for z_t, out in zip(z, powers):
        zz = assemble_reused(z_t, design)                           # (P, N_RF)
        # |sum_t v * zz| ** 2, computed in place
        np.abs(_chain_sum(np.multiply(design.v, zz, out=zz)), out=out)
        np.square(out, out=out)
    best = np.argmax(powers, axis=-1) + 1                            # argmax = first max
    return _result(book, "thbt", best, powers, sweep.pilots, stacked=sweep.z.ndim == 3)


def _result(book: HybridCodebook, scheme: str, best, powers, pilots: int,
            stacked: bool) -> TrainingResult:
    """The result of channels whose 1-based winning codewords are ``best``
    and whose codeword powers are the rows of ``powers``: stacked, or the
    one channel's."""
    cws = [book.params(int(p)) for p in best]
    if not stacked:
        return TrainingResult(scheme=scheme, best_index=int(best[0]),
                              rough_omega=cws[0].theta, rough_range=cws[0].distance,
                              powers=powers[0], pilots=pilots)
    return TrainingResult(scheme=scheme, best_index=np.asarray(best),
                          rough_omega=np.array([cw.theta for cw in cws]),
                          rough_range=np.array([cw.distance for cw in cws]),
                          powers=powers, pilots=pilots)


def run_thbt(cfg: ArrayConfig, book: HybridCodebook, design: TrainedDesign,
             channel: ChannelRealization | np.ndarray, noise_power: float = 0.0,
             rng: np.random.Generator | None = None) -> TrainingResult:
    """Full two-stage training of one channel: M pilots swept, zero pilots
    in stage 2."""
    sweep = stage1_sweep(cfg, design.sub_book, h_of(channel), noise_power, rng)
    return stage2_select(book, design, sweep)


def sweep_signals(book: HybridCodebook, hs: np.ndarray, first: int = 0) -> np.ndarray:
    """Noiseless column-sweep outputs ``C[:, first:]^H h`` for a stack of
    channels: row k of the (T, P - first) result belongs to ``hs[k]``.

    Matrix-matrix products serve the whole stack: the stack against the
    stored near and far blocks, and the antenna-reversed stack against the
    mirror sources (see :mod:`xlbeam.codebooks`).  A mirrored entry sums
    the products a full matrix's column would, in reverse order; the far
    block's product is the same whatever ``first`` is.  A one-row stack is
    padded with a zero row: numpy hands a (1, N) product to the
    matrix-vector kernel, which rounds differently, and a trial's outputs
    must not depend on how many trials share its product.
    """
    hs = np.atleast_2d(hs)
    n_rows = hs.shape[0]
    if n_rows == 1:
        hs = np.vstack([hs, np.zeros_like(hs)])
    held, qs = book.n_stored_near, book.n_near
    # C^H h computed as (h^H C)^H to avoid conjugating the big matrix
    if first >= qs:
        y = hs.conj() @ book.matrix[:, held + first - qs:]
        return np.conjugate(y, out=y)[:n_rows]
    y = np.empty((hs.shape[0], book.n_columns), dtype=complex)
    hc = hs.conj()
    np.matmul(hc, book.matrix[:, :held], out=y[:, :held])
    np.matmul(hc, book.matrix[:, held:], out=y[:, qs:])
    mirrored = hs[:, ::-1].conj() @ book.matrix[:, :qs - held]
    # the mirrored block runs over the source angles in reverse
    shape = (hs.shape[0], book.n_angles // 2, book.n_rings)
    y[:, held:qs].reshape(shape)[...] = mirrored.reshape(shape)[:, ::-1]
    return np.conjugate(y, out=y)[:n_rows, first:]


def _column_sweep(book: HybridCodebook, signals: np.ndarray, noise_power: float,
                  rngs, first: int, scheme: str) -> TrainingResult:
    """One ideal codeword-matched pilot per column, from 0-based column
    ``first`` to the last; the winner's grid cell is the coarse estimate.

    ``signals`` are noiseless outputs ``sweep_signals(book, ..., first)``:
    one channel's row with one generator, or a (T, P - first) stack with
    one generator per row, which gives a stacked result.  Each row draws
    its noise from its own generator, as ``crandn`` would, and keeps its
    powers as an array of its own: ``powers`` is a list of rows, so no
    (T, P) noise or power array is ever held.
    """
    signals = np.asarray(signals)
    width = book.n_columns - first
    if signals.shape[-1:] != (width,):
        raise ValueError(f"{scheme} signals have shape {signals.shape}, "
                         f"expected rows of {width}")
    rows = signals.reshape(-1, width)
    if signals.ndim == 1 or rngs is None:
        rngs = [rngs] * len(rows)
    powers = []
    for y, rng in zip(rows, rngs, strict=True):
        if noise_power > 0.0:
            if rng is None:
                raise ValueError("noisy sweep needs an rng")
            y = y + crandn(rng, width) * math.sqrt(noise_power)
        powers.append(np.abs(y) ** 2)
    best = [first + int(np.argmax(row)) + 1 for row in powers]
    return _result(book, scheme, best, powers, width, stacked=signals.ndim > 1)


def baseline_hfbs(book: HybridCodebook, signals: np.ndarray, noise_power: float = 0.0,
                  rngs=None) -> TrainingResult:
    """Exhaustive sweep: one ideal codeword-matched pilot per column.

    This is the upper-overhead baseline; it observes each codeword
    directly and is not constrained by the partially-connected hardware.
    ``signals`` are ``sweep_signals`` rows over all P columns (see
    :func:`_column_sweep`).
    """
    return _column_sweep(book, signals, noise_power, rngs, 0, "hfbs")


def baseline_ffbs(book: HybridCodebook, signals: np.ndarray, noise_power: float = 0.0,
                  rngs=None) -> TrainingResult:
    """Far-field-only sweep: Q ideal pilots over the plane-wave block.

    ``signals`` are ``sweep_signals`` rows over the last Q columns
    (``first = book.n_near``)."""
    return _column_sweep(book, signals, noise_power, rngs, book.n_near, "ffbs")
