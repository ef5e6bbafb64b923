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

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, ChannelRealization, crandn, h_of
from .codebooks import HybridCodebook, SubarrayCodebook
from .combining import CombinerPair, quantize_pointing, subarray_pointing


@dataclass
class Stage1Sweep:
    """All stage-1 measurements: z[m, t] is beam m's output on RF chain t."""

    z: np.ndarray = field(repr=False)        # (M, N_RF) complex
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
    for t in range(n_rf):
        gt = bh @ book.matrix[t * m:(t + 1) * m, :]                 # (M, P)
        fc[:, t] = gt[m_idx[:, t], np.arange(p_total)]
    norms = np.linalg.norm(fc, axis=1)
    v = fc.conj() / (math.sqrt(m) * norms[:, None])
    return TrainedDesign(book=book, sub_book=sub_book, psi=psi, m_idx=m_idx, v=v)


@dataclass
class TrainingResult:
    """Outcome of one beam-training run."""

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
                 rng: np.random.Generator | None = None) -> Stage1Sweep:
    """Sweep all M DFT beams; every subarray applies beam m on pilot m."""
    m, n_rf = cfg.m_per_sub, cfg.n_rf
    h_blocks = np.asarray(h).reshape(n_rf, m).T                     # (M, N_RF)
    signal = sub_book.matrix.conj().T @ h_blocks                    # (M, N_RF)
    if noise_power > 0.0:
        if rng is None:
            raise ValueError("noisy sweep needs an rng")
        noise = crandn(rng, (m, n_rf)) * math.sqrt(m * noise_power)
    else:
        noise = np.zeros_like(signal)
    return Stage1Sweep(z=signal + noise, signal=signal, noise=noise, pilots=m)


def assemble_reused(sweep: Stage1Sweep, design: TrainedDesign, p) -> np.ndarray:
    """Reassemble codeword p's RF outputs from the stage-1 measurements.

    Entry t is copied from sweep measurement ``z[m_t(p), t]``; no pilot is
    consumed.  ``p`` is 1-based; an array of indices gives one row of N_RF
    outputs per codeword.
    """
    rows = np.take(design.m_idx, p - 1, axis=0)     # faster than m_idx[p - 1] for arrays
    return sweep.z[rows, np.arange(rows.shape[-1])]


def stage2_select(book: HybridCodebook, design: TrainedDesign,
                  sweep: Stage1Sweep) -> TrainingResult:
    """Test every codeword digitally and pick the largest combined power.

    Exact power ties break toward the smaller codeword index.
    """
    zz = assemble_reused(sweep, design, np.arange(1, book.n_columns + 1))  # (P, N_RF)
    y = (design.v * zz).sum(axis=1)
    powers = np.abs(y) ** 2
    p_best = int(np.argmax(powers)) + 1                             # argmax = first max
    cw = book.params(p_best)
    return TrainingResult(scheme="thbt", best_index=p_best, rough_omega=cw.theta,
                          rough_range=cw.distance, powers=powers, pilots=sweep.pilots)


def run_thbt(cfg: ArrayConfig, book: HybridCodebook, design: TrainedDesign,
             channel: ChannelRealization | np.ndarray, noise_power: float = 0.0,
             rng: np.random.Generator | None = None) -> TrainingResult:
    """Full two-stage training: M pilots swept, zero pilots in stage 2."""
    sweep = stage1_sweep(cfg, design.sub_book, h_of(channel), noise_power, rng)
    return stage2_select(book, design, sweep)


def sweep_signals(book: HybridCodebook, hs: np.ndarray, first: int = 0) -> np.ndarray:
    """Noiseless column-sweep outputs ``C[:, first:]^H h`` for a stack of
    channels: row k of the (T, P - first) result belongs to ``hs[k]``.

    One matrix-matrix product serves the whole stack.  A one-row stack is
    padded with a zero row: numpy hands a (1, N) product to the
    matrix-vector kernel, which rounds differently, and a trial's outputs
    must not depend on how many trials share its product.
    """
    hs = np.atleast_2d(hs)
    n_rows = hs.shape[0]
    if n_rows == 1:
        hs = np.vstack([hs, np.zeros_like(hs)])
    # C^H h computed as (h^H C)^H to avoid conjugating the big matrix
    y = hs.conj() @ book.matrix[:, first:]
    return np.conjugate(y, out=y)[:n_rows]


def _column_sweep(book: HybridCodebook, channel, noise_power: float,
                  rng: np.random.Generator | None, first: int,
                  scheme: str, signal: np.ndarray | None) -> TrainingResult:
    """One ideal codeword-matched pilot per column, from 0-based column
    ``first`` to the last; the winner's grid cell is the coarse estimate.

    ``signal`` is the channel's row of ``sweep_signals(book, ..., first)``
    when a batch already computed it."""
    if signal is None:
        y = sweep_signals(book, h_of(channel), first)[0]
    elif signal.shape == (book.n_columns - first,):
        y = signal
    else:
        raise ValueError(f"{scheme} signal has shape {signal.shape}, "
                         f"expected ({book.n_columns - first},)")
    if noise_power > 0.0:
        if rng is None:
            raise ValueError("noisy sweep needs an rng")
        y = y + crandn(rng, y.shape[0]) * math.sqrt(noise_power)
    powers = np.abs(y) ** 2
    p_best = first + int(np.argmax(powers)) + 1
    cw = book.params(p_best)
    return TrainingResult(scheme=scheme, best_index=p_best, rough_omega=cw.theta,
                          rough_range=cw.distance, powers=powers, pilots=y.shape[0])


def baseline_hfbs(book: HybridCodebook, channel: ChannelRealization | np.ndarray,
                  noise_power: float = 0.0,
                  rng: np.random.Generator | None = None,
                  signal: np.ndarray | None = None) -> TrainingResult:
    """Exhaustive sweep: one ideal codeword-matched pilot per column.

    This is the upper-overhead baseline; it observes each codeword
    directly and is not constrained by the partially-connected hardware.
    ``signal`` is an optional precomputed ``sweep_signals`` row (all P
    columns).
    """
    return _column_sweep(book, channel, noise_power, rng, 0, "hfbs", signal)


def baseline_ffbs(book: HybridCodebook, channel: ChannelRealization | np.ndarray,
                  noise_power: float = 0.0,
                  rng: np.random.Generator | None = None,
                  signal: np.ndarray | None = None) -> TrainingResult:
    """Far-field-only sweep: Q ideal pilots over the plane-wave block.

    ``signal`` is an optional precomputed ``sweep_signals`` row over the
    last Q columns (``first = book.n_near``)."""
    return _column_sweep(book, channel, noise_power, rng, book.n_near, "ffbs", signal)
