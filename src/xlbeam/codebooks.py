"""Beam codebooks: the hybrid codebook of a polar-domain near-field grid
and a far-field DFT grid, and the per-subarray DFT codebook.

Hybrid codebook layout (1-based column index p):

* columns ``1 .. Q*S`` are near-field, angle-major / distance-minor:
  column ``p`` covers angle index ``q = ceil(p / S)`` and distance index
  ``s = p - (q - 1) * S``;
* columns ``Q*S + 1 .. Q*S + Q`` are the far-field grid.

Stored layout.  Angles ``q`` and ``Q + 1 - q`` are exact negatives, their
rings sit at equal distances, and the antenna offsets are exactly
antisymmetric, so near column ``(Q + 1 - q, s)`` is column ``(q, s)`` with
the antennas reversed, bit for bit.  ``HybridCodebook.matrix`` therefore
holds only the near columns of angles ``1 .. ceil(Q/2)`` (in the order
above), then the far block: ``ceil(Q/2)*S + Q`` columns.  Every other near
column is read from its mirror source with the antenna axis reversed
(:meth:`HybridCodebook.source`).  ``matrix`` is the transpose of one array
of C-contiguous rows, so a column is read in place.

Held matrix.  :func:`build_hybrid_codebook` steers the matrix at once;
:func:`hybrid_codebook_geometry` builds the same book without it, for a
caller that reads only the grids.  A caller that will read no stored column
(an experiment driver none of whose schemes reads one) drops it with
:meth:`HybridCodebook.release_matrix`, and the next read of ``matrix``
steers it again with :func:`steer_matrix`, the one routine that builds it:
bit for bit the matrix first built.  A caller that reads a few columns
steers each alone with :meth:`HybridCodebook.steer_column`, as
:func:`steer_matrix` steers it, without the matrix.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, FAR_FIELD, steering_far, steering_near


def angle_grid(q: int) -> np.ndarray:
    """The Q angle samples (2q - 1 - Q) / Q, q = 1..Q."""
    return (2 * np.arange(1, q + 1) - 1 - q) / q


def distance_grid(cfg: ArrayConfig, q: int, s: int) -> np.ndarray:
    """Polar-domain distance samples, shape (Q, S).

    ``d[q, s] = N^{3/2} * lambda * S * (1 - theta_q^2) / (4 * sqrt(2) * s)``.
    The deepest ring (s = S) touches the validity floor at theta = 0.
    """
    theta = angle_grid(q)
    srange = np.arange(1, s + 1)
    n = cfg.n_antennas
    return (n**1.5 * cfg.wavelength * s * (1.0 - theta[:, None] ** 2)
            / (4.0 * math.sqrt(2.0) * srange[None, :]))


@dataclass(frozen=True)
class CodewordParams:
    """Geometry behind one hybrid-codebook column."""

    kind: str            # "near" or "far"
    theta: float
    distance: float      # inf for far columns
    q: int               # 1-based angle index
    s: int | None        # 1-based distance index, None for far columns

    @property
    def is_far(self) -> bool:
        return self.kind == "far"


@dataclass
class HybridCodebook:
    """Near + far codebook with index/geometry bookkeeping."""

    cfg: ArrayConfig
    n_angles: int
    n_rings: int
    theta: np.ndarray = field(repr=False)
    distances: np.ndarray = field(repr=False)        # (Q, S)
    below_floor: np.ndarray = field(repr=False)      # (Q, S) bool
    # (N, ceil(Q/2)*S + Q) stored columns, rows transposed; None while released
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _steering: threading.Lock = field(default_factory=threading.Lock, init=False,
                                      repr=False, compare=False)

    @property
    def matrix(self) -> np.ndarray:
        """The stored columns (see the module notes), steered again on the
        first read after a release.  Threads that read a released matrix
        together wait for one steering."""
        matrix = self._matrix
        if matrix is None:
            with self._steering:
                if self._matrix is None:
                    self._matrix = steer_matrix(self.cfg, self.theta, self.distances)
                matrix = self._matrix
        return matrix

    @property
    def holds_matrix(self) -> bool:
        """Whether the stored columns are held now; if not, a read steers them."""
        return self._matrix is not None

    def release_matrix(self) -> None:
        """Drop the stored columns until the next read of ``matrix``.  A
        reader that already has the array keeps it."""
        self._matrix = None

    @property
    def n_near(self) -> int:
        """Columns in the near block; the far block starts at 0-based column n_near."""
        return self.n_angles * self.n_rings

    @property
    def n_columns(self) -> int:
        return self.n_near + self.n_angles

    @property
    def n_stored_near(self) -> int:
        """Near columns held in ``matrix``: the rings of angles 1..ceil(Q/2).
        The far block starts at 0-based stored column n_stored_near."""
        return (self.n_angles + 1) // 2 * self.n_rings

    def params(self, p: int) -> CodewordParams:
        """Geometry of column p (1-based)."""
        qs = self.n_near
        if not 1 <= p <= self.n_columns:
            raise ValueError(f"column index {p} outside 1..{self.n_columns}")
        if p <= qs:
            q = math.ceil(p / self.n_rings)
            s = p - (q - 1) * self.n_rings
            return CodewordParams("near", float(self.theta[q - 1]),
                                  float(self.distances[q - 1, s - 1]), q, s)
        q = p - qs
        return CodewordParams("far", float(self.theta[q - 1]), FAR_FIELD, q, None)

    def cells(self, p) -> tuple[np.ndarray, np.ndarray]:
        """The grid cells (q, s) of columns p (1-based, an array), with
        s = 0 for a far column."""
        i = np.asarray(p) - 1
        far = i >= self.n_near
        rings = max(self.n_rings, 1)
        return (np.where(far, i - self.n_near, i // rings) + 1,
                np.where(far, 0, i % rings + 1))

    def geometry(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(theta, distance) of columns p (1-based, an array), as ``params``
        gives them: an infinite distance for a far column."""
        q, s = self.cells(p)
        near = s > 0
        distance = np.full(q.shape, FAR_FIELD)
        distance[near] = self.distances[q[near] - 1, s[near] - 1]
        return self.theta[q - 1], distance

    def index_of(self, q: int, s: int | None = None) -> int:
        """Column index of near cell (q, s), or of far angle q with s=None."""
        if s is None:
            return self.n_near + q
        return (q - 1) * self.n_rings + s

    def source(self, p):
        """Where column p (1-based) is held: its 0-based column of ``matrix``,
        and whether it is read there with the antennas reversed.  An array
        of indices gives two arrays."""
        i = np.asarray(p) - 1
        s = max(self.n_rings, 1)
        near = i < self.n_near
        mirrored = near & (i // s >= (self.n_angles + 1) // 2)
        # angle Q + 1 - q reads angle q's ring; far columns shift down past the
        # near columns not held
        stored = np.where(mirrored, (self.n_angles - 1 - i // s) * s + i % s,
                          np.where(near, i, i - self.n_near + self.n_stored_near))
        return stored, mirrored

    def column(self, p) -> np.ndarray:
        """Column p (1-based): a view of the stored row, reversed for a
        mirrored p.  An array of indices gives a new C-contiguous array, one
        row per column."""
        stored, mirrored = self.source(p)
        if np.ndim(p) == 0:
            col = self.matrix.T[int(stored)]
            return col[::-1] if mirrored else col
        rows = self.matrix.T[stored]
        rows[mirrored] = rows[mirrored, ::-1]
        return rows

    def steer_column(self, p: int) -> np.ndarray:
        """Column p (1-based) steered alone, without reading ``matrix``:
        its stored column steered by the call :func:`steer_matrix` makes
        for that angle, reversed for a mirrored p, so bit for bit
        ``column(p)``."""
        stored, mirrored = self.source(p)
        stored = int(stored)
        if stored >= self.n_stored_near:
            return steering_far(self.cfg, self.theta[stored - self.n_stored_near])
        q, s = divmod(stored, self.n_rings)
        col = steering_near(self.cfg, self.theta[q], self.distances[q, s], validate=False)
        return col[::-1] if mirrored else col


def build_hybrid_codebook(cfg: ArrayConfig, q: int, s: int) -> HybridCodebook:
    """Build the hybrid codebook {near block, far block} with Q*S+Q columns,
    of which ``matrix`` holds ceil(Q/2)*S+Q (see the module notes), steered
    at once."""
    book = hybrid_codebook_geometry(cfg, q, s)
    book._matrix = steer_matrix(cfg, book.theta, book.distances)
    return book


def hybrid_codebook_geometry(cfg: ArrayConfig, q: int, s: int) -> HybridCodebook:
    """The hybrid codebook's grids, with no matrix held: the first read of
    ``matrix`` steers it.

    ``s = 0`` degenerates to the far-only codebook of Q columns.  Near
    columns whose ring distance falls below the validity floor (extreme
    angles shrink ``1 - theta^2``) are kept so index arithmetic stays
    dense, and flagged in ``below_floor``.
    """
    if q < 1:
        raise ValueError("need at least one angle sample")
    if s < 0:
        raise ValueError("distance sample count cannot be negative")
    theta = angle_grid(q)
    dist = distance_grid(cfg, q, s)
    # strict comparison up to rounding: the deepest ring at the angle grid
    # point nearest broadside sits essentially on the floor
    below = dist < cfg.range_floor * (1.0 - 1e-12)
    return HybridCodebook(cfg=cfg, n_angles=q, n_rings=s, theta=theta, distances=dist,
                          below_floor=below)


def steer_matrix(cfg: ArrayConfig, theta: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The stored columns of the codebook with angles ``theta`` and (Q, S)
    ring distances ``dist``: the near rings of angles 1..ceil(Q/2), then
    the far block (see the module notes), as the transpose of their rows."""
    q, s = dist.shape
    # both blocks are written into one array, so no block is copied
    half = (q + 1) // 2
    rows = np.empty((half * s + q, cfg.n_antennas), dtype=complex)
    for qi in range(q):
        if qi < half:
            # one stacked call per angle: its S rings as rows
            rows[qi * s:(qi + 1) * s] = steering_near(
                cfg, np.full(s, theta[qi]), dist[qi], validate=False)
        # far rows one at a time, so no (Q, N) temporary is made
        rows[half * s + qi] = steering_far(cfg, theta[qi])
    return rows.T


@dataclass(frozen=True)
class SubarrayCodebook:
    """Per-subarray DFT codebook: M beams over the full angle space."""

    cfg: ArrayConfig
    angles: np.ndarray = field(repr=False)   # (M,)
    matrix: np.ndarray = field(repr=False)   # (M, M), column m = sqrt(M)*beta(M, Phi_m)


def build_subarray_codebook(cfg: ArrayConfig) -> SubarrayCodebook:
    m = cfg.m_per_sub
    phi = angle_grid(m)
    n = np.arange(m)[:, None]
    matrix = np.exp(1j * np.pi * n * phi[None, :])   # sqrt(M) * beta has unit-modulus entries
    return SubarrayCodebook(cfg=cfg, angles=phi, matrix=matrix)


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of the (Q, S) sampling-density check."""

    ok: bool
    q_ok: bool
    s_bound: float | None
    s_min: int | None


def validate_quantization(cfg: ArrayConfig, q: int, s: int) -> QuantizationReport:
    """Check the codebook density needed for reliable subarray phase reuse.

    Requires ``Q >= M`` and
    ``S >= sqrt(2) * (N - 1) / (2 * N^{3/2} * (1/M - 1/Q))``; with
    ``Q = M`` the bound diverges and the check reports a violation.
    """
    m = cfg.m_per_sub
    n = cfg.n_antennas
    if q < m or (1.0 / m - 1.0 / q) <= 0.0:
        return QuantizationReport(ok=False, q_ok=False, s_bound=None, s_min=None)
    bound = math.sqrt(2.0) * (n - 1) / (2.0 * n**1.5 * (1.0 / m - 1.0 / q))
    s_min = math.ceil(bound)
    return QuantizationReport(ok=s >= bound, q_ok=True, s_bound=bound, s_min=s_min)
