import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlbeam import (ArrayConfig, build_hybrid_codebook, build_subarray_codebook,
                    steering, steering_far, steering_near, validate_quantization)
from oracles import full_matrix
from xlbeam import codebooks
from xlbeam.codebooks import angle_grid, distance_grid, steer_matrix


def far_block(cfg, q, s=2):
    """The far-field block of a hybrid codebook with S near rings."""
    book = build_hybrid_codebook(cfg, q, s)
    return full_matrix(book)[:, book.n_near:]


class TestFarCodebook:
    def test_single_column_is_broadside(self, cfg128):
        cf = far_block(cfg128, 1)
        assert cf.shape == (128, 1)
        assert np.allclose(cf[:, 0], steering_far(cfg128, 0.0))

    def test_center_angle_sample(self):
        theta = angle_grid(512)
        assert theta[255] == pytest.approx(-1 / 512, abs=0)

    def test_dft_grid_adjacent_coherence(self, cfg128):
        # Q = N: neighboring beams overlap by |Dirichlet(2/Q)| / N
        n = cfg128.n_antennas
        cf = far_block(cfg128, n)
        got = abs(np.vdot(cf[:, 10], cf[:, 11]))
        delta = 2.0 / n
        expect = abs(math.sin(n * math.pi * delta / 2)
                     / (n * math.sin(math.pi * delta / 2)))
        assert got == pytest.approx(expect, rel=1e-10)

    def test_unit_columns(self, cfg128):
        cf = far_block(cfg128, 64)
        assert np.allclose(np.linalg.norm(cf, axis=0), 1.0, atol=1e-12)


class TestNearCodebook:
    def test_broadside_ring_distances(self, cfg512):
        # with S rings, ring s at theta ~ 0 sits at 67.584/s * (1 - theta^2)
        d = distance_grid(cfg512, 512, 11)
        theta = angle_grid(512)
        scale = 1.0 - theta[255] ** 2
        assert d[255, 0] == pytest.approx(67.584 * scale, rel=1e-12)
        assert d[255, 10] == pytest.approx(6.144 * scale, rel=1e-12)

    def test_deepest_ring_meets_floor_at_broadside(self, cfg512):
        # the s = S sample equals the validity floor exactly at theta = 0
        n = cfg512.n_antennas
        s = 11
        d_limit = n**1.5 * cfg512.wavelength * s / (4 * math.sqrt(2) * s)
        assert d_limit == pytest.approx(cfg512.range_floor, rel=1e-12)

    def test_distance_strictly_decreasing_in_s(self, cfg512):
        d = distance_grid(cfg512, 64, 8)
        assert np.all(np.diff(d, axis=1) < 0)

    def test_columns_match_steering(self, cfg128):
        book = build_hybrid_codebook(cfg128, 16, 3)
        cn = full_matrix(book)[:, :book.n_near]
        d = distance_grid(cfg128, 16, 3)
        theta = angle_grid(16)
        col = cn[:, 5 * 3 + 1]          # q=6, s=2
        assert np.allclose(col, steering_near(cfg128, theta[5], d[5, 1],
                                              validate=False), rtol=1e-12)


class TestHybridCodebook:
    def test_reference_column_count(self, full_workspace):
        book, _, _ = full_workspace
        assert book.n_columns == 6144

    def test_all_columns_unit_norm(self, desk_workspace):
        book, _, _ = desk_workspace
        assert np.allclose(np.linalg.norm(full_matrix(book), axis=0), 1.0, atol=1e-12)

    def test_far_only_degenerate(self, cfg128):
        book = build_hybrid_codebook(cfg128, 32, 0)
        assert book.n_columns == 32
        assert book.params(1).is_far
        assert np.allclose(full_matrix(book), far_block(cfg128, 32))

    @pytest.mark.parametrize("q, s", [(0, 3), (4, -1)])
    def test_rejects_bad_grid_sizes(self, cfg128, q, s):
        with pytest.raises(ValueError):
            build_hybrid_codebook(cfg128, q, s)

    def test_builds_in_place(self, cfg128):
        # both blocks are written into the one matrix: the build's peak
        # stays well under a second copy of it
        tracemalloc.start()
        try:
            book = build_hybrid_codebook(cfg128, 128, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert book.matrix.flags.c_contiguous
        assert peak < 1.75 * book.matrix.nbytes

    def test_steers_again_in_place(self, cfg128):
        book = build_hybrid_codebook(cfg128, 128, 3)
        book.release_matrix()
        tracemalloc.start()
        try:
            matrix = book.matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.flags.c_contiguous
        assert peak < 1.75 * matrix.nbytes

    def test_index_arithmetic(self, desk_workspace):
        book, _, _ = desk_workspace
        first = book.params(1)
        assert (first.kind, first.q, first.s) == ("near", 1, 1)
        boundary = book.params(book.n_angles * book.n_rings + 1)
        assert boundary.is_far and boundary.q == 1
        with pytest.raises(ValueError):
            book.params(0)
        with pytest.raises(ValueError):
            book.params(book.n_columns + 1)

    def test_worked_example_codeword_index(self, full_workspace):
        book, _, _ = full_workspace
        p = 255 * 11 + 6
        cw = book.params(p)
        assert (cw.q, cw.s) == (256, 6)
        assert cw.theta == pytest.approx(-1 / 512, abs=0)
        assert cw.distance == pytest.approx(11.26395703125, rel=1e-12)

    def test_params_round_trip_all_columns(self, desk_workspace):
        book, _, _ = desk_workspace
        for p in range(1, book.n_columns + 1):
            cw = book.params(p)
            assert book.index_of(cw.q, cw.s) == p

    def test_below_floor_flags(self, desk_workspace):
        book, _, _ = desk_workspace
        # the deepest ring always sits under the floor off broadside, and
        # extreme angles push shallower rings under it too
        assert book.below_floor[:, -1].all()
        assert not book.below_floor[book.n_angles // 2, 0]
        # the flags cover the near block only: a far column is never flagged
        assert book.below_floor.shape == (book.n_angles, book.n_rings)


def assert_columns_steer(book, chunk=512):
    """Every column, looked up one at a time and as a stack, is bit for bit
    the steering vector at its grid cell."""
    for lo in range(1, book.n_columns + 1, chunk):
        p = np.arange(lo, min(lo + chunk, book.n_columns + 1))
        cws = [book.params(int(k)) for k in p]
        want = steering(book.cfg, [cw.theta for cw in cws], [cw.distance for cw in cws],
                        validate=False)
        assert np.array_equal(book.column(p), want)
        for k, row in zip(p, want):
            assert np.array_equal(book.column(int(k)), row), k


class TestStoredLayout:
    """The matrix holds the rings of angles 1..ceil(Q/2) and the far block;
    every other near column is its mirror source read reversed."""

    @pytest.mark.parametrize("q, s", [(128, 3), (33, 2), (32, 0), (1, 3)])
    def test_every_column_is_its_steering_vector(self, cfg128, q, s):
        assert_columns_steer(build_hybrid_codebook(cfg128, q, s))

    def test_reference_columns_are_their_steering_vectors(self, full_workspace):
        assert_columns_steer(full_workspace[0])

    def test_reference_matrix_holds_half_the_near_columns(self, full_workspace):
        book, _, _ = full_workspace
        assert book.n_stored_near == 256 * 11
        assert book.matrix.shape == (512, 256 * 11 + 512)
        assert book.matrix.nbytes == 16 * 512 * (256 * 11 + 512)

    @pytest.mark.parametrize("array, q, s", [("cfg512", 512, 11), ("cfg128", 33, 2),
                                             ("cfg128", 32, 0)])
    def test_a_released_matrix_steers_again_bit_for_bit(self, request, array, q, s):
        book = build_hybrid_codebook(request.getfixturevalue(array), q, s)
        first = book.matrix
        book.release_matrix()
        assert not book.holds_matrix
        again = book.matrix
        assert book.holds_matrix and again is not first
        assert again.dtype == first.dtype and again.shape == first.shape
        assert np.array_equal(again.view(np.uint64), first.view(np.uint64))
        assert book.matrix is again

    @pytest.mark.parametrize("array, q, s", [("cfg512", 512, 11), ("cfg128", 33, 2),
                                             ("cfg128", 32, 0)])
    def test_a_column_steered_alone_is_its_stored_column(self, request, array, q, s,
                                                          monkeypatch):
        book = build_hybrid_codebook(request.getfixturevalue(array), q, s)
        held = book.matrix
        book.release_matrix()
        monkeypatch.setattr(codebooks, "steer_matrix", None)    # no matrix is steered
        for p in range(1, book.n_columns + 1):
            stored, mirrored = book.source(p)
            want = held[:, int(stored)][::-1] if mirrored else held[:, int(stored)]
            col, want = np.ascontiguousarray(book.steer_column(p)), np.ascontiguousarray(want)
            assert col.dtype == want.dtype and col.shape == want.shape
            assert np.array_equal(col.view(np.uint64), want.view(np.uint64)), p
        assert not book.holds_matrix

    def test_threads_reading_a_released_matrix_steer_it_once(self, cfg128, monkeypatch):
        # more readers than cores, and a slow steering and a short switch
        # interval widen the window in which a second steering could start
        book = build_hybrid_codebook(cfg128, 33, 2)
        book.release_matrix()
        steered = []

        def slow_steer(*args):
            steered.append(args)
            time.sleep(0.05)
            return steer_matrix(*args)

        monkeypatch.setattr(codebooks, "steer_matrix", slow_steer)
        start = threading.Barrier(4)
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append(book.matrix)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(steered) == 1
        assert len(seen) == 4 and all(matrix is seen[0] for matrix in seen)

    def test_source_maps_mirror_pairs(self, cfg128):
        book = build_hybrid_codebook(cfg128, 5, 2)
        # angles 1..3 are held; angle 4 reads angle 2 and angle 5 reads angle 1
        stored, mirrored = book.source(np.arange(1, book.n_columns + 1))
        assert stored.tolist() == [0, 1, 2, 3, 4, 5, 2, 3, 0, 1, 6, 7, 8, 9, 10]
        assert mirrored.tolist() == [False] * 6 + [True] * 4 + [False] * 5


class TestSubarrayCodebook:
    def test_center_grid_angle(self, cfg512):
        sub = build_subarray_codebook(cfg512)
        assert sub.angles[63] == pytest.approx(-1 / 128, abs=0)

    def test_columns_orthogonal(self, cfg128):
        sub = build_subarray_codebook(cfg128)
        gram = sub.matrix.conj().T @ sub.matrix / cfg128.m_per_sub
        assert np.allclose(gram, np.eye(cfg128.m_per_sub), atol=1e-10)

    def test_unit_modulus_entries(self, cfg128):
        sub = build_subarray_codebook(cfg128)
        assert np.allclose(np.abs(sub.matrix), 1.0, atol=1e-12)

    def test_single_antenna_subarrays(self):
        cfg = ArrayConfig(4, 4, 0.003)
        sub = build_subarray_codebook(cfg)
        assert sub.matrix.shape == (1, 1)
        assert sub.matrix[0, 0] == pytest.approx(1.0)


class TestQuantizationRule:
    def test_reference_bound(self, cfg512):
        rep = validate_quantization(cfg512, 512, 11)
        assert rep.ok and rep.q_ok
        assert rep.s_bound == pytest.approx(5.322916666666667, rel=1e-12)
        assert rep.s_min == 6

    def test_minimal_s(self, cfg512):
        assert validate_quantization(cfg512, 512, 6).ok
        assert not validate_quantization(cfg512, 512, 5).ok

    def test_q_equal_m_diverges(self, cfg512):
        rep = validate_quantization(cfg512, cfg512.m_per_sub, 50)
        assert not rep.ok and not rep.q_ok and rep.s_min is None

    @given(st.integers(3, 6), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_s_min_is_tight(self, log2n, extra):
        n = 2 ** (log2n + 4)
        cfg = ArrayConfig(n, 4, 0.003)
        q = cfg.m_per_sub * (2 + extra)
        rep = validate_quantization(cfg, q, 1)
        assert rep.q_ok
        assert validate_quantization(cfg, q, rep.s_min).ok
        if rep.s_min > 1:
            assert not validate_quantization(cfg, q, rep.s_min - 1).ok
