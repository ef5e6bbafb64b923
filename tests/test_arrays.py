import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PathParams, rayleigh_distance, realize

from xlbeam import (ArrayConfig, ChannelScenario, FAR_FIELD, QuadraticPhase, crandn,
                    element_distance, sample_channels, steering,
                    steering_far, steering_near, steering_quadratic)


class TestGeometry:
    def test_rayleigh_distance_reference_values(self, cfg512, cfg256):
        assert rayleigh_distance(cfg512) == pytest.approx(393.216, abs=1e-9)
        assert rayleigh_distance(cfg256) == pytest.approx(98.304, abs=1e-9)
        sub = ArrayConfig(64, 4, 0.003)
        assert rayleigh_distance(sub) == pytest.approx(6.144, abs=1e-9)

    def test_range_floor_ratio(self, cfg512):
        # floor is Z / sqrt(8N)
        z = rayleigh_distance(cfg512)
        assert cfg512.range_floor == pytest.approx(z / math.sqrt(8 * 512), rel=1e-12)

    def test_antenna_offsets_centered(self, cfg512):
        d = cfg512.antenna_offsets()
        assert d[0] == -d[-1]
        assert abs(d.sum()) < 1e-9
        assert np.allclose(np.diff(d), 0.5)

    def test_antenna_offsets_built_once_and_read_only(self, cfg512):
        d = cfg512.antenna_offsets()
        assert ArrayConfig(512, 8, 0.001).antenna_offsets() is d
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0] = 0.0

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(10, 4, 0.003)
        with pytest.raises(ValueError):
            ArrayConfig(8, 4, -1.0)
        with pytest.raises(ValueError):
            ArrayConfig(0, 1, 0.003)


class TestElementDistance:
    def test_collinear_is_exact_difference(self, cfg512):
        # omega = 1 makes the square root a perfect square |r - delta*lambda|
        r = 30.0
        d = element_distance(cfg512, 1.0, r)
        expect = np.abs(r - cfg512.antenna_offsets() * cfg512.wavelength)
        assert np.allclose(d, expect, rtol=1e-12)

    def test_far_limit_ratio(self, cfg512):
        d = element_distance(cfg512, 0.0, 1e9)
        assert np.allclose(d / 1e9, 1.0, atol=1e-12)

    def test_frozen_oracle_value(self, cfg512):
        # high-precision evaluation of the exact formula (mpmath, 40 digits)
        val = element_distance(cfg512, 0.5, 20.0)[0]
        assert val == pytest.approx(20.194352689861094, rel=1e-12)

    def test_rejects_nonpositive_range(self, cfg512):
        with pytest.raises(ValueError, match="range must be positive"):
            element_distance(cfg512, 0.0, 0.0)

    def test_monotone_in_lateral_offset(self, cfg512, rng):
        # law of cosines: distance grows with |delta*lambda - r*omega|
        for _ in range(25):
            omega = rng.uniform(-1, 1)
            r = rng.uniform(7.0, 300.0)
            d = element_distance(cfg512, omega, r)
            lateral = np.abs(cfg512.antenna_offsets() * cfg512.wavelength - r * omega)
            order = np.argsort(lateral)
            assert np.all(np.diff(d[order]) >= -1e-12)


class TestSteering:
    def test_unit_norms(self, cfg512):
        for v in (steering_near(cfg512, 0.3, 25.0), steering_far(cfg512, -0.7),
                  steering_quadratic(cfg512, 0.3, 25.0)):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_far_field_phase_agreement(self, cfg512):
        # beyond the Rayleigh distance the exact vector matches the plane
        # wave after the constant phase alignment, within the Fresnel bound
        z = rayleigh_distance(cfg512)
        omega = 0.4
        alpha = steering_near(cfg512, omega, 2 * z)
        beta = steering_far(cfg512, omega) * np.exp(
            2j * np.pi * omega * cfg512.antenna_offsets()[0])
        dphi = np.angle(alpha * beta.conj())
        assert np.max(np.abs(dphi)) < np.pi / 8

    def test_broadside_conjugate_symmetry(self, cfg512):
        alpha = steering_near(cfg512, 0.0, 50.0)
        assert np.allclose(alpha, alpha[::-1], rtol=1e-12)

    def test_floor_rejection(self, cfg512):
        with pytest.raises(ValueError):
            steering_near(cfg512, 0.0, 0.9 * cfg512.range_floor)
        # explicit bypass used by codebook construction
        v = steering_near(cfg512, 0.0, 0.9 * cfg512.range_floor, validate=False)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_far_broadside_is_flat(self, cfg512):
        beta = steering_far(cfg512, 0.0)
        assert np.allclose(beta, 1 / math.sqrt(512))

    def test_far_cross_coherence_is_dirichlet(self, cfg512):
        o1, o2 = 0.11, 0.27
        got = abs(np.vdot(steering_far(cfg512, o1), steering_far(cfg512, o2)))
        delta = o2 - o1
        n = cfg512.n_antennas
        expect = abs(math.sin(n * math.pi * delta / 2)
                     / (n * math.sin(math.pi * delta / 2)))
        assert got == pytest.approx(expect, rel=1e-10)

    def test_far_convergence_beyond_ten_rayleigh(self, cfg512):
        z = rayleigh_distance(cfg512)
        for omega in (-0.8, 0.0, 0.5):
            g = abs(np.vdot(steering_near(cfg512, omega, 10 * z),
                            steering_far(cfg512, omega)))
            assert g >= 0.99

    def test_quadratic_far_case_matches_plane_wave(self, cfg512):
        omega = -0.35
        gamma = steering_quadratic(cfg512, omega, FAR_FIELD)
        beta = steering_far(cfg512, omega)
        ratio = gamma / beta
        assert np.allclose(ratio, ratio[0], rtol=1e-12)
        assert abs(abs(ratio[0]) - 1.0) < 1e-12

    def test_quadratic_tracks_exact_steering(self, cfg512):
        # frozen sweep: the chirp approximation stays coherent with the
        # exact vector across the validity region
        rng = np.random.default_rng(7)
        for _ in range(60):
            omega = rng.uniform(-math.sqrt(3) / 2, math.sqrt(3) / 2)
            r = rng.uniform(cfg512.range_floor, 4 * rayleigh_distance(cfg512))
            g = abs(np.vdot(steering_quadratic(cfg512, omega, r),
                            steering_near(cfg512, omega, r)))
            assert g >= 0.95

    def test_steering_dispatch_on_far_marker(self, cfg512):
        assert np.allclose(steering(cfg512, 0.2, FAR_FIELD),
                           steering_far(cfg512, 0.2))

    def test_one_source_is_its_row_of_a_stack(self, cfg512):
        omegas = np.array([0.3, -0.2, 0.6, -0.75])
        ranges = np.array([25.0, FAR_FIELD, 40.0, FAR_FIELD])
        near = ~np.isinf(ranges)
        far_rows = steering_far(cfg512, omegas)
        near_rows = steering_near(cfg512, omegas[near], ranges[near])
        mixed = {f: f(cfg512, omegas, ranges) for f in (steering, steering_quadratic)}
        for i, (omega, r) in enumerate(zip(omegas.tolist(), ranges.tolist())):
            rows = {steering_far: (steering_far(cfg512, omega), far_rows[i])}
            if not math.isinf(r):
                rows[steering_near] = (steering_near(cfg512, omega, r),
                                       near_rows[np.count_nonzero(near[:i])])
            for f, stack in mixed.items():
                rows[f] = (f(cfg512, omega, r), stack[i])
            for f, (one, row) in rows.items():
                assert one.shape == (cfg512.n_antennas,), f.__name__
                assert np.array_equal(one, row), f.__name__

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_a_bad_source_anywhere_in_a_stack_raises(self, cfg512, pos):
        def with_bad(good, bad):
            values = np.full(3, good)
            values[pos] = bad
            return values

        near_r = np.full(3, 30.0)
        mixed_r = np.array([30.0, FAR_FIELD, 40.0])
        cases = [
            lambda: steering_far(cfg512, with_bad(0.2, 1.01)),
            lambda: steering_near(cfg512, with_bad(0.2, -1.01), near_r),
            lambda: steering(cfg512, with_bad(0.2, 1.01), mixed_r),
            lambda: element_distance(cfg512, np.zeros(3), with_bad(30.0, 0.0)),
            lambda: steering_near(cfg512, np.zeros(3), with_bad(30.0, -1.0),
                                  validate=False),
            lambda: steering_near(cfg512, np.zeros(3),
                                  with_bad(30.0, 0.9 * cfg512.range_floor)),
            lambda: steering(cfg512, np.zeros(3),
                             np.where(np.arange(3) == pos, 0.9 * cfg512.range_floor,
                                      mixed_r)),
        ]
        for case in cases:
            with pytest.raises(ValueError):
                case()


class TestQuadraticPhase:
    @given(omega=st.floats(-0.99, 0.99), r=st.floats(6.2, 5000.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, omega, r):
        cfg = ArrayConfig(512, 4, 0.003)
        qp = QuadraticPhase.from_geometry(cfg, omega, r)
        assert qp.k <= 0
        omega2, r2 = qp.to_geometry(cfg)
        assert omega2 == pytest.approx(omega, rel=1e-10, abs=1e-12)
        assert r2 == pytest.approx(r, rel=1e-10)

    def test_far_round_trip(self, cfg512):
        qp = QuadraticPhase.from_geometry(cfg512, 0.25, FAR_FIELD)
        assert qp.k == 0.0
        omega, r = qp.to_geometry(cfg512)
        assert omega == 0.25 and math.isinf(r)

    def test_far_marker(self, cfg512):
        assert QuadraticPhase.from_geometry(cfg512, 0.42, FAR_FIELD) == \
            QuadraticPhase(0.0, 0.42)

    def test_frozen_value(self, cfg512):
        qp = QuadraticPhase.from_geometry(cfg512, 0.0, 20.0)
        assert qp.k == pytest.approx(-3.75e-5, rel=1e-12)
        assert qp.b == pytest.approx(-qp.k * 513, rel=1e-12)

    @pytest.mark.parametrize("omega, r", [(0.3, 25.0), (-0.6, 9.5), (0.1, FAR_FIELD)])
    def test_steering_quadratic_is_scaled_phasor(self, cfg512, omega, r):
        qp = QuadraticPhase.from_geometry(cfg512, omega, r)
        assert np.array_equal(steering_quadratic(cfg512, omega, r),
                              qp.phasor(cfg512) / math.sqrt(cfg512.n_antennas))


class TestChannel:
    def test_default_scenario_shape(self, cfg512, rng):
        ch = sample_channels(cfg512, [rng])
        assert ch.gains.shape == ch.sines.shape == ch.ranges.shape == (1, 3)
        assert ch.h.shape == (1, 512)
        assert ch.steering.shape == (1, 3, 512)
        assert not ch.steering.flags.writeable

    def test_gain_variances(self, cfg512):
        rng = np.random.default_rng(3)
        gains = np.concatenate([sample_channels(cfg512, [rng]).gains for _ in range(4000)])
        var = np.mean(np.abs(gains) ** 2, axis=0)
        assert var[0] == pytest.approx(1.0, rel=0.1)
        assert var[1] == pytest.approx(0.01, rel=0.15)
        assert var[2] == pytest.approx(0.01, rel=0.15)

    def test_draw_bounds(self, cfg512):
        rng = np.random.default_rng(5)
        lim = math.sqrt(3) / 2
        ch = sample_channels(cfg512, [rng] * 200)
        assert np.all((-lim <= ch.sines) & (ch.sines <= lim))
        assert np.all((cfg512.range_floor <= ch.ranges) & (ch.ranges <= 150.0))

    def test_single_path_degenerate(self, cfg512, rng):
        scen = ChannelScenario(n_paths=1, gain_vars=(1.0,))
        ch = sample_channels(cfg512, [rng], scen)
        expect = ch.gains[0, 0] * steering_near(cfg512, ch.sines[0, 0], ch.ranges[0, 0])
        assert np.allclose(ch.h[0], expect, rtol=1e-12)

    FIELDS = ("gains", "sines", "ranges", "steering", "h")

    def test_one_channel_is_row_0_of_a_stack(self, cfg512):
        one_rng, stack_rng = np.random.default_rng(11), np.random.default_rng(11)
        one = sample_channels(cfg512, [one_rng])
        stack = sample_channels(cfg512, [stack_rng, np.random.default_rng(12)])
        for name in self.FIELDS:
            assert np.array_equal(getattr(one, name)[0], getattr(stack, name)[0]), name
        # per-path scalar draws, path by path: the gain's normals, the sine,
        # the range; both leave the generator where those draws leave it
        ref_rng = np.random.default_rng(11)
        scen = ChannelScenario()
        for l, var in enumerate(scen.gain_vars):
            re, im = ref_rng.standard_normal(), ref_rng.standard_normal()
            assert one.gains[0, l] == (re + 1j * im) * math.sqrt(0.5) * math.sqrt(var)
            assert one.sines[0, l] == ref_rng.uniform(*scen.angle_range)
            assert one.ranges[0, l] == ref_rng.uniform(cfg512.range_floor, 150.0)
        assert one_rng.random() == stack_rng.random() == ref_rng.random()

    def test_a_channel_does_not_depend_on_its_stack(self, cfg512):
        scen = ChannelScenario(range_range=(1.0, 400.0))
        stack = sample_channels(cfg512, [np.random.default_rng(s) for s in range(9)], scen)
        assert stack.h.shape == (9, 512) and stack.steering.shape == (9, 3, 512)
        for s in range(9):
            one = sample_channels(cfg512, [np.random.default_rng(s)], scen)
            for name in self.FIELDS:
                assert np.array_equal(getattr(one, name)[0], getattr(stack, name)[s]), name

    def test_synthesize_far_marker(self, cfg512):
        path = PathParams(gain=1.0 + 0j, omega=0.3, range_m=FAR_FIELD)
        assert np.allclose(realize(cfg512, [path]).h, steering_far(cfg512, 0.3))

    def test_invalid_scenarios(self):
        # each message starts with the field it rejects, which the config
        # reader turns into the dotted key
        with pytest.raises(ValueError, match="^n_paths "):
            ChannelScenario(n_paths=0)
        with pytest.raises(ValueError, match="^gain_vars "):
            ChannelScenario(n_paths=3, gain_vars=(1.0, 0.01))
        # a silent line of sight leaves alignment gains 0 / 0
        with pytest.raises(ValueError, match="^gain_vars "):
            ChannelScenario(n_paths=3, gain_vars=(0.0, 0.01, 0.01))
        with pytest.raises(ValueError, match="^angle_range "):
            ChannelScenario(angle_range=(0.5, -0.5))
        with pytest.raises(ValueError, match="^range_range "):
            ChannelScenario(range_range=(-1.0, 10.0))


def test_crandn_scaling():
    rng = np.random.default_rng(1)
    z = crandn(rng, 200_000)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
