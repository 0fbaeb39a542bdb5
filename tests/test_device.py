import sys

import numpy as np
import pytest

from mtlg.device import (
    DeviceModel,
    MemristorState,
    ProgramTimeoutError,
    ReadDisturbError,
    apply_pulse,
    conductance_levels,
    program_to_target,
    quantize,
    read_current,
)
from oracles import reference_program_to_target


def state(r, **model_kwargs):
    return MemristorState(resistance=r, model=DeviceModel(**model_kwargs))


class TestReadCurrent:
    def test_ohmic_read(self):
        s = state(33e3)
        assert read_current(s, 0.5) == 0.5 / 33e3

    def test_zero_bias(self):
        assert read_current(state(47e3), 0.0) == 0.0

    def test_programming_voltage_rejected(self):
        with pytest.raises(ReadDisturbError):
            read_current(state(33e3), 2.0)
        with pytest.raises(ReadDisturbError):
            read_current(state(33e3), -1.0)  # exactly at threshold

    def test_reads_never_mutate(self):
        s = state(37.5e3)
        before = s.resistance
        for _ in range(100):
            read_current(s, 0.5)
        assert s.resistance == before


class TestApplyPulse:
    def test_reset_fixed_point_at_r_max(self):
        s = state(100e3)
        assert apply_pulse(s, -2.0).resistance == 100e3

    def test_subthreshold_is_a_no_op(self):
        s = state(55e3)
        assert apply_pulse(s, 0.5).resistance == 55e3
        assert apply_pulse(s, -0.5).resistance == 55e3

    def test_set_step_from_r_max(self):
        s = state(100e3)
        out = apply_pulse(s, 2.0)
        assert out.resistance == pytest.approx(91e3, rel=1e-12)

    def test_set_monotone_decreasing(self):
        s = state(80e3)
        for _ in range(50):
            nxt = apply_pulse(s, 2.0)
            assert nxt.resistance <= s.resistance
            s = nxt
        assert s.resistance >= s.model.r_min

    def test_reset_monotone_increasing(self):
        s = state(20e3)
        for _ in range(50):
            nxt = apply_pulse(s, -2.0)
            assert nxt.resistance >= s.resistance
            s = nxt
        assert s.resistance <= s.model.r_max

    def test_noise_is_seed_deterministic(self):
        m = DeviceModel(noise_sigma_rel=0.02)
        s = MemristorState(80e3, m)
        a = apply_pulse(s, 2.0, np.random.default_rng(7))
        b = apply_pulse(s, 2.0, np.random.default_rng(7))
        assert a.resistance == b.resistance
        assert a.resistance != apply_pulse(s, 2.0, np.random.default_rng(8)).resistance

    @pytest.mark.parametrize("amplitude", [2.0, -2.0])
    def test_noise_without_a_generator_stays_in_range(self, amplitude):
        # noise of 50% pushes most pulses from either end past it
        m = DeviceModel(noise_sigma_rel=0.5)
        out = {apply_pulse(MemristorState(r, m), amplitude).resistance
               for r in (m.r_min, m.r_max) for _ in range(50)}
        assert all(m.r_min <= r <= m.r_max for r in out)
        assert len(out) > 2  # the pulses drew noise


class TestQuantize:
    def test_endpoints(self):
        m = DeviceModel()
        lvl, r = quantize(m.r_max, m)
        assert lvl == 0 and r == pytest.approx(m.r_max, rel=1e-12)
        lvl, r = quantize(m.r_min, m)
        assert lvl == m.n_levels - 1 and r == pytest.approx(m.r_min, rel=1e-12)

    def test_nearest_in_conductance_by_enumeration(self):
        m = DeviceModel()
        grid = conductance_levels(m)
        for target in (33e3, 12.7e3, 99e3, 41.6e3, 60.5e3):
            lvl, r = quantize(target, m)
            best = int(np.argmin(np.abs(grid - 1.0 / target)))
            assert lvl == best
            assert r == pytest.approx(1.0 / grid[best], rel=1e-12)

    def test_projection(self):
        m = DeviceModel(bits=3)
        for target in np.linspace(m.r_min, m.r_max, 37):
            _, r1 = quantize(float(target), m)
            _, r2 = quantize(r1, m)
            assert r2 == r1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantize(5e3, DeviceModel())

    @pytest.mark.parametrize("bits", [1, 3, 5, 7])
    @pytest.mark.parametrize("r_min, r_max", [(10e3, 100e3), (1e6, 1e7), (333.3, 470e3)])
    def test_every_level_quantizes_to_itself(self, bits, r_min, r_max):
        # conductance_levels once used np.linspace, which pins the top level
        # to 1/r_min; quantize's g_lo + k * dg can miss that by a bit (1e6-1e7
        # ohm at 3 bits)
        m = DeviceModel(r_min=r_min, r_max=r_max, bits=bits)
        grid = conductance_levels(m)
        assert len(grid) == m.n_levels
        for k, g in enumerate(grid):
            assert quantize(float(1.0 / g), m) == (k, float(1.0 / g))

    def test_top_level_is_r_min_not_an_ulp_below(self):
        # 1 / (g_lo + dg) once came out as 210830.42079120854, and
        # program_to_target refused that level as outside the range
        m = DeviceModel(r_min=210830.42079120857, r_max=1196132.4591488778, bits=1)
        assert quantize(m.r_min, m) == (1, m.r_min)
        res = program_to_target(MemristorState(m.r_max, m), m.r_min)
        assert abs(res.state.resistance - m.r_min) <= 0.01 * m.r_min

    def test_every_returned_level_is_in_range_in_random_ranges(self):
        rng = np.random.default_rng(2018)
        for _ in range(200):
            r_min = 10 ** rng.uniform(2, 6)
            m = DeviceModel(r_min=r_min, r_max=r_min * 10 ** rng.uniform(0.05, 2),
                            bits=int(rng.integers(1, 8)))
            edges = [min(max(1.0 / g, m.r_min), m.r_max) for g in conductance_levels(m)]
            for target in [m.r_min, m.r_max, *rng.uniform(m.r_min, m.r_max, 8), *edges]:
                _, r = quantize(float(target), m)
                assert m.r_min <= r <= m.r_max
                assert program_to_target(MemristorState(r, m), r, max_pulses=0).pulses == 0


class TestProgramToTarget:
    def test_already_at_target_applies_no_pulses(self):
        s = state(33e3)
        res = program_to_target(s, 33e3, tol_rel=0.01)
        assert res.pulses == 0
        assert res.state.resistance == 33e3

    def test_converges_within_band(self):
        for target in (10e3, 33e3, 50e3, 77e3, 99e3):
            res = program_to_target(state(100e3), target, tol_rel=0.01)
            assert abs(res.state.resistance - target) <= 0.01 * target
            assert res.pulses <= 200

    def test_converges_from_low_start(self):
        res = program_to_target(state(10e3), 70e3, tol_rel=0.01)
        assert abs(res.state.resistance - 70e3) <= 700

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            program_to_target(state(50e3), 5e3)

    def test_timeout(self):
        with pytest.raises(ProgramTimeoutError):
            program_to_target(state(100e3), 50e3, tol_rel=1e-4, max_pulses=3)

    @pytest.mark.parametrize("tol_rel", [1e-17, 1e-16, np.nextafter(sys.float_info.epsilon, 0)])
    def test_tolerance_below_float_epsilon_refused(self, tol_rel):
        # 1e-17 of 33k is below one float step there: it once spent the whole
        # budget, and the planner's cost grows with the budget
        with pytest.raises(ValueError, match="float epsilon"):
            program_to_target(state(100e3), 33e3, tol_rel=tol_rel)

    def test_tolerance_at_float_epsilon_accepted(self):
        res = program_to_target(state(33e3), 33e3, tol_rel=sys.float_info.epsilon)
        assert res.pulses == 0

    def test_budget_past_sys_maxsize_plans_normally(self):
        # a budget of 1e20 pulses once ended in OverflowError in the planner
        for target in (10e3, 33e3, 99e3):
            huge = program_to_target(state(100e3), target, max_pulses=10 ** 20)
            usual = program_to_target(state(100e3), target)
            assert (huge.state.resistance, huge.pulses) == (usual.state.resistance, usual.pulses)

    def test_with_programming_noise(self):
        m = DeviceModel(noise_sigma_rel=0.005)
        rng = np.random.default_rng(42)
        res = program_to_target(MemristorState(100e3, m), 40e3, tol_rel=0.02,
                                max_pulses=500, rng=rng)
        assert abs(res.state.resistance - 40e3) <= 0.02 * 40e3


def _programming_outcome(fn, start, target, tol_rel, max_pulses, seed):
    """(resistance.hex(), pulses) or the error, plus the next draw of the rng."""
    rng = None if seed is None else np.random.default_rng(seed)
    try:
        res = fn(start, target, tol_rel=tol_rel, max_pulses=max_pulses, rng=rng)
        out = (res.state.resistance.hex(), res.pulses)
    except (ValueError, ProgramTimeoutError) as e:
        out = (type(e).__name__, str(e))
    return out, None if rng is None else rng.random()


class TestPlannerReference:
    """program_to_target against the planner that tries every schedule length
    from 1 up and builds every schedule's full digit list."""

    def test_matches_reference_on_random_cases(self):
        gen = np.random.default_rng(20260611)
        timeouts = 0
        for _ in range(400):
            r_min = float(10 ** gen.uniform(2, 5))
            r_max = r_min * float(10 ** gen.uniform(0.05, 2))
            noisy = gen.random() < 0.3
            m = DeviceModel(r_min=r_min, r_max=r_max,
                            step_fraction=float(gen.uniform(0.01, 0.6)),
                            noise_sigma_rel=float(gen.uniform(0, 0.02)) if noisy else 0.0)
            start, target = (float(x) for x in gen.uniform(r_min, r_max, 2))
            if gen.random() < 0.2:
                target = float(gen.choice([r_min, r_max]))
            tol_rel = float(10 ** gen.uniform(-7, -1))
            max_pulses = int(gen.integers(0, 80))
            seed = int(gen.integers(2 ** 32)) if noisy else None
            args = (MemristorState(start, m), target, tol_rel, max_pulses, seed)
            got = _programming_outcome(program_to_target, *args)
            assert got == _programming_outcome(reference_program_to_target, *args), args
            timeouts += got[0][0] == "ProgramTimeoutError"
        assert 20 < timeouts < 380  # both outcomes are well represented


class TestDeviceModel:
    @pytest.mark.parametrize("v", [0.0, -1.0, float("nan"), float("inf")])
    def test_programming_threshold_must_be_finite_and_positive(self, v):
        with pytest.raises(ValueError, match="v_prog_threshold"):
            DeviceModel(v_prog_threshold=v)

    def test_any_threshold_programs_the_same(self):
        # program_to_target pulses at the threshold itself: every pulse at or
        # past it moves one full step, so the threshold never changes a plan
        high = program_to_target(state(20e3, v_prog_threshold=7.5), 60e3)
        usual = program_to_target(state(20e3), 60e3)
        assert (high.state.resistance, high.pulses) == (usual.state.resistance, usual.pulses)
