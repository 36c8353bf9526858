"""Tests for repro.platform.speeds."""

import numpy as np
import pytest

from repro.platform import (
    SCENARIO_NAMES,
    DynamicSpeedModel,
    Platform,
    StaticSpeedModel,
    heterogeneity_speeds,
    make_scenario,
    set_speeds,
    uniform_speeds,
)


class TestUniformSpeeds:
    def test_range(self):
        s = uniform_speeds(1000, 10, 100, rng=0)
        assert s.size == 1000
        assert s.min() >= 10 and s.max() <= 100

    def test_reproducible(self):
        assert np.array_equal(uniform_speeds(10, rng=5), uniform_speeds(10, rng=5))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            uniform_speeds(5, 100, 10)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            uniform_speeds(0)


class TestHeterogeneitySpeeds:
    def test_zero_h_homogeneous(self):
        s = heterogeneity_speeds(7, 0.0, rng=0)
        assert np.allclose(s, 100.0)

    def test_range(self):
        s = heterogeneity_speeds(500, 40.0, rng=1)
        assert s.min() >= 60.0 and s.max() <= 140.0

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            heterogeneity_speeds(5, 100.0)
        with pytest.raises(ValueError):
            heterogeneity_speeds(5, -1.0)


class TestSetSpeeds:
    def test_values_from_set(self):
        classes = (80.0, 100.0, 150.0)
        s = set_speeds(200, classes, rng=0)
        assert set(np.unique(s)).issubset(set(classes))

    def test_all_classes_appear(self):
        s = set_speeds(500, (40, 80, 100, 150, 200), rng=0)
        assert set(np.unique(s)) == {40.0, 80.0, 100.0, 150.0, 200.0}

    def test_rejects_bad_classes(self):
        with pytest.raises(ValueError):
            set_speeds(5, ())
        with pytest.raises(ValueError):
            set_speeds(5, (1.0, -2.0))


class TestStaticSpeedModel:
    def test_duration(self, small_platform, rng):
        m = StaticSpeedModel()
        m.reset(small_platform, rng)
        assert m.duration(0, 10) == pytest.approx(10.0)  # speed 1
        assert m.duration(3, 10) == pytest.approx(2.5)  # speed 4
        assert m.duration(2, 0) == 0.0

    def test_use_before_reset(self):
        m = StaticSpeedModel()
        with pytest.raises(RuntimeError):
            m.duration(0, 1)
        with pytest.raises(RuntimeError):
            m.current_speed(0)

    def test_negative_tasks(self, small_platform, rng):
        m = StaticSpeedModel()
        m.reset(small_platform, rng)
        with pytest.raises(ValueError):
            m.duration(0, -1)

    def test_current_speed(self, small_platform, rng):
        m = StaticSpeedModel()
        m.reset(small_platform, rng)
        assert m.current_speed(1) == 2.0


class TestDynamicSpeedModel:
    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            DynamicSpeedModel(0.0)
        with pytest.raises(ValueError):
            DynamicSpeedModel(1.0)
        with pytest.raises(ValueError):
            DynamicSpeedModel(-0.1)

    def test_first_task_at_base_speed(self, rng):
        pf = Platform([10.0])
        m = DynamicSpeedModel(0.05)
        m.reset(pf, rng)
        d = m.duration(0, 1)
        assert d == pytest.approx(0.1)  # first task before any perturbation

    def test_speed_evolves(self, rng):
        pf = Platform([10.0])
        m = DynamicSpeedModel(0.2)
        m.reset(pf, rng)
        m.duration(0, 50)
        assert m.current_speed(0) != 10.0

    def test_duration_bounds(self, rng):
        """m tasks at jitter j must take between the extreme-walk bounds."""
        pf = Platform([10.0])
        m = DynamicSpeedModel(0.05)
        m.reset(pf, rng)
        n_tasks = 20
        d = m.duration(0, n_tasks)
        fastest = sum(1.0 / (10.0 * 1.05**t) for t in range(n_tasks))
        slowest = sum(1.0 / (10.0 * 0.95**t) for t in range(n_tasks))
        assert fastest <= d <= slowest

    def test_zero_tasks_free(self, rng):
        pf = Platform([10.0])
        m = DynamicSpeedModel(0.05)
        m.reset(pf, rng)
        assert m.duration(0, 0) == 0.0
        assert m.current_speed(0) == 10.0  # no perturbation applied

    def test_reset_restores_base(self, rng):
        pf = Platform([10.0])
        m = DynamicSpeedModel(0.2)
        m.reset(pf, rng)
        m.duration(0, 100)
        m.reset(pf, rng)
        assert m.current_speed(0) == 10.0

    def test_platform_not_mutated(self, rng):
        pf = Platform([10.0, 20.0])
        m = DynamicSpeedModel(0.2)
        m.reset(pf, rng)
        m.duration(0, 200)
        assert pf.speeds[0] == 10.0

    def test_use_before_reset(self):
        m = DynamicSpeedModel(0.1)
        with pytest.raises(RuntimeError):
            m.duration(0, 1)

    @staticmethod
    def _array_path(speeds, rng, jitter, worker, n_tasks):
        """The general cumulative-product duration, as reference."""
        s0 = speeds[worker]
        factors = 1.0 + rng.uniform(-jitter, jitter, size=n_tasks)
        cum = np.cumprod(factors)
        per_task = np.empty(n_tasks)
        per_task[0] = s0
        per_task[1:] = s0 * cum[:-1]
        np.maximum(per_task, 1e-9, out=per_task)
        speeds[worker] = max(s0 * cum[-1], 1e-9)
        return float(np.sum(1.0 / per_task))

    @pytest.mark.parametrize("jitter", [0.05, 0.2, 0.9])
    @pytest.mark.parametrize("seed", range(20))
    def test_one_task_matches_array_path(self, seed, jitter):
        # Tiny speeds exercise the floor on both the duration and the update.
        speeds = np.random.default_rng(seed).uniform(1e-12, 100.0, size=6)
        speeds[seed % 6] = 1e-12
        m = DynamicSpeedModel(jitter)
        fast_rng, ref_rng = np.random.default_rng(seed + 99), np.random.default_rng(seed + 99)
        m.reset(Platform(speeds), fast_rng)
        ref_speeds = speeds.copy()
        for k in range(50):
            worker = (k * 5) % 6
            got = m.duration(worker, 1)
            want = self._array_path(ref_speeds, ref_rng, jitter, worker, 1)
            assert type(got) is float and got == want
            assert [m.current_speed(w) for w in range(6)] == ref_speeds.tolist()
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_multi_task_matches_array_path(self):
        m = DynamicSpeedModel(0.2)
        ref_rng = np.random.default_rng(12345)
        m.reset(Platform([10.0, 30.0]), np.random.default_rng(12345))
        ref_speeds = np.array([10.0, 30.0])
        for worker, n_tasks in [(0, 3), (1, 1), (0, 7), (1, 2)]:
            assert m.duration(worker, n_tasks) == self._array_path(
                ref_speeds, ref_rng, 0.2, worker, n_tasks
            )

    def test_negative_task_count_rejected(self, rng):
        m = DynamicSpeedModel(0.1)
        m.reset(Platform([10.0]), rng)
        with pytest.raises(ValueError):
            m.duration(0, -1)


class TestScenarios:
    def test_names(self):
        assert set(SCENARIO_NAMES) == {"unif.1", "unif.2", "set.3", "set.5", "dyn.5", "dyn.20"}

    @pytest.mark.parametrize("name", ["unif.1", "unif.2", "set.3", "set.5", "dyn.5", "dyn.20"])
    def test_build(self, name):
        pf, model = make_scenario(name, 20, rng=0)
        assert pf.p == 20
        if name.startswith("dyn"):
            assert isinstance(model, DynamicSpeedModel)
        else:
            assert isinstance(model, StaticSpeedModel)

    def test_speed_ranges(self):
        pf, _ = make_scenario("unif.1", 300, rng=0)
        assert pf.speeds.min() >= 80 and pf.speeds.max() <= 120
        pf, _ = make_scenario("unif.2", 300, rng=0)
        assert pf.speeds.min() >= 50 and pf.speeds.max() <= 150

    def test_set_classes(self):
        pf, _ = make_scenario("set.3", 300, rng=0)
        assert set(np.unique(pf.speeds)).issubset({80.0, 100.0, 150.0})

    def test_dyn_jitters(self):
        _, m5 = make_scenario("dyn.5", 5, rng=0)
        _, m20 = make_scenario("dyn.20", 5, rng=0)
        assert m5.jitter == 0.05
        assert m20.jitter == 0.20

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("nope", 5)
