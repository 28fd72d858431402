import math

import numpy as np
import pytest

from repdtc.disorder import (
    CNOT_SIGNS,
    IDEAL_X,
    IDEAL_ZX,
    DisorderSpec,
    SeedPlan,
    sample_error_fraction,
    sample_init_jitter,
    sample_model_params,
)
from repdtc.harness import ExperimentConfig


class TestSeedPlan:
    def test_same_address_same_stream(self):
        plan = SeedPlan(42)
        a = plan.stream(3, "J/c0/b1").uniform(size=5)
        b = plan.stream(3, "J/c0/b1").uniform(size=5)
        assert np.array_equal(a, b)

    def test_purpose_separates_streams(self):
        plan = SeedPlan(42)
        a = plan.stream(3, "J/c0/b1").uniform()
        b = plan.stream(3, "J/c0/b2").uniform()
        assert a != b

    def test_realization_separates_streams(self):
        plan = SeedPlan(42)
        assert plan.stream(0, "x").uniform() != plan.stream(1, "x").uniform()

    def test_master_seed_separates_plans(self):
        a = SeedPlan(1).stream(0, "x").uniform()
        b = SeedPlan(2).stream(0, "x").uniform()
        assert a != b

    def test_value_shortcut(self):
        plan = SeedPlan(7)
        v = plan.value(0, "p", 2.0, 3.0)
        assert 2.0 <= v <= 3.0
        assert v == plan.value(0, "p", 2.0, 3.0)


class TestDisorderSpec:
    def test_interval_endpoints(self):
        spec = DisorderSpec(1.5, 0.5)
        assert spec.low == 1.0 and spec.high == 2.0

    def test_draws_stay_inside(self):
        spec = DisorderSpec(2.5, 0.5)
        plan = SeedPlan(9)
        draws = [spec.draw(plan, r, "J/c0/b0") for r in range(200)]
        assert all(2.0 <= d <= 3.0 for d in draws)
        assert np.std(draws) > 0.1

    def test_zero_width_is_constant(self):
        spec = DisorderSpec(0.7, 0.0)
        plan = SeedPlan(9)
        assert spec.draw(plan, 0, "x") == 0.7

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            DisorderSpec(1.0, -0.1)


class TestErrorFraction:
    def test_signed_mode_hits_both_signs(self):
        stream = np.random.default_rng(11)
        draws = [sample_error_fraction(stream, 0.05, 0.10, True) for _ in range(300)]
        assert all(0.05 <= abs(d) <= 0.10 for d in draws)
        assert any(d < 0 for d in draws) and any(d > 0 for d in draws)

    def test_unsigned_mode_is_positive(self):
        stream = np.random.default_rng(11)
        draws = [sample_error_fraction(stream, 0.05, 0.10, False) for _ in range(100)]
        assert all(0.05 <= d <= 0.10 for d in draws)

    def test_zero_interval(self):
        stream = np.random.default_rng(1)
        assert sample_error_fraction(stream, 0.0, 0.0, True) == 0.0


def u4_disorder(**kw):
    """A 2x4 u4 run description; only its parameter fields matter here.
    Without an error fraction, gate angles come from zero-width specs at
    their ideal values."""
    base = dict(
        name="disorder",
        model="u4",
        chains=2,
        sites=4,
        realizations=1,
        cycles=8,
        seed=0,
        coupling_specs=(DisorderSpec(1.5, 0.5), DisorderSpec(2.5, 0.5)),
    )
    if "error_fraction" not in kw:
        base.update(x_spec=DisorderSpec(IDEAL_X), cnot_spec=DisorderSpec(IDEAL_ZX))
    base.update(kw)
    return ExperimentConfig(**base)


class TestSampleModelParams:
    def test_shapes_u4(self):
        disorder = u4_disorder(
            x_spec=DisorderSpec(1.125 * IDEAL_X, 0.025 * IDEAL_X),
            cnot_spec=DisorderSpec(0.925 * IDEAL_ZX, 0.025 * IDEAL_ZX),
        )
        params = sample_model_params(disorder, SeedPlan(11), 0)
        assert params.couplings.shape == (2, 3)
        assert params.x_field.shape == (4,)
        assert len(params.cnots) == 1
        assert params.long_range is None
        assert params.scales == ()

    def test_couplings_respect_per_chain_intervals(self):
        disorder = u4_disorder()
        plan = SeedPlan(5)
        for r in range(50):
            params = sample_model_params(disorder, plan, r)
            assert np.all(params.couplings[0] >= 1.0)
            assert np.all(params.couplings[0] <= 2.0)
            assert np.all(params.couplings[1] >= 2.0)
            assert np.all(params.couplings[1] <= 3.0)

    def test_cnot_components_draw_independently(self):
        disorder = u4_disorder(cnot_spec=DisorderSpec(0.925 * IDEAL_ZX, 0.025 * IDEAL_ZX))
        params = sample_model_params(disorder, SeedPlan(11), 0)
        cp = params.cnots[0]
        assert not np.allclose(np.abs(cp.zx), np.abs(cp.z))
        assert not np.allclose(np.abs(cp.z), np.abs(cp.x))

    def test_cnot_component_signs(self):
        disorder = u4_disorder(error_fraction=(0.05, 0.10))
        params = sample_model_params(disorder, SeedPlan(11), 3)
        cp = params.cnots[0]
        assert np.all(np.sign(cp.zx) == CNOT_SIGNS["zx"])
        assert np.all(np.sign(cp.z) == CNOT_SIGNS["z"])
        assert np.all(np.sign(cp.x) == CNOT_SIGNS["x"])

    def test_error_fraction_bounds_gate_angles(self):
        disorder = u4_disorder(error_fraction=(0.05, 0.10))
        for r in range(30):
            params = sample_model_params(disorder, SeedPlan(2), r)
            ratio = np.abs(params.x_field) / IDEAL_X - 1.0
            assert np.all(np.abs(ratio) >= 0.05 - 1e-12)
            assert np.all(np.abs(ratio) <= 0.10 + 1e-12)

    def test_long_range_lower_triangle(self):
        params = sample_model_params(u4_disorder(model="u4lr"), SeedPlan(11), 0)
        lr = params.long_range
        assert lr.shape == (2, 4, 4)
        for c in range(2):
            for j in range(4):
                for k in range(4):
                    if k < j:
                        assert lr[c][j][k] != 0.0
                    else:
                        assert lr[c][j][k] == 0.0

    def test_long_range_draws_no_nearest_neighbor_couplings(self):
        lr = sample_model_params(u4_disorder(model="u4lr"), SeedPlan(11), 0)
        nn = sample_model_params(u4_disorder(), SeedPlan(11), 0)
        assert lr.couplings is None
        assert nn.couplings.shape == (2, 3)

    def test_u3_has_three_cnot_layers(self):
        disorder = u4_disorder(
            model="u3",
            chains=3,
            sites=2,
            cycles=6,
            coupling_specs=tuple(DisorderSpec(1.0, 0.5) for _ in range(3)),
        )
        params = sample_model_params(disorder, SeedPlan(1), 0)
        assert len(params.cnots) == 3

    def test_u2n_scale_layer_count(self):
        disorder = u4_disorder(
            model="u2n",
            chains=4,
            sites=2,
            cycles=16,
            cnot_spec=None,
            scale_spec=DisorderSpec(1.0),
            coupling_specs=tuple(DisorderSpec(1.0, 0.5) for _ in range(4)),
        )
        params = sample_model_params(disorder, SeedPlan(1), 0)
        assert len(params.scales) == 3

    def test_realizations_reproducible_and_distinct(self):
        disorder = u4_disorder(x_spec=DisorderSpec(IDEAL_X, 0.1))
        plan = SeedPlan(11)
        a = sample_model_params(disorder, plan, 5)
        b = sample_model_params(disorder, plan, 5)
        c = sample_model_params(disorder, plan, 6)
        assert np.array_equal(a.couplings, b.couplings)
        assert np.array_equal(a.x_field, b.x_field)
        assert not np.array_equal(a.couplings, c.couplings)


class TestInitJitter:
    def test_zero_width_is_exact_zero(self):
        jitter = sample_init_jitter(SeedPlan(1), 0, 8, 0.0)
        assert np.array_equal(jitter, np.zeros(8))

    def test_within_half_width(self):
        jitter = sample_init_jitter(SeedPlan(1), 3, 16, 0.005)
        assert jitter.shape == (16,)
        assert np.all(np.abs(jitter) <= 0.005)
        assert np.any(jitter != 0.0)

    def test_per_qubit_streams_reproducible(self):
        a = sample_init_jitter(SeedPlan(4), 2, 8, 0.01)
        b = sample_init_jitter(SeedPlan(4), 2, 8, 0.01)
        assert np.array_equal(a, b)


class TestIdealConstants:
    def test_ideal_values(self):
        assert IDEAL_X == pytest.approx(math.pi / 2)
        assert IDEAL_ZX == pytest.approx(math.pi / 4)
