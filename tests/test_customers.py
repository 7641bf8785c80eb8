import math
import random
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voltmarket import (
    Battery,
    CustomerSpec,
    cooperative_adjustment,
    customer_cost,
    customers,
    dp_schedule,
    elastic_demand,
    storage_demand,
)

from .helpers import (
    dyadic,
    elastic_spec,
    enumerate_plans,
    make_battery,
    oracle_best_cost,
    oracle_best_first_deltas,
    oracle_draw,
    reference_first_move,
    reference_schedule,
    storage_spec,
)


def _window(rnd: random.Random, steps: int, kind: str, hi: float) -> list[float]:
    if kind == "zero":
        return [0.0] * steps
    if kind == "dyadic":
        return [rnd.randint(0, int(4 * hi)) / 4.0 for _ in range(steps)]
    return [rnd.uniform(0.0, hi) for _ in range(steps)]


def _random_battery(rnd: random.Random) -> tuple[Battery, int]:
    """A battery and SOC level count. Dyadic batteries have their rates on the
    grid; an even number of levels puts capacity/2 off the grid. Half the
    batteries have at most the example config's 3 levels."""
    levels = rnd.randint(2, rnd.choice((3, 6)))
    if rnd.random() < 0.5:
        spacing = rnd.randint(1, 8) / 4.0
        battery = Battery(
            capacity=(levels - 1) * spacing,
            max_charge_rate=rnd.randint(1, levels - 1) * spacing,
            max_discharge_rate=rnd.randint(1, levels - 1) * spacing,
            charge_efficiency=rnd.choice([0.5, 0.75, 1.0]),
            discharge_efficiency=rnd.choice([0.5, 0.75, 1.0]),
            soc=0.0,
        )
    else:
        battery = Battery(
            capacity=rnd.uniform(0.5, 6.0),
            max_charge_rate=rnd.uniform(0.2, 4.0),
            max_discharge_rate=rnd.uniform(0.2, 4.0),
            charge_efficiency=rnd.uniform(0.6, 1.0),
            discharge_efficiency=rnd.uniform(0.6, 1.0),
            soc=0.0,
        )
    return battery, levels


def _random_instance(rnd: random.Random, batteries: list[tuple[Battery, int]]):
    """One DP input on one of a pool's batteries, as in a scenario. Dyadic
    windows are exact in float and produce ties. Half the windows are at most
    the example config's 3 steps long."""
    battery, levels = rnd.choice(batteries)
    battery = replace(
        battery,
        soc=rnd.choice(
            [0.0, battery.capacity / 2.0, battery.capacity, rnd.uniform(0.0, battery.capacity)]
        ),
    )
    steps = rnd.randint(1, rnd.choice((3, 6)))
    kinds = ("zero", "dyadic", "dyadic", "uniform", "uniform")
    prices = _window(rnd, steps, rnd.choice(kinds), 4.0)
    baselines = _window(rnd, steps, rnd.choice(kinds), 3.0)
    peak_weight = rnd.choice([0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 1.0, rnd.uniform(0.0, 0.3)])
    if rnd.random() < 0.5:
        prices, baselines = np.asarray(prices), np.asarray(baselines)
    return prices, baselines, battery, levels, peak_weight


def _assert_equals_reference(prices, baselines, battery, levels, peak_weight):
    """dp_schedule's plan and storage_demand's first move equal the scalar
    reference's exactly."""
    deltas, indices = reference_schedule(prices, baselines, battery, levels, peak_weight)
    plan = dp_schedule(prices, baselines, battery, levels, peak_weight)
    assert plan.tolist() == deltas.tolist()

    spec = storage_spec(tuple(baselines), battery, peak_weight=peak_weight, soc_levels=levels)
    assert storage_demand(spec, prices, baselines, battery.soc) == (
        reference_first_move(battery, levels, baselines[0], deltas, indices)
    )


class TestElasticDemand:
    def test_reference_price_gives_baseline(self):
        assert elastic_demand(10.0, 0.15, -0.7, 0.15) == pytest.approx(10.0)

    def test_zero_elasticity_is_inelastic(self):
        for price in (0.01, 0.15, 0.60):
            assert elastic_demand(10.0, price, 0.0, 0.15) == pytest.approx(10.0)

    def test_direct_evaluation(self):
        # 10 * 4 ** -0.5 = 5, inside the clamp band
        assert elastic_demand(10.0, 0.4, -0.5, 0.1) == pytest.approx(5.0)

    def test_zero_price_is_floored(self):
        demand = elastic_demand(10.0, 0.0, -0.5, 0.1)
        assert demand == elastic_demand(10.0, 0.001, -0.5, 0.1)
        assert demand <= 20.0

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-3.0, max_value=0.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_monotone_and_clamped(self, baseline, elasticity, p_low, p_high):
        low, high = sorted((p_low, p_high))
        d_low = elastic_demand(baseline, low, elasticity, 0.5)
        d_high = elastic_demand(baseline, high, elasticity, 0.5)
        assert d_high <= d_low + 1e-12
        for d in (d_low, d_high):
            assert 0.2 * baseline - 1e-12 <= d <= 2.0 * baseline + 1e-12

    @pytest.mark.parametrize(
        "field, args",
        [
            ("baseline", (math.nan, 0.1, -0.5, 0.15)),
            ("price", (1.0, math.nan, -0.5, 0.15)),
            ("elasticity", (1.0, 0.1, math.nan, 0.15)),
            ("reference_price", (1.0, 0.1, -0.5, math.nan)),
            ("reference_price", (1.0, 0.1, -0.5, math.inf)),
        ],
    )
    def test_rejects_non_finite_inputs_by_name(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must"):
            elastic_demand(*args)

    def test_rejects_positive_elasticity(self):
        with pytest.raises(ValueError):
            elastic_demand(10.0, 0.1, 0.5, 0.1)


class TestCustomerCost:
    def test_dot_product(self):
        assert customer_cost([1.0, 1.0], [2.0, 3.0], 0.0) == 5.0

    def test_zero_load(self):
        assert customer_cost([0.0, 0.0, 0.0], [9.0, 1.0, 4.0], 7.0) == 0.0

    def test_peak_term(self):
        assert customer_cost([2.0, 4.0], [1.0, 1.0], 10.0) == 46.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            customer_cost([1.0], [1.0, 2.0], 0.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            customer_cost([], [], 0.0)


class TestDpSchedule:
    def test_constant_prices_idle_from_empty(self):
        battery = make_battery(capacity=4.0, rate=2.0, eta_c=1.0, eta_d=1.0, soc=0.0)
        plan = dp_schedule([1.0] * 4, [2.0] * 4, battery, 5, 0.0)
        assert plan.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_constant_prices_never_charges_with_losses(self):
        # Stored energy may be spent (it has no terminal value) but buying
        # more at constant prices with efficiency < 1 can never pay off.
        battery = make_battery(capacity=4.0, rate=2.0, eta_c=0.9, eta_d=0.9, soc=2.0)
        plan = dp_schedule([1.0] * 3, [2.0] * 3, battery, 5, 0.0)
        assert all(delta <= 0.0 for delta in plan)
        draws = [oracle_draw(battery, 2.0, d) for d in plan]
        assert customer_cost(draws, [1.0] * 3, 0.0) == oracle_best_cost(
            [1.0] * 3, [2.0] * 3, battery, 5, 0.0
        )

    def test_profitable_shift(self):
        # Efficiency product * price ratio = 0.81 * 10 > 1: worth cycling.
        battery = make_battery(capacity=1.0, rate=1.0, eta_c=0.9, eta_d=0.9, soc=0.0)
        plan = dp_schedule([1.0, 10.0], [0.0, 2.0], battery, 2, 0.0)
        assert plan[0] == pytest.approx(1.0)
        assert plan[1] == pytest.approx(-1.0)
        best = oracle_best_cost([1.0, 10.0], [0.0, 2.0], battery, 2, 0.0)
        draws = [oracle_draw(battery, b, d) for b, d in zip([0.0, 2.0], plan)]
        assert customer_cost(draws, [1.0, 10.0], 0.0) == best

    def test_empty_window(self):
        with pytest.raises(ValueError):
            dp_schedule([], [], make_battery(), 3, 0.0)

    def test_rejects_single_soc_level(self):
        with pytest.raises(ValueError):
            dp_schedule([1.0], [1.0], make_battery(), 1, 0.0)

    def test_rejects_negative_or_nan_peak_weight(self):
        for peak_weight in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="peak_weight"):
                dp_schedule([1.0], [1.0], make_battery(), 3, peak_weight)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_bruteforce_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(1, 5))
        levels = int(rng.integers(2, 6))
        spacing = dyadic(rng, 1, 8)
        capacity = (levels - 1) * spacing
        battery = Battery(
            capacity=capacity,
            max_charge_rate=int(rng.integers(1, levels)) * spacing,
            max_discharge_rate=int(rng.integers(1, levels)) * spacing,
            charge_efficiency=float(rng.choice([0.5, 0.75, 1.0])),
            discharge_efficiency=float(rng.choice([0.5, 0.75, 1.0])),
            soc=int(rng.integers(0, levels)) * spacing,
        )
        prices = [dyadic(rng, 1, 16) for _ in range(steps)]
        baselines = [dyadic(rng, 0, 12) for _ in range(steps)]
        peak_weight = float(rng.choice([0.0, 0.5, 1.0, 2.0]))

        plan = dp_schedule(prices, baselines, battery, levels, peak_weight)
        draws = [oracle_draw(battery, b, d) for b, d in zip(baselines, plan)]
        cost = customer_cost(draws, prices, peak_weight)
        assert cost == oracle_best_cost(prices, baselines, battery, levels, peak_weight)

    def test_equal_peak_totals_keep_the_smaller_cap(self):
        # Both plans cost 7.25 in total: 4.75 + 2.5 at cap 2.5, 4.5 + 2.75 at
        # cap 2.75. The smaller cap wins.
        battery = Battery(0.5, 0.25, 0.25, 0.75, 1.0, soc=0.25)
        prices, baselines = [1.5, 1.0, 2.75], [0.25, 2.75, 0.75]
        plan = dp_schedule(prices, baselines, battery, 3, 1.0)
        assert plan.tolist() == [0.25, -0.25, -0.25]
        assert plan.tolist() == reference_schedule(prices, baselines, battery, 3, 1.0)[0].tolist()
        draws = [oracle_draw(battery, b, d) for b, d in zip(baselines, plan)]
        assert customer_cost(draws, prices, 1.0) == oracle_best_cost(
            prices, baselines, battery, 3, 1.0
        )

    def test_rejects_infinite_peak_weight(self):
        with pytest.raises(ValueError, match="peak_weight"):
            dp_schedule([1.0], [1.0], make_battery(), 3, math.inf)
        with pytest.raises(ValueError, match="peak_weight"):
            storage_spec((1.0,), make_battery(), peak_weight=math.inf)

    def test_overflowing_peak_term_still_plans(self):
        # 1e308 * 10 overflows every total to +inf, and the cap below the
        # peak needs a discharge the empty battery cannot make.
        battery = make_battery(capacity=2.0, rate=1.0, soc=0.0)
        plan = dp_schedule([1.0, 1.0], [10.0, 10.0], battery, 3, 1e308)
        assert len(plan) == 2

    def test_caps_sweep_downward_below_the_uncapped_peak(self, monkeypatch):
        # Every solve runs the uncapped DP first; every capped sweep after it
        # is below that plan's peak draw, in strictly descending order, and
        # feasible: at or above the least peak any plan can reach.
        solve = customers._solve_capped
        sweeps: list[tuple[float, float, list, float]] = []

        def recording(*args):
            cost, plan, least_peak = solve(*args)
            sweeps.append((args[-1], cost, plan, least_peak))
            return cost, plan, least_peak

        monkeypatch.setattr(customers, "_solve_capped", recording)
        rnd = random.Random(7)
        batteries = [_random_battery(rnd) for _ in range(16)]
        capped = 0
        for _ in range(500):
            prices, baselines, battery, levels, peak_weight = _random_instance(rnd, batteries)
            sweeps.clear()
            dp_schedule(prices, baselines, battery, levels, peak_weight)
            (first, _, plan, least_peak), caps = sweeps[0], [s[0] for s in sweeps[1:]]
            assert first == math.inf
            if peak_weight == 0.0:
                assert caps == []
            peak = max(draw for _, _, draw in plan)
            assert all(cap < peak for cap in caps)
            assert all(a > b for a, b in zip(caps, caps[1:]))
            assert all(math.isfinite(cost) for _, cost, _, _ in sweeps[1:])
            assert all(cap >= least_peak for cap in caps)
            capped += len(caps)
        assert capped > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_least_peak_is_the_least_peak_of_every_plan(self, seed, monkeypatch):
        solve = customers._solve_capped
        least_peaks: list[float] = []

        def recording(*args):
            result = solve(*args)
            if args[-1] == math.inf:
                least_peaks.append(result[2])
            return result

        monkeypatch.setattr(customers, "_solve_capped", recording)
        rnd = random.Random(seed)
        batteries = [_random_battery(rnd) for _ in range(4)]
        for _ in range(25):
            prices, baselines, battery, levels, peak_weight = _random_instance(rnd, batteries)
            least_peaks.clear()
            dp_schedule(prices, baselines, battery, levels, peak_weight)
            assert least_peaks == [
                min(max(draws) for _, draws in enumerate_plans(prices, baselines, battery, levels))
            ]

    @pytest.mark.parametrize("peak_weight", [0.0, 1.0])
    @pytest.mark.parametrize(
        "prices, baselines",
        [
            ([math.nan, 1.0], [1.0, 1.0]),
            ([1.0, math.inf], [1.0, 1.0]),
            ([1.0, 1.0], [math.nan, 1.0]),
            ([1.0, -math.inf], [1.0, 1.0]),
        ],
    )
    def test_non_finite_window_fails_loudly(self, prices, baselines, peak_weight):
        spec = storage_spec((1.0, 1.0), make_battery(), peak_weight=peak_weight)
        with pytest.raises(ValueError, match="price_window .* baseline_window"):
            storage_demand(spec, prices, baselines, 2.0)

    def test_equals_scalar_reference_exactly(self):
        rnd = random.Random(2024)
        batteries = [_random_battery(rnd) for _ in range(64)]
        for _ in range(5000):
            _assert_equals_reference(*_random_instance(rnd, batteries))

    def test_flat_price_windows_equal_scalar_reference_exactly(self):
        # ResponseTable.respond announces one price p > 0 over the whole
        # window, which the random windows above rarely draw.
        rnd = random.Random(2026)
        batteries = [_random_battery(rnd) for _ in range(64)]
        for _ in range(3000):
            _, baselines, battery, levels, peak_weight = _random_instance(rnd, batteries)
            baselines = tuple(float(b) for b in baselines)
            price = rnd.randint(1, 16) / 4.0 if rnd.random() < 0.5 else rnd.uniform(0.01, 4.0)
            prices = (price,) * len(baselines)
            _assert_equals_reference(prices, baselines, battery, levels, peak_weight)


class TestStorageDemand:
    def test_single_step_minimizes_one_step_cost(self):
        spec = storage_spec((3.0,), make_battery(soc=2.0), soc_levels=5)
        draw, new_soc = storage_demand(spec, [0.2], [3.0], 2.0)
        best, firsts = oracle_best_first_deltas([0.2], [3.0], spec.battery, 5, 0.0)
        assert draw == pytest.approx(
            min(oracle_draw(spec.battery, 3.0, d) for d in firsts)
        )
        assert 0.0 <= new_soc <= spec.battery.capacity

    def test_full_battery_does_not_charge_into_falling_prices(self):
        battery = make_battery(capacity=4.0, rate=2.0, soc=4.0)
        spec = storage_spec((2.0, 2.0, 2.0), battery, soc_levels=5)
        prices = [0.5, 0.3, 0.1]
        draw, _ = storage_demand(spec, prices, [2.0, 2.0, 2.0], 4.0)
        _, firsts = oracle_best_first_deltas(prices, [2.0, 2.0, 2.0], battery, 5, 0.0)
        assert all(f <= 0.0 for f in firsts)
        assert draw <= 2.0

    def test_idle_keeps_soc(self):
        battery = make_battery(capacity=4.0, rate=2.0, eta_c=0.9, eta_d=0.9, soc=2.0)
        spec = storage_spec((2.0, 2.0), battery, soc_levels=5)
        draw, new_soc = storage_demand(spec, [0.1, 0.1], [2.0, 2.0], 2.0)
        assert draw == 2.0
        assert new_soc == 2.0

    def test_soc_stays_bounded_over_random_sequences(self):
        rng = np.random.default_rng(11)
        battery = make_battery(capacity=3.0, rate=1.5, soc=1.5)
        spec = storage_spec((1.0,) * 4, battery, soc_levels=4)
        soc = 1.5
        for _ in range(200):
            prices = rng.uniform(0.01, 0.5, size=3).tolist()
            baselines = rng.uniform(0.0, 4.0, size=3).tolist()
            draw, soc = storage_demand(spec, prices, baselines, soc)
            assert 0.0 <= soc <= battery.capacity
            assert draw >= 0.0

    def test_rejects_elastic_spec(self):
        with pytest.raises(ValueError):
            storage_demand(elastic_spec((1.0,)), [0.1], [1.0], 0.0)

    def test_solves_each_battery_with_its_own_limits(self):
        # The per-battery DP structure is memoized on the battery's values,
        # so two batteries that differ in one limit get their own plans.
        def battery(charge_rate: float) -> Battery:
            return Battery(4.0, charge_rate, 4.0, 1.0, 1.0, soc=0.0)

        prices, baselines = [0.1, 5.0], [1.0, 3.0]
        slow = storage_spec((1.0, 3.0), battery(1.0), soc_levels=5)
        fast = storage_spec((1.0, 3.0), battery(2.0), soc_levels=5)
        assert storage_demand(slow, prices, baselines, 0.0) == (2.0, 1.0)
        assert storage_demand(fast, prices, baselines, 0.0) == (3.0, 2.0)
        assert storage_demand(slow, prices, baselines, 0.0) == (2.0, 1.0)

    def test_rejects_soc_outside_battery(self):
        spec = storage_spec((1.0,), make_battery(capacity=4.0), soc_levels=5)
        for soc in (-0.5, 4.5):
            with pytest.raises(ValueError, match="soc must lie in"):
                storage_demand(spec, [0.1], [1.0], soc)

    def test_deterministic(self):
        spec = storage_spec((2.0, 3.0), soc_levels=5)
        a = storage_demand(spec, [0.3, 0.1], [2.0, 3.0], 2.0)
        b = storage_demand(spec, [0.3, 0.1], [2.0, 3.0], 2.0)
        assert a == b


class TestCooperativeAdjustment:
    def test_no_congestion_is_identity(self):
        out = cooperative_adjustment([3.0, 4.0], [5.0, 5.0], [True, True], 10.0)
        assert out.tolist() == [3.0, 4.0]

    def test_no_cooperative_customers_is_identity(self):
        out = cooperative_adjustment([8.0, 9.0], [5.0, 5.0], [False, False], 1.0)
        assert out.tolist() == [8.0, 9.0]

    def test_hand_computed_scaling(self):
        # Rigid share 5 each, flexible 7 each; factor (20 - 10) / 14 = 5/7.
        out = cooperative_adjustment([12.0, 12.0], [10.0, 10.0], [True, True], 20.0)
        assert out.tolist() == pytest.approx([10.0, 10.0])
        assert out.sum() == pytest.approx(20.0)

    def test_independents_untouched(self):
        out = cooperative_adjustment(
            [12.0, 12.0, 9.0], [10.0, 10.0, 6.0], [True, True, False], 20.0
        )
        assert out[2] == 9.0
        assert out[0] == out[1] < 12.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0),
                st.floats(min_value=0.1, max_value=50.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0.0, max_value=120.0),
    )
    def test_never_increases_never_below_half_baseline(self, rows, capacity):
        demands = [r[0] for r in rows]
        baselines = [r[1] for r in rows]
        flags = [r[2] for r in rows]
        out = cooperative_adjustment(demands, baselines, flags, capacity)
        for before, after, base in zip(demands, out, baselines):
            assert after <= before + 1e-9
            assert after >= min(before, 0.5 * base) - 1e-9

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            cooperative_adjustment([1.0], [1.0], [True], -1.0)

    def test_rejects_nan_capacity_signal(self):
        with pytest.raises(ValueError, match="capacity_signal"):
            cooperative_adjustment([3.0, 3.0], [2.0, 2.0], [True, False], math.nan)


# An elastic customer with one range problem, in baseline_load.
BAD_LOAD_ELASTIC = dict(
    kind="elastic", cooperative=False, baseline_load=(-1.0,), reference_price=0.1, elasticity=-0.5
)


class TestSpecValidation:
    def test_storage_requires_battery(self):
        with pytest.raises(ValueError):
            CustomerSpec(
                kind="storage",
                cooperative=False,
                baseline_load=(1.0,),
                reference_price=0.1,
            )

    def test_elastic_rejects_battery(self):
        with pytest.raises(ValueError):
            CustomerSpec(
                kind="elastic",
                cooperative=False,
                baseline_load=(1.0,),
                reference_price=0.1,
                battery=make_battery(),
                elasticity=-0.5,
            )

    def test_battery_soc_bounds(self):
        with pytest.raises(ValueError):
            Battery(4.0, 1.0, 1.0, 0.9, 0.9, soc=5.0)

    def test_battery_names_every_problem_at_once(self):
        with pytest.raises(ValueError) as err:
            Battery(-1.0, 0.0, 1.0, 2.0, 0.9, soc=5.0)
        problems = str(err.value).split("; ")
        assert [p.split()[0] for p in problems] == [
            "capacity",
            "max_charge_rate",
            "charge_efficiency",
            "soc",
        ]

    def test_spec_names_every_problem_at_once(self):
        with pytest.raises(ValueError) as err:
            CustomerSpec(
                kind="elastic",
                cooperative=False,
                baseline_load=(-1.0,),
                reference_price=0.0,
                peak_weight=-1.0,
                battery=make_battery(),
                elasticity=0.5,
            )
        problems = str(err.value).split("; ")
        assert [p.split()[0] for p in problems] == [
            "baseline_load",
            "reference_price",
            "peak_weight",
            "elastic",
            "elasticity",
        ]

    def test_spec_names_a_non_numeric_baseline_among_the_others(self):
        with pytest.raises(ValueError) as err:
            CustomerSpec(
                kind="elastic",
                cooperative=False,
                baseline_load=("x",),
                reference_price=-1.0,
                elasticity=-0.5,
            )
        problems = str(err.value).split("; ")
        assert [p.split()[0] for p in problems] == ["baseline_load", "reference_price"]

    @pytest.mark.parametrize("load", ["12", b"12"], ids=["str", "bytes"])
    def test_spec_names_a_string_baseline_among_the_others(self, load):
        with pytest.raises(ValueError) as err:
            CustomerSpec(
                kind="elastic",
                cooperative=False,
                baseline_load=load,
                reference_price=-1.0,
                elasticity=-0.5,
            )
        problems = str(err.value).split("; ")
        assert [p.split()[0] for p in problems] == ["baseline_load", "reference_price"]

    @pytest.mark.parametrize(
        "build, fields_named, message",
        [
            (
                lambda: CustomerSpec(**{**BAD_LOAD_ELASTIC, "reference_price": "x"}),
                ["baseline_load", "reference_price"],
                "reference_price must be a number, got 'x'",
            ),
            (
                lambda: CustomerSpec(**{**BAD_LOAD_ELASTIC, "peak_weight": "x"}),
                ["baseline_load", "peak_weight"],
                "peak_weight must be a number, got 'x'",
            ),
            (
                lambda: CustomerSpec(**{**BAD_LOAD_ELASTIC, "elasticity": "x"}),
                ["baseline_load", "elasticity"],
                "elasticity must be a number, got 'x'",
            ),
            (
                lambda: CustomerSpec(
                    **{
                        **BAD_LOAD_ELASTIC,
                        "kind": "storage",
                        "elasticity": None,
                        "battery": make_battery(),
                        "soc_levels": "3",
                    }
                ),
                ["baseline_load", "soc_levels"],
                "soc_levels must be an integer, got '3'",
            ),
            (
                lambda: Battery("x", 1.0, 1.0, 2.0, 0.9, 0.5),
                ["capacity", "charge_efficiency"],
                "capacity must be a number, got 'x'",
            ),
            (
                lambda: Battery(4.0, 0.0, 1.0, 0.9, 0.9, "x"),
                ["max_charge_rate", "soc"],
                "soc must be a number, got 'x'",
            ),
        ],
        ids=["reference_price", "peak_weight", "elasticity", "soc_levels", "capacity", "soc"],
    )
    def test_non_numeric_field_is_named_among_the_others(self, build, fields_named, message):
        with pytest.raises(ValueError) as err:
            build()
        problems = str(err.value).split("; ")
        assert [p.split()[0] for p in problems] == fields_named
        assert message in problems

    def test_spec_skips_dependent_checks(self):
        # An unknown kind has no kind-specific checks, and a missing
        # elasticity has no sign to check.
        with pytest.raises(ValueError) as err:
            CustomerSpec(kind="solar", cooperative=False, baseline_load=(1.0,), reference_price=0.1)
        assert str(err.value) == "kind must be one of ('storage', 'elastic'), got 'solar'"
        with pytest.raises(ValueError) as err:
            CustomerSpec(kind="elastic", cooperative=False, baseline_load=(1.0,), reference_price=0.1)
        assert str(err.value) == "elastic customer requires an elasticity"

    def test_battery_is_frozen(self):
        battery = make_battery()
        for field in fields(Battery):
            with pytest.raises(FrozenInstanceError):
                setattr(battery, field.name, 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacity", math.inf),
            ("capacity", math.nan),
            ("max_charge_rate", math.nan),
            ("max_charge_rate", 0.0),
            ("max_discharge_rate", math.nan),
            ("max_discharge_rate", -1.0),
        ],
    )
    def test_battery_rejects_bad_field_by_name(self, field, value):
        fields = dict(
            capacity=4.0,
            max_charge_rate=1.0,
            max_discharge_rate=1.0,
            charge_efficiency=0.9,
            discharge_efficiency=0.9,
            soc=0.0,
        )
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must"):
            Battery(**fields)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reference_price", math.nan),
            ("reference_price", math.inf),
            ("elasticity", math.nan),
        ],
    )
    def test_spec_rejects_non_finite_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            replace(elastic_spec((1.0,)), **{field: value})
