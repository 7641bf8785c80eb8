import math
from dataclasses import replace

import numpy as np
import pytest

import voltmarket.env
from voltmarket import (
    EpisodeLifecycleError,
    FeatureScaling,
    GridEnv,
    Horizon,
    PriceGrid,
    ResponseTable,
    Scenario,
    ScenarioValidationError,
    TrainConfig,
    WeatherSample,
    build_state_window,
    featurize,
    renewable_generation,
    storage_demand,
    train_policy,
    window_channels,
)

from .helpers import (
    constant_traces,
    elastic_spec,
    make_battery,
    oracle_best_first_deltas,
    oracle_draw,
    reference_customer_response,
    reference_state_window,
    reference_window_channels,
    small_scenario,
    storage_spec,
    varied_traces,
)


class TestRenewableGeneration:
    def test_no_resource(self):
        assert renewable_generation(WeatherSample(10.0, 0.0, 0.0), 100.0, 50.0, 60) == 0.0

    def test_rated_solar(self):
        assert renewable_generation(WeatherSample(10.0, 1.0, 0.0), 100.0, 0.0, 60) == 100.0

    def test_cubic_wind_curve(self):
        # 80 kW * (6/12)^3 = 10 kWh over a 60-minute step
        assert renewable_generation(WeatherSample(10.0, 0.0, 6.0), 0.0, 80.0, 60) == pytest.approx(10.0)

    def test_wind_capped_at_rated_speed(self):
        at_rated = renewable_generation(WeatherSample(10.0, 0.0, 12.0), 0.0, 80.0, 60)
        above = renewable_generation(WeatherSample(10.0, 0.0, 25.0), 0.0, 80.0, 60)
        assert at_rated == above == 80.0

    def test_timestep_scaling(self):
        half = renewable_generation(WeatherSample(10.0, 1.0, 0.0), 100.0, 0.0, 30)
        assert half == 50.0


class TestScenarioValidation:
    def test_collects_all_violations(self):
        with pytest.raises(ScenarioValidationError) as err:
            Scenario(
                customers=(),
                traces=constant_traces(3),
                horizon=Horizon(2, 60),
                episode_length=10,
                seed=1,
            )
        assert len(err.value.violations) == 2  # no customers + short traces

    def test_short_customer_baseline_flagged(self):
        with pytest.raises(ScenarioValidationError) as err:
            Scenario(
                customers=(elastic_spec((1.0, 2.0)),),
                traces=constant_traces(12),
                horizon=Horizon(1, 60),
                episode_length=8,
                seed=1,
            )
        assert any("baseline_load" in p for p in err.value.violations)


class TestReset:
    def test_deterministic(self):
        scenario = small_scenario()
        w1 = GridEnv(scenario).reset()
        w2 = GridEnv(scenario).reset()
        assert w1.demand.tolist() == w2.demand.tolist()
        assert w1.renewable.tolist() == w2.renewable.tolist()

    def test_degenerate_horizon(self):
        scenario = small_scenario(p=0)
        window = GridEnv(scenario).reset()
        assert window.window_length == 1

    def test_reset_after_episode_matches_fresh(self):
        scenario = small_scenario(episode_length=4)
        env = GridEnv(scenario)
        env.reset()
        for _ in range(4):
            env.step(0.2)
        again = env.reset()
        fresh = GridEnv(scenario).reset()
        assert again.demand.tolist() == fresh.demand.tolist()

    def test_preview_does_not_move_batteries(self):
        scenario = small_scenario(kinds=("storage",))
        env = GridEnv(scenario)
        env.reset()
        battery = scenario.customers[0].battery
        assert env.battery_soc(0) == battery.capacity / 2.0

    def test_starts_each_battery_at_its_own_soc(self):
        baseline = (2.0, 3.0, 1.0, 4.0, 2.0, 3.0)
        battery = make_battery(capacity=4.0, rate=2.0, soc=0.0)
        spec = storage_spec(baseline, battery, soc_levels=5)
        scenario = Scenario(
            customers=(spec,),
            traces=constant_traces(6),
            horizon=Horizon(1, 60),
            episode_length=4,
            seed=5,
        )
        env = GridEnv(scenario)
        env.reset()
        assert env.battery_soc(0) == 0.0
        draw, soc = storage_demand(spec, (0.2, 0.2), baseline[:2], 0.0)
        assert env.step(0.2).e_demand == draw
        assert env.battery_soc(0) == soc


class TestStep:
    def test_all_elastic_reference_price_gives_baselines(self):
        baseline = tuple([4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        scenario = Scenario(
            customers=(elastic_spec(baseline), elastic_spec(baseline)),
            traces=constant_traces(6, irradiance=1.0, solar_capacity_kw=100.0),
            horizon=Horizon(1, 60),
            episode_length=4,
            seed=3,
        )
        env = GridEnv(scenario)
        env.reset()
        for t in range(4):
            outcome = env.step(0.15)
            assert outcome.e_demand == pytest.approx(2 * baseline[t])

    def test_lifecycle(self):
        scenario = small_scenario(episode_length=3)
        env = GridEnv(scenario)
        with pytest.raises(EpisodeLifecycleError):
            env.step(0.1)
        env.reset()
        flags = [env.step(0.1).done for _ in range(3)]
        assert flags == [False, False, True]
        with pytest.raises(EpisodeLifecycleError):
            env.step(0.1)

    def test_episode_length_exact(self):
        scenario = small_scenario(episode_length=6)
        env = GridEnv(scenario)
        env.reset()
        steps = 0
        while True:
            outcome = env.step(0.2)
            steps += 1
            if outcome.done:
                break
        assert steps == 6

    def test_storage_demand_matches_bruteforce_first_action(self):
        battery = make_battery(capacity=4.0, rate=2.0, soc=2.0)
        baseline = (3.0, 1.0, 2.0, 4.0)
        scenario = Scenario(
            customers=(storage_spec(baseline, battery, soc_levels=3),),
            traces=constant_traces(4, purchase_price=0.1),
            horizon=Horizon(1, 60),
            episode_length=2,
            seed=5,
        )
        env = GridEnv(scenario)
        env.reset()
        price = 0.3
        outcome = env.step(price)
        _, firsts = oracle_best_first_deltas(
            [price, price], baseline[:2], battery, 3, 0.0
        )
        candidates = {oracle_draw(battery, baseline[0], d) for d in firsts}
        assert outcome.e_demand in candidates

    def test_bookkeeping_conserved(self):
        scenario = small_scenario(episode_length=8, kinds=("elastic", "storage", "elastic"))
        table = ResponseTable(scenario)
        env = GridEnv(scenario, responses=table)
        env.reset()
        rng = np.random.default_rng(0)
        total_demand = 0.0
        total_draws = 0.0
        for _ in range(8):
            t = env.t
            soc = tuple(env.battery_soc(i) for i in range(len(scenario.customers)))
            price = float(rng.choice([0.05, 0.15, 0.3]))
            outcome = env.step(price)
            total_demand += outcome.e_demand
            total_draws += float(table.respond(t, price, soc)[0].sum())
        assert total_demand == total_draws

    def test_raising_price_does_not_raise_demand(self):
        baseline = tuple([6.0] * 8)
        scenario = Scenario(
            customers=(elastic_spec(baseline, elasticity=-0.9), elastic_spec(baseline, elasticity=-0.4)),
            traces=constant_traces(8, irradiance=0.3),
            horizon=Horizon(1, 60),
            episode_length=5,
            seed=3,
        )

        def demand_at(t_target: int, price_at_target: float) -> float:
            env = GridEnv(scenario)
            env.reset()
            value = None
            for t in range(5):
                outcome = env.step(price_at_target if t == t_target else 0.15)
                if t == t_target:
                    value = outcome.e_demand
            assert value is not None
            return value

        for t in (0, 2, 4):
            assert demand_at(t, 0.30) <= demand_at(t, 0.10) + 1e-12

    def test_determinism_bit_identical(self):
        scenario = small_scenario(episode_length=6, kinds=("storage", "elastic"))
        prices = [0.1, 0.3, 0.05, 0.45, 0.2, 0.15]

        def run():
            env = GridEnv(scenario)
            env.reset()
            return [
                (o.e_demand, o.e_renewable, o.purchase_price, o.done)
                for o in (env.step(p) for p in prices)
            ]

        assert run() == run()

    def test_done_state_window_built(self):
        # Traces at the minimum length: the terminal window clamps its start.
        scenario = small_scenario(episode_length=4, p=2)
        horizon_p = scenario.horizon.p
        trimmed = Scenario(
            customers=scenario.customers,
            traces=type(scenario.traces)(
                weather=scenario.traces.weather[: 4 + horizon_p],
                purchase_price=scenario.traces.purchase_price[: 4 + horizon_p],
                solar_capacity_kw=scenario.traces.solar_capacity_kw,
                wind_capacity_kw=scenario.traces.wind_capacity_kw,
            ),
            horizon=scenario.horizon,
            episode_length=4,
            seed=scenario.seed,
        )
        env = GridEnv(trimmed)
        env.reset()
        outcome = None
        for _ in range(4):
            outcome = env.step(0.2)
        assert outcome is not None and outcome.done
        assert outcome.next_state.window_length == horizon_p + 1

    def test_rejects_negative_price(self):
        env = GridEnv(small_scenario())
        env.reset()
        with pytest.raises(ValueError):
            env.step(-0.1)

    def test_soc_and_window_invariants_over_random_steps(self):
        scenario = small_scenario(episode_length=10, kinds=("storage", "storage", "elastic"))
        env = GridEnv(scenario)
        rng = np.random.default_rng(42)
        env.reset()
        for step in range(300):
            if env.done:
                env.reset()
            outcome = env.step(float(rng.choice([0.02, 0.1, 0.2, 0.4])))
            assert outcome.next_state.window_length == scenario.horizon.p + 1
            for i, spec in enumerate(scenario.customers):
                if spec.kind == "storage":
                    soc = env.battery_soc(i)
                    assert 0.0 <= soc <= spec.battery.capacity


def _window_fields(window):
    return (
        window.demand.tolist(),
        window.renewable.tolist(),
        window.purchase_price.tolist(),
        window.t,
    )


class TestResponseTable:
    GRID_PRICES = (0.05, 0.15, 0.25, 0.35, 0.45)

    @pytest.fixture
    def adjustments(self, monkeypatch):
        # respond runs cooperative_adjustment once per miss and never on a hit.
        calls = []
        original = voltmarket.env.cooperative_adjustment

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(voltmarket.env, "cooperative_adjustment", counting)
        return calls

    def congested_scenario(self, episode_length=6, base_level=6.0, supply_kw=(8.0, 2.0)):
        # Two cooperative customers and a renewable supply well below total
        # demand, so cooperative_adjustment mostly takes its scaling path;
        # soc_levels=4 puts the initial SOC (capacity/2) off the SOC grid.
        p = 2
        length = episode_length + p + 1
        solar_kw, wind_kw = supply_kw
        traces = varied_traces(length, seed=11, solar_capacity_kw=solar_kw, wind_capacity_kw=wind_kw)
        base = tuple(base_level + 2.0 * math.sin(k / 3.0) for k in range(length))
        peaky = tuple(4.0 + 3.0 * math.cos(k / 2.0) for k in range(length))
        customers = (
            storage_spec(base, cooperative=True, soc_levels=4),
            elastic_spec(peaky, cooperative=True),
            storage_spec(peaky, make_battery(capacity=6.0, rate=1.5), peak_weight=0.3, soc_levels=3),
            elastic_spec(base, elasticity=-0.5),
        )
        return Scenario(customers, traces, Horizon(p, 60), episode_length, seed=9)

    @staticmethod
    def renewable(scenario, t):
        traces = scenario.traces
        return renewable_generation(
            traces.weather[t],
            traces.solar_capacity_kw,
            traces.wind_capacity_kw,
            scenario.horizon.timestep_minutes,
        )

    def test_shared_table_matches_unmemoized_reference_exactly(self, adjustments):
        scenario = self.congested_scenario()
        traces, horizon = scenario.traces, scenario.horizon
        initial_soc = tuple(
            spec.battery.capacity / 2.0 if spec.kind == "storage" else None
            for spec in scenario.customers
        )
        table = ResponseTable(scenario)
        envs = [GridEnv(scenario, responses=table) for _ in range(2)]
        state = [None, None]  # per env: (t, SOCs) on the reference path
        rng = np.random.default_rng(5)
        responses = congested = off_grid = 0
        for _ in range(400):
            i = int(rng.integers(2))
            env = envs[i]
            if state[i] is None or env.done or rng.random() < 0.1:
                window = env.reset()
                assert table.start_socs == initial_soc
                assert [env.battery_soc(c) for c in range(len(initial_soc))] == list(
                    table.start_socs
                )
                raw, demands, _ = reference_customer_response(
                    scenario, 0, None, initial_soc, self.renewable(scenario, 0)
                )
                key = (0, None, initial_soc)
                state[i] = (0, initial_soc)
                expected = build_state_window(traces, 0, horizon, float(demands.sum()))
                assert _window_fields(window) == _window_fields(expected)
            else:
                t, soc = state[i]
                if rng.random() < 0.8:
                    price = float(rng.choice(self.GRID_PRICES))
                else:
                    price = float(rng.uniform(0.0, 0.5))
                    off_grid += 1
                outcome = env.step(price)
                e_renewable = self.renewable(scenario, t)
                raw, demands, next_soc = reference_customer_response(
                    scenario, t, price, soc, e_renewable
                )
                e_demand = float(demands.sum())
                done = t + 1 == scenario.episode_length
                window_t = min(t + 1, len(traces) - horizon.p - 1)
                expected = build_state_window(traces, window_t, horizon, e_demand)
                assert _window_fields(outcome.next_state) == _window_fields(expected)
                assert outcome.e_demand == e_demand
                assert outcome.e_renewable == e_renewable
                assert outcome.price_sold == price
                assert outcome.purchase_price == traces.purchase_price[t]
                assert outcome.done == done
                key = (t, price, soc)
                state[i] = (t + 1, next_soc)
            responses += 1
            congested += raw.tolist() != demands.tolist()
            misses = len(adjustments)
            assert table.respond(*key)[0].tolist() == demands.tolist()
            assert len(adjustments) == misses  # the env's own response, a hit
            soc = state[i][1]
            assert [env.battery_soc(c) for c in range(len(soc))] == list(soc)
        # The run covered the scaling path, off-grid prices and memo hits.
        assert congested > 100
        assert off_grid > 20
        assert len(adjustments) < responses - 100

    def test_respond_matches_unmemoized_reference_at_unreached_states(self, adjustments):
        # No env runs: every SOC-grid point of both storage customers, at
        # several t, under grid prices, off-grid prices and the reset preview.
        # At this supply the cooperative scaling factor lies strictly between
        # 0 and 1 on some calls, so the capacity signal decides the draws.
        scenario = self.congested_scenario(supply_kw=(20.0, 5.0))
        customers = scenario.customers
        storage = [i for i, spec in enumerate(customers) if spec.kind == "storage"]
        grids = [
            np.linspace(0.0, customers[i].battery.capacity, customers[i].soc_levels)
            for i in storage
        ]
        states = []
        for a in grids[0]:
            for b in grids[1]:
                soc = [None] * len(customers)
                soc[storage[0]], soc[storage[1]] = float(a), float(b)
                states.append(tuple(soc))
        prices = self.GRID_PRICES + (0.0, 0.1234, 0.4711, None)
        calls = [(t, price, soc) for t in (0, 2, 5) for price in prices for soc in states]
        table = ResponseTable(scenario)
        expected = []
        partial = 0
        for t, price, soc in calls:
            raw, demands, next_soc = reference_customer_response(
                scenario, t, price, soc, self.renewable(scenario, t)
            )
            draws, total, got_soc = table.respond(t, price, soc)
            assert draws.tolist() == demands.tolist()
            assert total == float(demands.sum())
            assert got_soc == next_soc
            expected.append((demands.tolist(), total, got_soc))
            partial += any(
                raw[i] > demands[i] > 0.5 * customers[i].baseline_load[t]
                for i, spec in enumerate(customers)
                if spec.cooperative
            )
        assert len(adjustments) == len(calls)
        assert partial > 0
        for (t, price, soc), (demands, total, next_soc) in zip(calls, expected):
            draws, got_total, got_soc = table.respond(t, price, soc)
            assert (draws.tolist(), got_total, got_soc) == (demands, total, next_soc)
        assert len(adjustments) == len(calls)

    def test_respond_rejects_socs_that_do_not_fit_the_customers(self):
        scenario = self.congested_scenario()
        table = ResponseTable(scenario)
        with pytest.raises(ValueError, match="3 SOCs given for 4 customers"):
            table.respond(0, 0.25, (2.0, None, 3.0))
        with pytest.raises(ValueError, match="storage customer 2 needs a SOC"):
            table.respond(0, 0.25, (2.0, None, None, None))

    def test_respond_draws_are_read_only(self, adjustments):
        scenario = self.congested_scenario()
        table = ResponseTable(scenario)
        env = GridEnv(scenario, responses=table)
        env.reset()
        soc = tuple(env.battery_soc(i) for i in range(len(scenario.customers)))
        env.step(0.25)
        preview = table.respond(0, None, soc)[0]
        first = table.respond(0, 0.25, soc)[0]
        expected = (preview.tolist(), first.tolist())
        for draws in (preview, first):
            with pytest.raises(ValueError):
                draws[:] = -1.0
            with pytest.raises(ValueError):
                draws[0] = -1.0
        misses = len(adjustments)
        env.reset()
        env.step(0.25)
        again = (
            table.respond(0, None, soc)[0].tolist(),
            table.respond(0, 0.25, soc)[0].tolist(),
        )
        assert again == expected
        assert len(adjustments) == misses

    def test_one_table_keeps_scenarios_apart(self):
        # Two envs per scenario share that scenario's table; each steps as a
        # private env of its scenario does.
        a = self.congested_scenario()
        b = self.congested_scenario(base_level=7.0)
        tables = [ResponseTable(s) for s in (a, b)]
        shared = [GridEnv(table.scenario, responses=table) for table in tables for _ in range(2)]
        private = [GridEnv(s) for s in (a, a, b, b)]
        for env in shared + private:
            env.reset()
        for price in (0.15, 0.25, 0.15):
            got = [env.step(price).e_demand for env in shared]
            assert got == [env.step(price).e_demand for env in private]
        assert got[0] != got[2]

    def test_env_rejects_a_table_of_another_scenario(self):
        a = self.congested_scenario()
        b = self.congested_scenario(base_level=7.0)
        with pytest.raises(ValueError, match="ResponseTable of another scenario"):
            GridEnv(b, responses=ResponseTable(a))


class TestWindowTemplates:
    """Windows handed out from a table's templates hold exactly the floats a
    fresh channel-by-channel build holds."""

    def minimum_length_scenario(self):
        # Traces of exactly episode_length + p steps: the terminal window
        # cannot start at episode_length and clamps to the last valid start.
        scenario = TestResponseTable().congested_scenario()
        n = scenario.episode_length + scenario.horizon.p
        traces = replace(
            scenario.traces,
            weather=scenario.traces.weather[:n],
            purchase_price=scenario.traces.purchase_price[:n],
        )
        return replace(scenario, traces=traces)

    @staticmethod
    def assert_matches(window, expected, scaling):
        assert _window_fields(window) == _window_fields(expected)
        raw = reference_window_channels(expected)
        assert window.exogenous.tolist() == raw[window.window_length :].tolist()
        assert window_channels(window).tolist() == raw.tolist()
        scaled = np.append((raw - scaling.mean) / scaling.scale, 1.0)
        assert featurize(window, scaling).tolist() == scaled.tolist()

    def test_windows_match_reference_build_exactly(self):
        scenario = self.minimum_length_scenario()
        traces, horizon = scenario.traces, scenario.horizon
        initial_soc = tuple(
            spec.battery.capacity / 2.0 if spec.kind == "storage" else None
            for spec in scenario.customers
        )
        rng = np.random.default_rng(8)
        n_raw = 8 * horizon.window_length
        scaling = FeatureScaling(mean=rng.normal(size=n_raw), scale=rng.uniform(0.5, 2.0, n_raw))
        table = ResponseTable(scenario)
        envs = [GridEnv(scenario, responses=table) for _ in range(2)] + [GridEnv(scenario)]
        state = [None] * len(envs)  # per env: (t, SOCs) on the reference path
        handed_out = []  # every window an env returned, with its reference
        clamped = 0
        for _ in range(300):
            i = int(rng.integers(len(envs)))
            env = envs[i]
            if state[i] is None or env.done or rng.random() < 0.1:
                window = env.reset()
                _, demands, _ = reference_customer_response(
                    scenario, 0, None, initial_soc, TestResponseTable.renewable(scenario, 0)
                )
                state[i] = (0, initial_soc)
                expected = reference_state_window(traces, 0, horizon, float(demands.sum()))
            else:
                t, soc = state[i]
                outcome = env.step(float(rng.choice(TestResponseTable.GRID_PRICES)))
                e_renewable = TestResponseTable.renewable(scenario, t)
                _, demands, next_soc = reference_customer_response(
                    scenario, t, outcome.price_sold, soc, e_renewable
                )
                assert outcome.e_renewable == e_renewable
                assert outcome.e_demand == float(demands.sum())
                window = outcome.next_state
                window_t = min(t + 1, len(traces) - horizon.p - 1)
                clamped += window_t == t
                expected = reference_state_window(traces, window_t, horizon, outcome.e_demand)
                state[i] = (t + 1, next_soc)
            self.assert_matches(window, expected, scaling)
            handed_out.append((window, expected))
        # No later window changed an earlier one.
        for window, expected in handed_out:
            self.assert_matches(window, expected, scaling)
        assert clamped > 5

    def test_exogenous_row_and_its_views_are_read_only(self):
        env = GridEnv(small_scenario())
        window = env.reset()
        for channel in (window.exogenous, window.renewable, window.purchase_price):
            with pytest.raises(ValueError):
                channel[0] = 1.0
        assert np.shares_memory(window.renewable, window.exogenous)
        assert np.shares_memory(window.purchase_price, window.exogenous)

    def test_mutating_a_window_demand_leaves_later_windows_intact(self):
        scenario = small_scenario()
        env = GridEnv(scenario)
        first = env.reset()
        demand = first.demand.tolist()
        first.demand[:] = -1.0
        assert env.reset().demand.tolist() == demand
        stepped = env.step(0.2).next_state
        stepped_demand = stepped.demand.tolist()
        stepped.demand[:] = -1.0
        env.reset()
        assert env.step(0.2).next_state.demand.tolist() == stepped_demand


class TestWindowLifetime:
    """No window outlives the table that built it: every train_policy call
    builds its windows again, and one env builds each t once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = voltmarket.env.build_state_window

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(voltmarket.env, "build_state_window", counting)
        return calls

    def test_each_train_policy_call_builds_afresh(self, builds):
        scenario = small_scenario()
        grid = PriceGrid.uniform(0.05, 0.45, 5)
        config = TrainConfig(episodes=2, warmup_steps=10)
        counts = []
        for _ in range(2):
            before = len(builds)
            train_policy(scenario, grid, config, seed=3)
            counts.append(len(builds) - before)
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_second_episode_on_one_env_builds_nothing(self, builds):
        scenario = small_scenario()
        env = GridEnv(scenario)
        for episode in range(2):
            before = len(builds)
            env.reset()
            while not env.done:
                env.step(0.2)
            if episode == 0:
                # Windows at t = 0 .. episode_length, the terminal one included.
                assert len(builds) - before == scenario.episode_length + 1
            else:
                assert len(builds) == before
