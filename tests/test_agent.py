import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voltmarket import (
    FeatureScaling,
    Horizon,
    PolicyParams,
    PriceGrid,
    Transition,
    clamp_price,
    featurize,
    n_features,
    q_values,
    select_action,
    td_update,
    window_channels,
    zeros_params,
)

from .helpers import small_scenario, varied_traces
from voltmarket import GridEnv, build_state_window


def identity_params(k: int, n_raw: int) -> PolicyParams:
    return zeros_params(k, FeatureScaling.identity(n_raw))


class TestPriceGrid:
    def test_uniform(self):
        grid = PriceGrid.uniform(0.1, 0.5, 5)
        assert grid.levels == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5))
        assert grid.k == 5

    def test_degenerate_band_single_level(self):
        grid = PriceGrid.uniform(0.2, 0.2)
        assert grid.levels == (0.2,)
        assert grid.k == 1

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            PriceGrid(levels=(0.3, 0.2), p_min=0.1, p_max=0.5)

    def test_rejects_levels_outside_band(self):
        with pytest.raises(ValueError):
            PriceGrid(levels=(0.05, 0.2), p_min=0.1, p_max=0.5)
        with pytest.raises(ValueError):
            PriceGrid(levels=(0.2, 0.6), p_min=0.1, p_max=0.5)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            PriceGrid.uniform(0.5, 0.1, 3)


class TestFeaturize:
    def test_feature_count_degenerate(self):
        scenario = small_scenario(p=0)
        window = GridEnv(scenario).reset()
        feats = featurize(window, FeatureScaling.identity(8))
        assert len(feats) == 9 == n_features(0)

    def test_feature_count_general(self):
        scenario = small_scenario(p=3)
        window = GridEnv(scenario).reset()
        feats = featurize(window, FeatureScaling.identity(8 * 4))
        assert len(feats) == 8 * 4 + 1 == n_features(3)

    def test_identity_scaling_passthrough(self):
        window = build_state_window(varied_traces(5), 0, Horizon(1, 60), 2.0)
        raw = window_channels(window)
        feats = featurize(window, FeatureScaling.identity(len(raw)))
        assert feats[:-1].tolist() == raw.tolist()
        assert feats[-1] == 1.0

    def test_affine_scaling_applied(self):
        window = build_state_window(varied_traces(5), 0, Horizon(0, 60), 2.0)
        raw = window_channels(window)
        scaling = FeatureScaling(mean=raw.copy(), scale=np.full(len(raw), 2.0))
        feats = featurize(window, scaling)
        assert feats[:-1].tolist() == pytest.approx([0.0] * len(raw))
        assert feats[-1] == 1.0  # bias is appended after scaling

    def test_dimension_mismatch(self):
        window = build_state_window(varied_traces(5), 0, Horizon(1, 60), 2.0)
        with pytest.raises(ValueError):
            featurize(window, FeatureScaling.identity(8))


class TestQValues:
    def test_zero_weights(self):
        params = identity_params(3, 4)
        assert q_values(params, np.ones(5)).tolist() == [0.0, 0.0, 0.0]

    def test_one_hot_feature_selects_column(self):
        rng = np.random.default_rng(1)
        params = PolicyParams(weights=rng.normal(size=(3, 5)), scaling=FeatureScaling.identity(4))
        features = np.zeros(5)
        features[2] = 1.0
        assert q_values(params, features).tolist() == params.weights[:, 2].tolist()

    def test_matches_independent_dot_product(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            weights = rng.normal(size=(4, 7))
            features = rng.normal(size=7)
            params = PolicyParams(weights=weights, scaling=FeatureScaling.identity(6))
            expected = [sum(w * f for w, f in zip(row, features)) for row in weights]
            assert q_values(params, features).tolist() == pytest.approx(expected, abs=1e-12)


class TestSelectAction:
    def test_uniform_exploration(self):
        rng = np.random.default_rng(123)
        grid = PriceGrid.uniform(0.1, 0.5, 5)
        params = identity_params(5, 2)
        counts = np.zeros(5)
        n = 10_000
        for _ in range(n):
            counts[select_action(params, np.array([0.0, 0.0, 1.0]), 1.0, grid, rng).level_index] += 1
        expected = n / 5
        sigma = np.sqrt(n * 0.2 * 0.8)
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_greedy_argmax(self):
        grid = PriceGrid.uniform(0.1, 0.3, 3)
        params = PolicyParams(
            weights=np.array([[1.0], [3.0], [2.0]]), scaling=FeatureScaling.identity(0)
        )
        signal = select_action(params, np.array([1.0]), 0.0, grid)
        assert signal.level_index == 1
        assert signal.price == grid.levels[1]
        assert signal.clamped is False

    def test_tie_breaks_to_lowest_index(self):
        grid = PriceGrid.uniform(0.1, 0.3, 3)
        params = PolicyParams(
            weights=np.array([[5.0], [5.0], [1.0]]), scaling=FeatureScaling.identity(0)
        )
        assert select_action(params, np.array([1.0]), 0.0, grid).level_index == 0

    def test_greedy_invariant_under_positive_affine_q_transform(self):
        rng = np.random.default_rng(9)
        grid = PriceGrid.uniform(0.0, 1.0, 6)
        for _ in range(50):
            weights = rng.normal(size=(6, 4))
            features = np.append(rng.normal(size=3), 1.0)
            params = PolicyParams(weights=weights, scaling=FeatureScaling.identity(3))
            a, b = float(rng.uniform(0.1, 5.0)), float(rng.normal())
            transformed = weights * a
            transformed[:, -1] += b  # shifts every Q by b via the bias feature
            params2 = PolicyParams(weights=transformed, scaling=params.scaling)
            assert (
                select_action(params, features, 0.0, grid).level_index
                == select_action(params2, features, 0.0, grid).level_index
            )

    def test_epsilon_zero_is_deterministic_without_rng(self):
        grid = PriceGrid.uniform(0.1, 0.3, 3)
        params = identity_params(3, 0)
        assert select_action(params, np.array([1.0]), 0.0, grid).level_index == 0


class TestClampPrice:
    grid = PriceGrid.uniform(0.1, 0.5, 5)

    def test_within_band(self):
        assert clamp_price(0.3, self.grid) == (0.3, False)

    def test_boundary_inclusive(self):
        assert clamp_price(0.5, self.grid) == (0.5, False)

    def test_above_band(self):
        assert clamp_price(0.51, self.grid) == (0.5, True)

    def test_below_band(self):
        assert clamp_price(0.0, self.grid) == (0.1, True)

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_idempotent(self, price):
        once, _ = clamp_price(price, self.grid)
        twice, violated_again = clamp_price(once, self.grid)
        assert twice == once
        assert violated_again is False


class TestTdUpdate:
    def _transition(self, n=3, reward=1.0, done=False):
        features = np.zeros(n + 1)
        features[0] = 1.0
        features[-1] = 1.0
        nxt = np.zeros(n + 1)
        nxt[1] = 1.0
        nxt[-1] = 1.0
        return Transition(features, 0, reward, nxt, done)

    def test_zero_lr_is_identity(self):
        params = identity_params(2, 3)
        updated = td_update(params, self._transition(), 0.0, 0.9)
        assert updated.weights.tolist() == params.weights.tolist()

    def test_terminal_ignores_bootstrap(self):
        rng = np.random.default_rng(3)
        params = PolicyParams(weights=rng.normal(size=(2, 4)), scaling=FeatureScaling.identity(3))
        tr = self._transition(reward=2.0, done=True)
        updated = td_update(params, tr, 0.5, 0.9)
        delta = 2.0 - float(params.weights[0] @ tr.features)
        expected = params.weights[0] + 0.5 * delta * tr.features
        assert updated.weights[0].tolist() == pytest.approx(expected.tolist(), abs=1e-15)

    def test_touches_exactly_one_row(self):
        rng = np.random.default_rng(4)
        params = PolicyParams(weights=rng.normal(size=(3, 4)), scaling=FeatureScaling.identity(3))
        updated = td_update(params, self._transition(reward=5.0), 0.1, 0.9)
        assert updated.weights[1].tolist() == params.weights[1].tolist()
        assert updated.weights[2].tolist() == params.weights[2].tolist()
        assert updated.weights[0].tolist() != params.weights[0].tolist()

    def test_input_params_not_mutated(self):
        params = identity_params(2, 3)
        before = params.weights.copy()
        td_update(params, self._transition(), 0.5, 0.9)
        assert params.weights.tolist() == before.tolist()

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_rejects_bad_lr_by_name(self, lr):
        params = identity_params(2, 3)
        with pytest.raises(ValueError, match="lr"):
            td_update(params, self._transition(), lr, 0.9)


def value_iteration(rewards, transitions, gamma, sweeps=500):
    """Independent fixed-point oracle for a deterministic finite MDP."""
    n_states, n_actions = rewards.shape
    q = np.zeros((n_states, n_actions))
    for _ in range(sweeps):
        q_new = np.empty_like(q)
        for s in range(n_states):
            for a in range(n_actions):
                q_new[s, a] = rewards[s, a] + gamma * np.max(q[transitions[s, a]])
        q = q_new
    return q


class TestTabularLimit:
    # Deterministic 3-state / 2-action MDP: action 0 stays (reward 1),
    # action 1 advances around the cycle (reward 10 on closing it).
    rewards = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 10.0]])
    transitions = np.array([[0, 1], [1, 2], [2, 0]])
    gamma = 0.9

    def test_q_learning_recovers_value_iteration_policy(self):
        oracle_q = value_iteration(self.rewards, self.transitions, self.gamma)
        scaling = FeatureScaling.identity(2)  # 2 raw features + bias = 3 = one-hot states
        params = zeros_params(2, scaling)
        updates = 0
        for _ in range(1500):
            for s in range(3):
                for a in range(2):
                    features = np.zeros(3)
                    features[s] = 1.0
                    nxt = np.zeros(3)
                    nxt[self.transitions[s, a]] = 1.0
                    params = td_update(
                        params,
                        Transition(features, a, float(self.rewards[s, a]), nxt, False),
                        1.0,
                        self.gamma,
                    )
                    updates += 1
        assert updates <= 10_000
        learned_q = np.array(
            [q_values(params, np.eye(3)[s]).tolist() for s in range(3)]
        )
        assert np.argmax(learned_q, axis=1).tolist() == np.argmax(oracle_q, axis=1).tolist()
        assert np.max(np.abs(learned_q - oracle_q)) < 1e-3
