import pytest
from hypothesis import given
from hypothesis import strategies as st

from voltmarket import RewardWeights, TrainConfig, breakdown, reward_r1, reward_r2, reward_total
from voltmarket.reward import r1_mode_violations

# Energies at 1 Wh resolution: keeps (gap)**2 clear of float underflow, where
# the supply-equals-demand iff cannot hold in any float implementation.
finite = st.integers(min_value=0, max_value=10**9).map(lambda n: n / 1000.0)
signed = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_r1_equal_prices():
    assert reward_r1(0.10, 0.10) == 0.0


def test_r1_margin():
    assert reward_r1(0.15, 0.10) == pytest.approx(0.05)


def test_r1_loss():
    assert reward_r1(0.05, 0.10) == pytest.approx(-0.05)


def test_r2_balanced():
    assert reward_r2(100.0, 100.0) == 0.0


def test_r2_surplus():
    assert reward_r2(120.0, 100.0) == -400.0


def test_r2_shortfall_symmetric():
    assert reward_r2(100.0, 120.0) == -400.0


def test_total_default_weights():
    assert reward_total(0.05, -400.0, RewardWeights(1.0, 1.0)) == pytest.approx(-399.95)


def test_total_projections():
    assert reward_total(1.25, -7.0, RewardWeights(1.0, 0.0)) == 1.25
    assert reward_total(1.25, -7.0, RewardWeights(0.0, 1.0)) == -7.0


def test_weights_reject_negative():
    with pytest.raises(ValueError):
        RewardWeights(-0.1, 1.0)


@given(finite, finite)
def test_r2_nonpositive_and_zero_iff_balanced(e_ren, e_dem):
    r2 = reward_r2(e_ren, e_dem)
    assert r2 <= 0.0
    assert (r2 == 0.0) == (e_ren == e_dem)


@given(finite, finite)
def test_r2_symmetry(a, b):
    assert reward_r2(a, b) == reward_r2(b, a)


@given(signed, signed, finite, finite)
def test_total_linearity(r1, r2, a1, a2):
    w = RewardWeights(a1, a2)
    assert reward_total(r1, r2, w) == pytest.approx(a1 * r1 + a2 * r2, abs=1e-12, rel=1e-12)
    doubled = RewardWeights(2 * a1, 2 * a2)
    assert reward_total(r1, r2, doubled) == pytest.approx(
        2 * reward_total(r1, r2, w), abs=1e-9, rel=1e-12
    )


def test_breakdown_price_diff_mode():
    b = breakdown(0.2, 0.1, 50.0, 40.0)
    assert b.r1 == pytest.approx(0.1)
    assert b.r2 == -100.0
    assert b.total == pytest.approx(-99.9)


def test_breakdown_energy_weighted_mode():
    b = breakdown(0.2, 0.1, 50.0, 40.0, r1_mode="energy_weighted")
    assert b.r1 == pytest.approx(0.1 * 40.0)
    assert b.r2 == -100.0


def test_breakdown_rejects_unknown_mode():
    with pytest.raises(ValueError):
        breakdown(0.2, 0.1, 1.0, 1.0, r1_mode="volume")


def test_r1_mode_rule_is_stated_once():
    assert r1_mode_violations("price_diff") == r1_mode_violations("energy_weighted") == []
    (message,) = r1_mode_violations("volume")
    assert message == "r1_mode must be one of ['price_diff', 'energy_weighted'], got 'volume'"
    with pytest.raises(ValueError) as err:
        breakdown(0.2, 0.1, 1.0, 1.0, r1_mode="volume")
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        TrainConfig(r1_mode="volume")
    assert str(err.value) == message
