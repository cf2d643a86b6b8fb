"""Closed-form theory pieces and their Monte Carlo validators."""

import math

import numpy as np
import pytest

from icut import (WindowParams, check_corollary,
                  check_sorted_density, feasibility_window, subset_error_rates,
                  unit_ball_log_volume, validate_prop1_monte_carlo)
from icut.theory import theory_checks
from conftest import oracle_sorted_density

WORKED = dict(n=10**6, nu=0.05, rho=1.0, delta=0.1, omega=1.0, p0=1.0, kl1=1.0)


# --- error-rate propagation -------------------------------------------------------


def test_perfect_votes_remove_all_noise():
    assert subset_error_rates(0.3, 0.2, 1.0, 1.0) == (0.0, 0.0)


def test_coin_flip_votes_change_nothing():
    a, g = subset_error_rates(0.3, 0.2, 0.5, 0.5)
    assert abs(a - 0.3) <= 1e-15
    assert abs(g - 0.2) <= 1e-15


def test_worked_point():
    a, g = subset_error_rates(0.45, 0.45, 0.74, 0.74)
    assert a == pytest.approx(0.117 / 0.524, rel=1e-12)
    assert a == g
    assert a == pytest.approx(0.22328244274809161, rel=1e-12)


def test_rates_decrease_in_both_accuracies():
    grid = np.linspace(0.55, 0.95, 9)
    for l1 in grid:
        col = [subset_error_rates(0.3, 0.2, l0, l1)[0] for l0 in grid]
        assert all(x > y for x, y in zip(col, col[1:]))
    for l0 in grid:
        row = [subset_error_rates(0.3, 0.2, l0, l1)[0] for l1 in grid]
        assert all(x > y for x, y in zip(row, row[1:]))


def test_rates_reject_out_of_range_inputs():
    with pytest.raises(ValueError, match="alpha_noisy"):
        subset_error_rates(1.5, 0.2, 0.7, 0.7)
    with pytest.raises(ValueError, match="lambda1"):
        subset_error_rates(0.3, 0.2, 0.7, -0.1)


def test_rates_reject_degenerate_channel():
    with pytest.raises(ValueError, match="degenerate channel"):
        subset_error_rates(1.0, 0.0, 1.0, 0.5)


# --- corollary -----------------------------------------------------------------


def test_corollary_holds_above_unit_accuracy_sum():
    rep = check_corollary(0.3, 0.2, 0.6, 0.6)
    assert rep.precondition_met
    assert rep.holds
    assert rep.alpha_margin > 0 and rep.gamma_margin > 0


def test_corollary_is_tight_at_unit_accuracy_sum():
    rep = check_corollary(0.3, 0.2, 0.6, 0.4)
    assert rep.precondition_met
    assert abs(rep.alpha_margin) <= 1e-12
    assert abs(rep.gamma_margin) <= 1e-12
    assert rep.holds


def test_corollary_can_fail_below_unit_accuracy_sum():
    rep = check_corollary(0.2, 0.2, 0.3, 0.3)
    assert not rep.precondition_met
    assert not rep.holds
    assert rep.alpha_s > 0.2


# --- unit-ball volumes -----------------------------------------------------------


def test_small_ball_volumes_are_exact():
    for d, expect in ((1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)):
        log_v, v = unit_ball_log_volume(d)
        assert v == pytest.approx(expect, rel=1e-12)
        assert log_v == pytest.approx(math.log(expect), rel=1e-12)


def test_ten_dimensional_ball_volume():
    _, v = unit_ball_log_volume(10)
    assert v == pytest.approx(math.pi**5 / 120.0, rel=1e-12)


def test_volume_recurrence():
    for d in range(3, 31):
        v_d = unit_ball_log_volume(d)[1]
        v_prev = unit_ball_log_volume(d - 2)[1]
        assert v_d == pytest.approx(v_prev * 2.0 * math.pi / d, rel=1e-10)


def test_volume_underflows_to_none_at_huge_d():
    log_v, v = unit_ball_log_volume(10**6)
    assert v is None
    assert log_v < 0


def test_volume_rejects_nonpositive_d():
    with pytest.raises(ValueError, match="at least 1"):
        unit_ball_log_volume(0)


# --- feasibility window -----------------------------------------------------------


def test_window_worked_point_transitions_at_four():
    rep = feasibility_window(WindowParams(**WORKED), range(1, 22))
    assert rep.d0 == 4
    assert rep.unique_transition
    flags = [r[3] for r in rep.rows]
    assert flags[:3] == [True, True, True]
    assert not any(flags[3:])
    d1 = rep.rows[0]
    assert math.exp(d1[2]) == pytest.approx(2e5, rel=1e-9)
    d10 = rep.rows[9]
    assert math.exp(d10[1]) == pytest.approx(
        10.0 * math.log(20.0) ** 2 * 10 ** (6.0 / 11.0), rel=1e-9)
    assert math.exp(d10[2]) == pytest.approx(
        (math.pi**5 / 120.0) * 0.1**10 * 1e6, rel=1e-9)


def test_window_orthogonal_mode_freezes_at_one_dimension():
    rep = feasibility_window(WindowParams(mode="orthogonal", **WORKED), range(1, 22))
    first = rep.rows[0]
    for row in rep.rows:
        assert row[1] == first[1] and row[2] == first[2] and row[3]
    assert rep.d0 is None


def test_window_permutation_mode_adds_log_factorial():
    plain = feasibility_window(WindowParams(**WORKED), range(1, 22))
    perm = feasibility_window(WindowParams(mode="permutation", **WORKED), range(1, 22))
    for p_row, s_row in zip(plain.rows, perm.rows):
        d = p_row[0]
        assert s_row[1] == p_row[1]
        assert s_row[2] == pytest.approx(p_row[2] + math.lgamma(d + 1.0), abs=1e-12)


def test_window_rejects_bad_range():
    params = WindowParams(**WORKED)
    with pytest.raises(ValueError, match="empty d_range"):
        feasibility_window(params, [])
    with pytest.raises(ValueError, match="at least 1"):
        feasibility_window(params, [0, 1])


def test_window_params_validation():
    with pytest.raises(ValueError, match="unknown window mode"):
        WindowParams(mode="rotation", **WORKED)
    with pytest.raises(ValueError, match="nu"):
        WindowParams(**{**WORKED, "nu": 1.0})
    with pytest.raises(ValueError, match="rho"):
        WindowParams(**{**WORKED, "rho": 0.0})
    with pytest.raises(ValueError, match="delta"):
        WindowParams(**{**WORKED, "delta": -1.0})
    with pytest.raises(ValueError, match="n"):
        WindowParams(**{**WORKED, "n": 0})


# --- error-propagation Monte Carlo --------------------------------------------------


def test_prop1_perfect_votes_give_exact_zero():
    rep = validate_prop1_monte_carlo(0.3, 0.2, 1.0, 1.0, trials=2 * 10**4)
    assert rep.alpha_s_pred == 0.0 and rep.gamma_s_pred == 0.0
    assert rep.alpha_s_emp == 0.0 and rep.gamma_s_emp == 0.0
    assert rep.within(3.0)


def test_prop1_coin_flip_votes_recover_input_rates():
    rep = validate_prop1_monte_carlo(0.3, 0.2, 0.5, 0.5, trials=10**5)
    assert rep.alpha_s_pred == pytest.approx(0.3, abs=1e-15)
    assert abs(rep.alpha_s_emp - 0.3) <= 3.0 * rep.alpha_sigma + 1e-15
    assert rep.within(3.0)


def test_prop1_worked_point_within_three_sigma():
    rep = validate_prop1_monte_carlo(0.45, 0.45, 0.74, 0.74, trials=2 * 10**5)
    assert rep.alpha_s_pred == pytest.approx(0.22328244274809161, rel=1e-12)
    assert rep.within(3.0)
    assert rep.alpha_cell > 0 and rep.gamma_cell > 0


def test_prop1_is_deterministic_per_seed():
    a = validate_prop1_monte_carlo(0.3, 0.2, 0.7, 0.8, trials=10**4, seed=3)
    b = validate_prop1_monte_carlo(0.3, 0.2, 0.7, 0.8, trials=10**4, seed=3)
    assert a == b


def test_prop1_rejects_thin_sampling():
    with pytest.raises(ValueError, match="at least 10\\^4"):
        validate_prop1_monte_carlo(0.3, 0.2, 0.7, 0.7, trials=9999)


def test_prop1_rejects_saturated_rates():
    with pytest.raises(ValueError, match="below 1"):
        validate_prop1_monte_carlo(0.5, 0.5, 0.7, 0.7)


def test_prop1_rejects_unrealizable_channel():
    with pytest.raises(ValueError, match="no balanced-prior channel"):
        validate_prop1_monte_carlo(0.8, 0.1, 0.7, 0.7)


# --- sorted density ----------------------------------------------------------------


def test_sorted_density_matches_factorial_factor():
    for d, factor in ((1, 1.0), (2, 2.0), (3, 6.0)):
        rep = check_sorted_density(d, trials=10**5)
        assert rep.factor == factor
        assert rep.cells_tested == math.comb(rep.bins, d)
        assert rep.all_passed
        assert rep.max_abs_z <= 4.0


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sorted_density_equals_the_loop_oracle(d, seed):
    for bins in range(max(2, d), 9):
        rep = check_sorted_density(d, trials=10**5, bins=bins, seed=seed)
        assert ((rep.cells_tested, rep.cells_passed, rep.max_abs_z)
                == oracle_sorted_density(d, 10**5, bins, seed))


@pytest.mark.parametrize("d,bins", [(1, 1), (2, 1), (3, 1), (3, 2)])
def test_sorted_density_refuses_bins_that_leave_nothing_to_test(monkeypatch, d, bins):
    def no_sampling(*args):
        raise AssertionError("sampled before checking bins")
    monkeypatch.setattr("icut.theory.seeded_rng", no_sampling)
    with pytest.raises(ValueError, match=rf"^bins must be positive and at least max\(2, d\) "
                                         rf"= {max(2, d)}: coarser bins leave no cell to test$"):
        check_sorted_density(d, trials=10**5, bins=bins)


def test_sorted_density_rejects_high_dimensions():
    with pytest.raises(ValueError, match="1, 2, or 3"):
        check_sorted_density(4)


def test_sorted_density_rejects_thin_sampling():
    with pytest.raises(ValueError, match="at least 10\\^5"):
        check_sorted_density(2, trials=10**4)


def test_sorted_density_rejects_overfine_bins():
    with pytest.raises(ValueError, match="bins too fine"):
        check_sorted_density(3, trials=10**5, bins=32)


def test_window_params_default_to_the_worked_example():
    assert WindowParams() == WindowParams(**WORKED)


def test_theory_checks_reject_an_empty_tuple_set():
    with pytest.raises(ValueError, match="tuples must be positive"):
        next(theory_checks(trials=10**4, tuples=0))


def test_theory_checks_reject_bad_counts_before_any_check_runs():
    with pytest.raises(ValueError, match="tuples must be positive"):
        theory_checks(tuples=0)
    with pytest.raises(ValueError, match="trials must be at least 10\\^4"):
        theory_checks(trials=9999)


def test_theory_checks_refuse_a_fractional_tuple_count_at_the_call():
    with pytest.raises(ValueError, match="^tuples must be an integer, got 2.5"):
        theory_checks(trials=10**4, tuples=2.5)


def test_prop1_takes_an_integral_float_trial_count():
    assert (validate_prop1_monte_carlo(0.3, 0.3, 0.7, 0.7, trials=1e4)
            == validate_prop1_monte_carlo(0.3, 0.3, 0.7, 0.7, trials=10**4))


@pytest.mark.parametrize("field,kwargs", [
    ("trials", {"trials": 2e5 + 0.5}),
    ("d", {"d": 2.5}),
    ("bins", {"bins": float("nan")}),
])
def test_sorted_density_refuses_non_integer_counts(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        check_sorted_density(**{"d": 2, **kwargs})


def test_sorted_density_rejects_nonpositive_bins():
    with pytest.raises(ValueError, match="bins must be positive"):
        check_sorted_density(2, trials=10**5, bins=0)
