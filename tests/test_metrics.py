import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from soppi import SettlingCriterion, TrialRecord, mse, settling_time, \
    summarize, welch_t_test_one_tailed
from soppi.metrics import student_t_cdf


def make_record(signal, dt=0.1):
    signal = np.asarray(signal, dtype=float)
    n = len(signal)
    return TrialRecord(times=dt * np.arange(n),
                       states=signal[:, None],
                       controls=np.zeros((n - 1, 1)))


class TestTrialRecord:
    def test_valid_construction(self):
        make_record([0.0, 1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TrialRecord(times=np.arange(3.0), states=np.zeros((4, 1)),
                        controls=np.zeros((3, 1)))

    def test_rejects_control_length(self):
        with pytest.raises(ValueError, match="one shorter"):
            TrialRecord(times=np.arange(3.0), states=np.zeros((3, 1)),
                        controls=np.zeros((3, 1)))
        # So no record without a state reaches the metrics.
        with pytest.raises(ValueError, match="one shorter"):
            TrialRecord(times=np.zeros(0), states=np.zeros((0, 1)),
                        controls=np.zeros((0, 1)))

    @pytest.mark.parametrize("times,states,controls", [
        ([0.0, 0.02, 0.04], np.zeros((3, 2)), np.array([1.0, 2.0])),
        ([0.0, 0.02, 0.04], np.zeros(3), np.zeros((2, 1))),
        (np.zeros((3, 1)), np.zeros((3, 2)), np.zeros((2, 1))),
        ([0.0, 0.02, 0.04], np.zeros((3, 2, 1)), np.zeros((2, 1))),
    ], ids=["1d-controls", "1d-states", "2d-times", "3d-states"])
    def test_rejects_wrong_rank(self, times, states, controls):
        # The CSV and plot writers index a row of states and of controls;
        # a 1-D array there used to pass and crash them.
        with pytest.raises(ValueError, match="1-D, states and controls 2-D"):
            TrialRecord(times=times, states=states, controls=controls)

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ValueError, match="increasing"):
            TrialRecord(times=np.array([0.0, 0.2, 0.1]),
                        states=np.zeros((3, 1)), controls=np.zeros((2, 1)))


class TestMse:
    def test_zero_signal(self):
        assert mse(make_record([0.0, 0.0, 0.0]), 0, 0.0) == 0.0

    def test_hand_case(self):
        # errors 1, 2, 3 -> mean of 1, 4, 9
        rec = make_record([1.0, 2.0, 3.0])
        assert mse(rec, 0, 0.0) == pytest.approx(14.0 / 3.0)

    def test_target_shift(self):
        rec = make_record([1.0, 2.0, 3.0])
        assert mse(rec, 0, 2.0) == pytest.approx(2.0 / 3.0)

    def test_wrapped_angle_error(self):
        # 2*pi away from target is zero error once wrapped.
        rec = make_record([2 * np.pi, 2 * np.pi])
        assert mse(rec, 0, 0.0, wrap=True) == pytest.approx(0.0, abs=1e-28)
        assert mse(rec, 0, 0.0, wrap=False) > 1.0


class TestSettlingTime:
    def test_always_inside_settles_at_zero(self):
        rec = make_record(np.full(20, 0.01))
        crit = SettlingCriterion(0, 0.0, 0.1)
        assert settling_time(rec, crit) == 0.0

    def test_hand_case_last_exit(self):
        # Leaves the band at index 3, back inside from index 4 onward.
        sig = [1.0, 0.05, 0.05, 1.0, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05,
               0.05, 0.05, 0.05, 0.05, 0.05, 0.05]
        rec = make_record(sig, dt=0.5)
        crit = SettlingCriterion(0, 0.0, 0.1)
        assert settling_time(rec, crit) == pytest.approx(2.0)

    def test_never_settles(self):
        rec = make_record(np.ones(10))
        assert settling_time(rec, SettlingCriterion(0, 0.0, 0.1)) is None

    def test_transient_reentry_does_not_count(self):
        # In band early, out at the very end: not settled.
        sig = np.concatenate([np.zeros(9), [5.0]])
        rec = make_record(sig)
        assert settling_time(rec, SettlingCriterion(0, 0.0, 0.1)) is None

    def test_late_settle_counts_as_nonconverged(self):
        # Settles only in the last 10% of the record; the 75% guard rejects.
        sig = np.concatenate([np.ones(19), np.zeros(2)])
        rec = make_record(sig)
        assert settling_time(rec, SettlingCriterion(0, 0.0, 0.1)) is None

    def test_ten_percent_of_a_pi_step_band(self):
        # 10% band on a pi step means half-width 0.1*pi.
        sig = np.concatenate([[3.0], np.full(19, 0.2)])
        rec = make_record(sig)
        crit = SettlingCriterion(0, 0.0, 0.10 * math.pi)
        assert settling_time(rec, crit) == pytest.approx(0.1)

    def test_wrapped_settling(self):
        # Angle sits at 2*pi which is on-target after wrapping.
        sig = np.concatenate([[1.0], np.full(19, 2 * np.pi)])
        rec = make_record(sig)
        crit = SettlingCriterion(0, 0.0, 0.1, wrap_angle=True)
        assert settling_time(rec, crit) == pytest.approx(0.1)

    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            SettlingCriterion(0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1, True,
                                       "0.1"])
    def test_rejects_malformed_band(self, value):
        # A NaN band used to be accepted and never settle.
        with pytest.raises(ValueError, match="band"):
            SettlingCriterion(0, 0.0, value)


class TestStudentTCdf:
    def test_symmetry_at_zero(self):
        assert student_t_cdf(0.0, 5.0) == pytest.approx(0.5, abs=1e-12)

    def test_dof_one_is_cauchy(self):
        # F(1; 1) = 3/4 for the Cauchy distribution.
        assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("t", [-3.0, -0.7, 0.4, 2.5])
    @pytest.mark.parametrize("dof", [1.0, 2.5, 7.0, 30.0])
    def test_matches_scipy(self, t, dof):
        assert student_t_cdf(t, dof) == pytest.approx(
            stats.t.cdf(t, dof), abs=1e-12)

    def test_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            student_t_cdf(0.0, 0.0)


class TestWelch:
    def test_matches_scipy_one_tailed(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, size=8)
        b = rng.normal(0.5, 1.5, size=6)
        t, dof, p = welch_t_test_one_tailed(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False, alternative="less")
        assert t == pytest.approx(ref.statistic, rel=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_clearly_smaller_group(self):
        a = np.array([1.0, 1.1, 0.9, 1.05])
        b = np.array([5.0, 5.2, 4.8, 5.1])
        _, _, p = welch_t_test_one_tailed(a, b)
        assert p < 1e-4

    def test_identical_distributions_near_half(self):
        a = np.array([1.0, 2.0, 3.0])
        _, _, p = welch_t_test_one_tailed(a, a + 0.0)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_direction_matters(self):
        a = np.array([1.0, 1.2, 0.8])
        b = np.array([3.0, 3.3, 2.7])
        _, _, p_ab = welch_t_test_one_tailed(a, b)
        _, _, p_ba = welch_t_test_one_tailed(b, a)
        assert p_ab < 0.05 < p_ba

    def test_rejects_degenerate_groups(self):
        with pytest.raises(ValueError, match="zero variance"):
            welch_t_test_one_tailed([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="two values"):
            welch_t_test_one_tailed([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            welch_t_test_one_tailed([1.0, np.inf], [1.0, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 12),
           st.integers(3, 12))
    def test_scipy_agreement_property(self, seed, na, nb):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=na)
        b = rng.normal(1.0, 2.0, size=nb)
        t, dof, p = welch_t_test_one_tailed(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False, alternative="less")
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


class TestSummarize:
    def test_basic_statistics(self):
        recs = [make_record([v, v]) for v in (1.0, 2.0, 3.0)]
        rows = summarize(recs, {"final": lambda r: r.states[-1, 0]})
        row = rows[0]
        assert row.metric == "final"
        assert row.mean == pytest.approx(2.0)
        assert row.std == pytest.approx(1.0)
        assert row.median == pytest.approx(2.0)
        assert row.n == 3 and row.n_nonconverged == 0

    def test_nonconverged_excluded_but_counted(self):
        recs = [make_record([1.0, 1.0]), make_record([2.0, 2.0]),
                make_record([3.0, 3.0])]

        def metric(r):
            v = r.states[-1, 0]
            return None if v > 2.5 else v

        row = summarize(recs, {"m": metric})[0]
        assert row.mean == pytest.approx(1.5)
        assert row.n == 2 and row.n_nonconverged == 1

    def test_all_nonconverged(self):
        row = summarize([make_record([1.0, 1.0])], {"m": lambda r: None})[0]
        assert math.isnan(row.mean) and row.n == 0 and row.n_nonconverged == 1

    def test_single_trial_std_zero(self):
        row = summarize([make_record([1.0, 1.0])],
                        {"m": lambda r: 4.0})[0]
        assert row.std == 0.0 and row.n == 1

    def test_empty_records_raise(self):
        with pytest.raises(ValueError):
            summarize([], {"m": lambda r: 0.0})
