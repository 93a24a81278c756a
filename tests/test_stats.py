"""Tests for calibration, distribution tests, and detectors."""

import math
import random
import sys
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as scipy_stats

from timecheck import stats
from timecheck.errors import DegenerateSeries, InsufficientSamples
from timecheck.stats import (
    DEFAULT_MODIFIED_Z_THRESHOLD,
    DEFAULT_Z_THRESHOLD,
    DETECTORS,
    BaselineProfile,
    ConfusionRow,
    _chi2_sf,
    _row_statistics,
    _t_two_sided,
    calibrate,
    confusion_report,
    detect,
    ks_test,
    serial_correlation,
    t_test,
)


class TestCalibrate:
    def test_hand_arithmetic(self):
        p = calibrate([1, 2, 3, 4, 5])
        assert p.mean == 3 and p.median == 3 and p.mad == 1
        assert p.n == 5
        assert p.p2_5 == pytest.approx(1.1)
        assert p.p97_5 == pytest.approx(4.9)

    def test_constant_samples_valid_zero_spread(self):
        p = calibrate([7.0] * 10)
        assert p.std == 0.0 and p.mad == 0.0
        with pytest.raises(DegenerateSeries):
            detect("zscore", p, 7.0)
        with pytest.raises(DegenerateSeries):
            detect("modz", p, 7.0)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            calibrate([1.0])

    def test_gaussian_recovery(self):
        rng = random.Random(0)
        xs = [rng.gauss(100.0, 5.0) for _ in range(2000)]
        p = calibrate(xs)
        assert abs(p.mean - 100.0) < 3 * 5.0 / math.sqrt(2000)
        assert abs(p.std - 5.0) < 0.5

    def test_sample_std_uses_n_minus_1(self):
        assert calibrate([1.0, 3.0]).std == pytest.approx(np.std([1, 3], ddof=1))


@st.composite
def quantized_samples(draw, min_size=2, max_size=80):
    """Integer-valued durations with heavy ties, like quantized timing noise."""
    base = draw(st.integers(0, 2 * 10**9))
    steps = draw(st.lists(st.integers(-3, 3) | st.integers(-10**6, 10**6),
                          min_size=min_size, max_size=max_size))
    return [float(base + s) for s in steps]


# Ordinary durations, magnitudes near the largest float, and non-finite values.
EXTREME_FLOATS = (st.floats(-3e9, 3e9)
                  | st.floats(1e307, sys.float_info.max) | st.floats(-sys.float_info.max, -1e307)
                  | st.sampled_from((math.nan, math.inf, -math.inf, 5e-324))).map(lambda v: v + 0.0)
# Rows of n of them, some of one kind alone: only a mixed row is refused most times.
EXTREME_ROW_VALUES = (EXTREME_FLOATS, st.floats(-3e9, 3e9).map(lambda v: v + 0.0),
                      st.floats(1e307, sys.float_info.max), st.sampled_from((0.0, 5e-324, 1e300)))


def _outcome(fn):
    """fn()'s result, or the type of the calibration or detector error it raised."""
    try:
        return fn()
    except (DegenerateSeries, InsufficientSamples) as exc:
        return type(exc)


@st.composite
def mostly_tied_samples(draw):
    """Baselines with at least half their points on one value, so MADs of 0 are common."""
    n = draw(st.integers(3, 60))
    base = draw(st.integers(0, 2 * 10**9))
    others = draw(st.lists(st.integers(-300, 300), min_size=n // 2, max_size=n // 2))
    return draw(st.permutations([float(base)] * (n - n // 2) + [float(base + o) for o in others]))


def _error_or(fn):
    """fn()'s result, or the type and message of the detector error it raised."""
    try:
        return fn()
    except DegenerateSeries as exc:
        return type(exc), str(exc)


def _scalar_loo_counts(base, attack, method):
    full = calibrate(base)
    fp = sum(detect(method, calibrate(base[:i] + base[i + 1:]), v).flagged
             for i, v in enumerate(base))
    misses = sum(not detect(method, full, v).flagged for v in attack)
    return fp, misses


class TestCalibrateRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 80).flatmap(lambda n: st.lists(
        quantized_samples(min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_rows_equal_one_row_calibration(self, rows):
        # confusion_report's batched profiles rely on this equality
        columns = _row_statistics(np.array(rows))
        for i, row in enumerate(rows):
            assert tuple(column[i] for column in columns) == astuple(calibrate(row))[2:]

    @settings(max_examples=100, deadline=None)
    @given(quantized_samples(), quantized_samples(min_size=1, max_size=20))
    def test_batched_loo_equals_scalar_loop(self, base, attack):
        for method in ("percentile", "zscore", "modz"):
            got = _outcome(lambda: confusion_report(base, attack, methods=(method,)))
            want = _outcome(lambda: _scalar_loo_counts(base, attack, method))
            if isinstance(want, tuple):
                row = got[method]
                assert (row.false_positives, row.false_negatives) == want
            else:
                assert got is want

    @settings(max_examples=150, deadline=None)
    @given(quantized_samples(min_size=3) | mostly_tied_samples(),
           quantized_samples(min_size=1, max_size=20))
    def test_array_scores_equal_scalar_detectors(self, base, attack):
        # leave-one-out columns against baseline points, the full profile
        # against attack points: every score bit-identical to detect()
        n = len(base)
        columns = BaselineProfile((), n - 1, *_row_statistics(
            np.array([base[:i] + base[i + 1:] for i in range(n)])))
        full = calibrate(base)
        for method, score in DETECTORS.items():
            for against, points, profiles in (
                    (columns, base, [calibrate(base[:i] + base[i + 1:]) for i in range(n)]),
                    (full, attack, [full] * len(attack))):
                got = _error_or(lambda: score(against, np.array(points)))
                want = _error_or(lambda: [detect(method, prof, v)
                                          for prof, v in zip(profiles, points)])
                if isinstance(want, list):
                    scores, flags, _ = got
                    assert scores.tolist() == [v.score for v in want]
                    assert flags.tolist() == [v.flagged for v in want]
                else:
                    assert got == want

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 200).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from((0.0, 1.0, -1.0, 2e9, 2e9 + 0.5, -2e9)), min_size=n, max_size=n)
        | st.lists(st.floats(-3e9, 3e9).map(lambda v: v + 0.0), min_size=n, max_size=n)
        | quantized_samples(min_size=n, max_size=n), min_size=1, max_size=4)))
    def test_row_statistics_equal_numpy(self, rows):
        # numpy's median and linear percentile as the oracle, bit for bit
        # (+ 0.0 makes every zero positive: -0.0 == 0.0 leaves a tied zero's sign open)
        arr = np.array(rows)
        median = np.median(arr, axis=1)
        deviation = np.abs(arr - median[:, np.newaxis])
        want = (arr.mean(axis=1), arr.std(axis=1, ddof=1), median,
                np.median(deviation, axis=1), *np.percentile(arr, (2.5, 97.5), axis=1),
                deviation.mean(axis=1))
        got = _row_statistics(arr)
        assert [column.tobytes() for column in got] == [column.tobytes() for column in want]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_refused(self, bad):
        # a sorted copy puts NaN last: the median would be finite and wrong
        with pytest.raises(ValueError, match="^1 of 1 baselines have a statistic that is not"):
            calibrate([1.0, 2.0, bad, 4.0, 5.0])
        base = [[1.0, 2.0, 3.0], [bad, 2.0, bad]]
        with pytest.raises(ValueError, match="^1 of 2 baselines have a statistic that is not"):
            confusion_report(base, [[9.0], [9.0]])

    def test_overflowing_sum_refused(self):
        # every sample is finite, but their sum is not: the mean would read inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor does numpy warn of the overflow
            with pytest.raises(ValueError, match=r"^1 of 1 baselines .* a sum overflows\)$"):
                calibrate([1e308, 1.7e308, 1.5e308])
            with pytest.raises(ValueError, match="^1 of 2 baselines have a statistic"):
                confusion_report([[1.0, 2.0, 3.0, 4.0], [1e308, 1.7e308, 1.5e308, 1.2e308]],
                                 [[9.0], [9.0]])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 60).flatmap(lambda n: st.lists(
        st.sampled_from(EXTREME_ROW_VALUES).flatmap(
            lambda values: st.lists(values, min_size=n, max_size=n)), min_size=1, max_size=3)),
        EXTREME_FLOATS.filter(math.isfinite))
    def test_statistics_are_finite_or_refused(self, rows, point):
        arr = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):  # test_row_statistics_equal_numpy's oracle
            median = np.median(arr, axis=1)
            deviation = np.abs(arr - median[:, np.newaxis])
            want = (arr.mean(axis=1), arr.std(axis=1, ddof=1), median,
                    np.median(deviation, axis=1), *np.percentile(arr, (2.5, 97.5), axis=1),
                    deviation.mean(axis=1))
        bad = len(rows) - np.count_nonzero(np.isfinite(want).all(axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if bad:
                with pytest.raises(ValueError, match=f"^{bad} of {len(rows)} baselines"):
                    _row_statistics(arr)
                return
            got = _row_statistics(arr)
        assert all(np.isfinite(column).all() for column in got)
        assert [(column + 0.0).tobytes() for column in got] == [
            (column + 0.0).tobytes() for column in want]
        # Every detector scores every finite point finitely, without a warning,
        # or refuses the profile: a MAD of 5e-324 would score a point +-inf.
        for row in rows:
            profile = calibrate(row)
            for method in DETECTORS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    verdicts = _error_or(lambda: [detect(method, profile, v) for v in
                                                  (profile.median, point, *row)])
                if isinstance(verdicts, tuple):
                    assert verdicts[0] is DegenerateSeries
                    continue
                assert all(math.isfinite(v.score) for v in verdicts)

    def test_two_point_baseline_leaves_one(self):
        with pytest.raises(InsufficientSamples, match="needs >= 2 samples, got 1"):
            confusion_report([1.0, 2.0], [5.0])

    def test_single_column_rejected(self):
        with pytest.raises(InsufficientSamples, match="got 1"):
            _row_statistics(np.ones((4, 1)))


class TestSerialCorrelation:
    def test_alternating_series_flagged(self):
        sc = serial_correlation([1.0, -1.0] * 25, 3)
        assert sc.autocorr[0] == pytest.approx(-0.98, abs=0.02)
        assert 1 in sc.flagged_lags
        assert not sc.white

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeries):
            serial_correlation([3.0] * 50, 5)

    def test_lag_bounds(self):
        with pytest.raises(InsufficientSamples):
            serial_correlation([1.0, 2.0, 3.0], 3)

    def test_iid_noise_mostly_white(self):
        rng = random.Random(1)
        ok = 0
        for _ in range(40):
            xs = [rng.gauss(0, 1) for _ in range(50)]
            ok += serial_correlation(xs, 10).white
        assert ok >= 34  # Ljung-Box at 95%: ~5% false alarms expected

    def test_band_value(self):
        sc = serial_correlation(list(np.random.default_rng(2).normal(size=50)), 5)
        assert sc.band == pytest.approx(1.96 / math.sqrt(50))


class TestTTest:
    def test_identical_samples(self):
        t, p = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == 1.0

    def test_scipy_oracle_fixed_vectors(self):
        rng = np.random.default_rng(3)
        a = rng.normal(10, 2, 40)
        b = rng.normal(11, 3, 55)
        t, p = t_test(a, b)
        t_ref, p_ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(float(t_ref), rel=1e-12)
        assert p == pytest.approx(float(p_ref), rel=1e-10)

    def test_separated_scenarios_tiny_p(self):
        rng = random.Random(4)
        base = [rng.gauss(9.591e6, 185) for _ in range(50)]
        dram = [rng.gauss(9.595e6, 130) for _ in range(50)]
        _, p = t_test(base, dram)
        assert p < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(0, 1, 30), rng.normal(1, 2, 30)
        ta, pa = t_test(a, b)
        tb, pb = t_test(b, a)
        assert ta == -tb and pa == pb

    def test_degenerate(self):
        with pytest.raises(DegenerateSeries):
            t_test([5.0, 5.0, 5.0], [5.0, 5.0])
        with pytest.raises(InsufficientSamples):
            t_test([1.0], [1.0, 2.0])
        for a, b in (([], [1.0]), ([1.0], [])):  # the KS test needs a sample per side
            with pytest.raises(InsufficientSamples, match="needs >= 1 sample per side"):
                ks_test(a, b)


class TestTails:
    """The standard-library tails against scipy.special, kept as a test-only oracle,
    wherever scipy's value is at least 1e-300."""

    def test_chi2_tail_matches_scipy(self):
        qs = np.concatenate([np.linspace(0.0, 200.0, 4001), np.geomspace(1e-9, 200.0, 500)])
        for k in range(1, 11):
            ref = special.chdtrc(k, qs)
            got = np.array([_chi2_sf(k, q) for q in qs.tolist()])
            keep = ref >= 1e-300
            assert np.max(np.abs(got[keep] - ref[keep]) / ref[keep]) <= 1e-12, k

    @pytest.mark.parametrize("k, q", [(1000, 1450.0), (2001, 2000.0), (3000, 3000.0),
                                      (3001, 3600.0)])
    def test_chi2_tail_of_many_lags_past_exp_underflow(self, k, q):
        # e^(-q/2) underflows here, but the tail of a white series over k lags does not
        ref = float(special.chdtrc(k, q))
        assert _chi2_sf(k, q) == pytest.approx(ref, rel=1e-12)

    def test_t_tail_matches_scipy_up_to_the_underflow_edge(self):
        # 1e-11 from 30 df on; below, 1e-10 covers scipy's own error: at df = 1,
        # t = 1e-6 scipy is 2.8e-11 off the exact 1 - (2/pi) atan(t)
        dfs = np.concatenate([np.arange(1.0, 31.0), np.geomspace(1.0, 1e8, 60),
                              np.random.default_rng(9).uniform(1.0, 3000.0, 20),
                              np.random.default_rng(10).uniform(3000.0, 1e8, 20)])
        probe = np.geomspace(1e-3, 1e154, 20_000)  # t * t stays finite
        for df in dfs.tolist():
            edge = probe[2.0 * special.stdtr(df, -probe) >= 1e-300][-1]  # the last probe kept
            ts = np.concatenate([np.linspace(0.0, 3.0, 61), np.geomspace(1e-6, edge, 300)])
            ref = 2.0 * special.stdtr(df, -ts)
            got = np.array([_t_two_sided(df, t) for t in ts.tolist()])
            bound = 1e-11 if df >= 30.0 else 1e-10
            assert np.max(np.abs(got - ref) / ref) <= bound, df

    def test_t_tail_at_zero_is_one_and_even_in_t(self):
        for df in (1.0, 2.5, 37.0, 2999.0):
            assert _t_two_sided(df, 0.0) == 1.0
            for t in (1e-9, 0.3, 1.7, 4.0, 60.0):
                assert _t_two_sided(df, t) == _t_two_sided(df, -t)


class TestKsTest:
    def test_identical_samples(self):
        d, p = ks_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d == 0.0 and p == 1.0

    def test_disjoint_supports(self):
        d, p = ks_test([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert d == 1.0

    def test_statistic_matches_scipy_exactly(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 1, 47)
        b = rng.normal(0.3, 1.4, 61)
        d, _ = ks_test(a, b)
        ref = scipy_stats.ks_2samp(a, b)
        assert d == pytest.approx(float(ref.statistic), abs=1e-15)

    def test_pvalue_matches_kolmogorov_limit(self):
        # oracle: scipy's independent implementation of the limiting law
        rng = np.random.default_rng(7)
        a = rng.normal(0, 1, 50)
        b = rng.normal(0.5, 1, 60)
        d, p = ks_test(a, b)
        en = math.sqrt(50 * 60 / 110)
        assert p == pytest.approx(float(special.kolmogorov(en * d)), abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(0, 1, 30), rng.normal(1, 1, 40)
        da, pa = ks_test(a, b)
        db, pb = ks_test(b, a)
        assert da == db and pa == pb

    def test_ties_handled(self):
        d, _ = ks_test([1, 1, 1, 2], [1, 2, 2, 2])
        assert d == pytest.approx(0.5)


class TestDetectors:
    @pytest.fixture
    def profile(self):
        rng = random.Random(9)
        return calibrate([rng.gauss(1000.0, 10.0) for _ in range(200)])

    def test_percentile_band(self, profile):
        assert not detect("percentile", profile, profile.median).flagged
        assert detect("percentile", profile, max(profile.samples) + 100).flagged
        assert detect("percentile", profile, min(profile.samples) - 100).flagged

    def test_percentile_exhaustive_sweep(self, profile):
        # flags exactly the points strictly outside [p2.5, p97.5]
        for v in profile.samples:
            expect = v < profile.p2_5 or v > profile.p97_5
            assert detect("percentile", profile, v).flagged == expect

    def test_zscore(self, profile):
        assert detect("zscore", profile, profile.mean).score == 0.0
        assert not detect("zscore", profile, profile.mean).flagged
        v = detect("zscore", profile, profile.mean + 3 * profile.std)
        assert v.flagged and v.score == pytest.approx(3.0)

    def test_verdict_reports_its_threshold(self, profile):
        band = (profile.p2_5, profile.p97_5)
        for method, threshold in (("percentile", band), ("zscore", DEFAULT_Z_THRESHOLD),
                                  ("modz", DEFAULT_MODIFIED_Z_THRESHOLD)):
            assert detect(method, profile, profile.mean).threshold == threshold
        assert detect("zscore", profile, profile.mean + 2.5 * profile.std).flagged
        assert not detect("zscore", profile, profile.mean + 1.5 * profile.std).flagged

    def test_modified_z_center(self):
        p = calibrate([1, 2, 3, 4, 5])
        assert detect("modz", p, 3).score == 0.0
        assert detect("modz", p, 3 + 1 / 0.6745 * 2.6).flagged

    def test_modified_z_meanad_fallback(self):
        # three of five points on the median: MAD 0, MeanAD (0 + 0 + 0 + 1 + 4) / 5
        p = calibrate([5, 5, 5, 6, 9])
        assert p.mad == 0.0 and p.mean_ad == 1.0
        assert detect("modz", p, 9).score == 4 / 1.253314
        assert not detect("modz", p, 7).flagged
        assert detect("modz", p, 8.5).flagged

    def test_translation_consistency(self):
        rng = random.Random(10)
        xs = [rng.gauss(0.0, 3.0) for _ in range(100)]
        points = [rng.gauss(0.0, 9.0) for _ in range(50)]
        shift = 5.0e6
        p0 = calibrate(xs)
        p1 = calibrate([x + shift for x in xs])
        for pt in points:
            for method in ("percentile", "zscore", "modz"):
                assert (detect(method, p0, pt).flagged
                        == detect(method, p1, pt + shift).flagged)

    def test_zscore_gaussian_fpr_converges(self):
        # two-sided tail mass beyond 2 sigma is ~4.55%
        rng = random.Random(11)
        xs = [rng.gauss(0.0, 1.0) for _ in range(100_000)]
        p = calibrate(xs)
        fpr = sum(detect("zscore", p, x).flagged for x in xs) / len(xs)
        assert abs(fpr - 0.0455) < 0.005

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            detect("magic", calibrate([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("samples, point, refused", [
        ([0.0, 0.0, 0.0, 5e-324, 5e-324, 5e-324, 1.0], 1.0, {"modz"}),  # subnormal MAD
        ([-1.0, 0.0, 1e-300, 2e-300, 1.0], 1e10, {"modz"}),  # normal but tiny MAD
        ([0.0, 1e-160], 1e160, {"modz", "zscore"}),  # a std of 7e-161, squared subnormal
    ])
    @pytest.mark.parametrize("method", list(DETECTORS))
    def test_no_finite_point_scores_infinite(self, method, samples, point, refused):
        # every statistic is finite, but a spread this small would score the point
        # +-inf: the detector refuses the profile instead, and numpy warns of nothing
        profile = calibrate(samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = _error_or(lambda: detect(method, profile, point))
        if method in refused:
            assert verdict[0] is DegenerateSeries
            assert verdict[1].endswith(", and one that scores every finite point finitely")
        else:
            assert math.isfinite(verdict.score) and verdict.flagged


@st.composite
def paired_runs(draw):
    """1-5 runs of equal-length baseline and attack rows; some rows constant or nearly so."""
    n = draw(st.integers(3, 30))
    m = draw(st.integers(1, 10))
    row = st.one_of([quantized_samples(min_size=n, max_size=n)] * 6 + [
        st.lists(st.sampled_from((5e8, 5e8 + 131.0)), min_size=n, max_size=n)])
    return draw(st.lists(st.tuples(row, quantized_samples(min_size=m, max_size=m)),
                         min_size=1, max_size=5))


ALL_METHODS = tuple(DETECTORS)


class TestConfusionReport:
    @settings(max_examples=150, deadline=None)
    @given(paired_runs())
    def test_rows_pool_their_one_row_reports(self, runs):
        got = _error_or(lambda: confusion_report(np.array([b for b, _ in runs]),
                                                 np.array([a for _, a in runs]),
                                                 methods=ALL_METHODS))
        per_row = [_error_or(lambda: confusion_report(b, a, methods=ALL_METHODS))
                   for b, a in runs]
        errors = [r for r in per_row if not isinstance(r, dict)]
        if errors:
            assert got == errors[0]
            return
        for method in ALL_METHODS:
            rows = [r[method] for r in per_row]
            fp = sum(r.false_positives for r in rows)
            misses = sum(r.false_negatives for r in rows)
            n_base = sum(r.baseline_count for r in rows)
            n_atk = sum(r.attack_count for r in rows)
            assert got[method] == ConfusionRow(method, fp / n_base, misses / n_atk,
                                               fp, n_base, misses, n_atk)

    def test_one_degenerate_row_raises_for_all(self):
        rng = random.Random(15)
        base = [[rng.gauss(100.0, 5.0) for _ in range(20)] for _ in range(3)]
        base[1] = [100.0] * 19 + [104.0]  # leaving out 104 leaves a constant row
        attack = [[130.0]] * 3
        with pytest.raises(DegenerateSeries, match="z-score needs nonzero baseline spread"):
            confusion_report(base, attack, methods=("percentile", "zscore"))

    @pytest.fixture
    def loo_batches(self, monkeypatch):
        """The number of runs in each leave-one-out matrix, in call order."""
        sizes = []
        leave_one_out = stats._leave_one_out

        def counting_leave_one_out(rows):
            sizes.append(len(rows))
            return leave_one_out(rows)

        monkeypatch.setattr(stats, "_leave_one_out", counting_leave_one_out)
        return sizes

    @pytest.mark.parametrize("runs_per_batch, want_batches",
                             [(1, [1] * 8), (3, [3, 3, 2]), (8, [8])])
    def test_batches_pool_their_one_row_reports(self, monkeypatch, loo_batches,
                                                runs_per_batch, want_batches):
        # 8 runs of 20 baseline points: batches of one run, of a few, and of all
        rng = random.Random(16)
        base = np.array([[rng.gauss(100.0, 5.0) for _ in range(20)] for _ in range(8)])
        attack = np.array([[rng.gauss(112.0, 5.0) for _ in range(6)] for _ in range(8)])
        per_row = [confusion_report(b, a, methods=ALL_METHODS) for b, a in zip(base, attack)]
        monkeypatch.setattr(stats, "LOO_BATCH_VALUES", runs_per_batch * 20 * 19)
        del loo_batches[:]
        got = confusion_report(base, attack, methods=ALL_METHODS)
        assert loo_batches == want_batches
        for method in ALL_METHODS:
            fp = sum(r[method].false_positives for r in per_row)
            misses = sum(r[method].false_negatives for r in per_row)
            assert got[method] == ConfusionRow(method, fp / 160, misses / 48, fp, 160, misses, 48)

    @pytest.mark.parametrize("runs_per_batch", [1, 3, 8])
    @pytest.mark.parametrize("bad_run", [0, 4, 7])
    def test_degenerate_run_raises_from_any_batch(self, monkeypatch, runs_per_batch, bad_run):
        rng = random.Random(17)
        base = [[rng.gauss(100.0, 5.0) for _ in range(20)] for _ in range(8)]
        base[bad_run] = [100.0] * 19 + [104.0]  # leaving out 104 leaves a constant row
        monkeypatch.setattr(stats, "LOO_BATCH_VALUES", runs_per_batch * 20 * 19)
        with pytest.raises(DegenerateSeries, match="z-score needs nonzero baseline spread"):
            confusion_report(base, [[130.0]] * 8, methods=("percentile", "zscore"))

    def test_row_counts_must_match(self):
        with pytest.raises(ValueError):
            confusion_report(np.ones((3, 5)), np.ones((2, 4)))

    def test_perfect_separation(self):
        rng = random.Random(12)
        base = [rng.uniform(-100, 100) for _ in range(50)]
        attack = [rng.uniform(4000, 4200) for _ in range(50)]
        rows = confusion_report(base, attack, methods=("zscore", "modz"))
        assert rows["zscore"].fnr == 0.0
        assert rows["modz"].fnr == 0.0
        assert rows["zscore"].fpr == 0.0

    def test_attack_drawn_from_baseline_misses(self):
        # exchangeable points: FNR complements the per-method flag rate
        rng = random.Random(13)
        pool = [rng.gauss(0, 1) for _ in range(100)]
        rows = confusion_report(pool[:50], pool[50:], methods=("zscore",))
        assert rows["zscore"].fnr > 0.9

    def test_empty_sets_rejected(self):
        with pytest.raises(InsufficientSamples):
            confusion_report([], [1.0])

    def test_leave_one_out_memory_is_a_few_matrices(self):
        # n leave-one-out profiles must not each keep n-1 samples: the peak
        # stays within a few copies of the n x (n-1) float matrix
        rng = random.Random(14)
        n = 1000
        base = [rng.gauss(100.0, 5.0) for _ in range(n)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            confusion_report(base, [130.0])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * (n - 1) * 8
