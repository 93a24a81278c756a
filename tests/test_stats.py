"""Tests for calibration, distribution tests, and detectors."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as scipy_stats

from timecheck.errors import DegenerateSeries, InsufficientSamples
from timecheck.stats import (
    _SCORES,
    DETECTORS,
    BaselineProfile,
    ConfusionRow,
    _row_statistics,
    calibrate,
    calibrate_rows,
    confusion_report,
    detect,
    detect_chebyshev,
    detect_modified_z,
    detect_percentile,
    detect_zscore,
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
            detect_zscore(p, 7.0)
        with pytest.raises(DegenerateSeries):
            detect_modified_z(p, 7.0)

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
    fn = DETECTORS[method]
    full = calibrate(base)
    fp = sum(fn(calibrate(base[:i] + base[i + 1:]), v).flagged for i, v in enumerate(base))
    misses = sum(not fn(full, v).flagged for v in attack)
    return fp, misses


class TestCalibrateRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 80).flatmap(lambda n: st.lists(
        quantized_samples(min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_rows_equal_one_row_calibration(self, rows):
        profiles = calibrate_rows(np.array(rows))
        assert len(profiles) == len(rows)
        for row, prof in zip(rows, profiles):
            assert prof == calibrate(row)

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
        # against attack points: every score bit-identical to detect_*
        n = len(base)
        columns = BaselineProfile((), n - 1, *_row_statistics(
            np.array([base[:i] + base[i + 1:] for i in range(n)])))
        full = calibrate(base)
        for method, detector in DETECTORS.items():
            for against, points, profiles in (
                    (columns, base, [calibrate(base[:i] + base[i + 1:]) for i in range(n)]),
                    (full, attack, [full] * len(attack))):
                got = _error_or(lambda: _SCORES[method](against, np.array(points)))
                want = _error_or(lambda: [detector(prof, v)
                                          for prof, v in zip(profiles, points)])
                if isinstance(want, list):
                    scores, flags = got
                    assert scores.tolist() == [v.score for v in want]
                    assert flags.tolist() == [v.flagged for v in want]
                else:
                    assert got == want

    def test_two_point_baseline_leaves_one(self):
        with pytest.raises(InsufficientSamples, match="needs >= 2 samples, got 1"):
            confusion_report([1.0, 2.0], [5.0])

    def test_single_column_rejected(self):
        with pytest.raises(InsufficientSamples, match="got 1"):
            calibrate_rows(np.ones((4, 1)))


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
        assert not detect_percentile(profile, profile.median).flagged
        assert detect_percentile(profile, max(profile.samples) + 100).flagged
        assert detect_percentile(profile, min(profile.samples) - 100).flagged

    def test_percentile_exhaustive_sweep(self, profile):
        # flags exactly the points strictly outside [p2.5, p97.5]
        for v in profile.samples:
            expect = v < profile.p2_5 or v > profile.p97_5
            assert detect_percentile(profile, v).flagged == expect

    def test_zscore(self, profile):
        assert detect_zscore(profile, profile.mean).score == 0.0
        assert not detect_zscore(profile, profile.mean).flagged
        v = detect_zscore(profile, profile.mean + 3 * profile.std)
        assert v.flagged and v.score == pytest.approx(3.0)

    def test_zscore_threshold_configurable(self, profile):
        point = profile.mean + 2.5 * profile.std
        assert detect_zscore(profile, point, threshold=2.0).flagged
        assert not detect_zscore(profile, point, threshold=3.0).flagged

    def test_modified_z_center(self):
        p = calibrate([1, 2, 3, 4, 5])
        assert detect_modified_z(p, 3).score == 0.0
        assert detect_modified_z(p, 3 + 1 / 0.6745 * 2.6).flagged

    def test_modified_z_meanad_fallback(self):
        # three of five points on the median: MAD 0, MeanAD (0 + 0 + 0 + 1 + 4) / 5
        p = calibrate([5, 5, 5, 6, 9])
        assert p.mad == 0.0 and p.mean_ad == 1.0
        assert detect_modified_z(p, 9).score == 4 / 1.253314
        assert not detect_modified_z(p, 7).flagged
        assert detect_modified_z(p, 8.5).flagged

    def test_chebyshev(self, profile):
        assert not detect_chebyshev(profile, profile.mean + profile.std).flagged
        far = profile.mean + 215 * profile.std
        assert detect_chebyshev(profile, far).flagged
        assert 1 / 31.6 ** 2 < 0.0011  # bound claimed by the default k

    def test_translation_consistency(self):
        rng = random.Random(10)
        xs = [rng.gauss(0.0, 3.0) for _ in range(100)]
        points = [rng.gauss(0.0, 9.0) for _ in range(50)]
        shift = 5.0e6
        p0 = calibrate(xs)
        p1 = calibrate([x + shift for x in xs])
        for pt in points:
            for method in ("percentile", "zscore", "modz", "chebyshev"):
                assert (detect(method, p0, pt).flagged
                        == detect(method, p1, pt + shift).flagged)

    def test_zscore_gaussian_fpr_converges(self):
        # two-sided tail mass beyond 2 sigma is ~4.55%
        rng = random.Random(11)
        xs = [rng.gauss(0.0, 1.0) for _ in range(100_000)]
        p = calibrate(xs)
        fpr = sum(detect_zscore(p, x).flagged for x in xs) / len(xs)
        assert abs(fpr - 0.0455) < 0.005

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            detect("magic", calibrate([1.0, 2.0]), 1.0)


@st.composite
def paired_runs(draw):
    """1-5 runs of equal-length baseline and attack rows; some rows constant or nearly so."""
    n = draw(st.integers(3, 30))
    m = draw(st.integers(1, 10))
    row = st.one_of([quantized_samples(min_size=n, max_size=n)] * 6 + [
        st.lists(st.sampled_from((5e8, 5e8 + 131.0)), min_size=n, max_size=n)])
    return draw(st.lists(st.tuples(row, quantized_samples(min_size=m, max_size=m)),
                         min_size=1, max_size=5))


ALL_METHODS = tuple(_SCORES)


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

    def test_explicit_profile_disables_loo(self):
        base = [float(i) for i in range(50)]
        profile = calibrate(base)
        rows = confusion_report(base, [1000.0], methods=("percentile",), profile=profile)
        # self-inclusive: only points strictly outside the band flag
        flagged = sum(detect_percentile(profile, v).flagged for v in base)
        assert rows["percentile"].false_positives == flagged

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
