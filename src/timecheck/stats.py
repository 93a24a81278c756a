"""Baseline calibration and the statistical decision pipeline.

Calibration turns a batch of timed trials into a BaselineProfile holding
location, spread, and tail statistics. Detectors classify a single timing
against that profile; distribution tests compare whole batches.

Everything here is pure over immutable inputs and safe for concurrent use.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateSeries, InsufficientSamples

# Normal-consistency constant for the modified z-score (Iglewicz & Hoaglin):
# for gaussian data, 0.6745 * dev / MAD estimates the ordinary z.
MODIFIED_Z_SCALE = 0.6745
# Where the MAD is 0, sqrt(pi/2) * MeanAD estimates the gaussian sigma instead.
MEANAD_SCALE = 1.253314

DEFAULT_Z_THRESHOLD = 2.0
DEFAULT_MODIFIED_Z_THRESHOLD = 2.5
DEFAULT_CHEBYSHEV_K = 31.6

# Below this combined effective size the asymptotic two-sample KS p-value is
# only indicative; the D statistic itself is always exact.
KS_ASYMPTOTIC_MIN_N = 35


@dataclass(frozen=True)
class BaselineProfile:
    """Calibration sample with derived statistics used by every detector."""

    samples: tuple
    n: int
    mean: float
    std: float      # sample standard deviation, n-1 denominator
    median: float
    mad: float      # median absolute deviation
    p2_5: float
    p97_5: float
    mean_ad: float  # mean absolute deviation about the median


def calibrate(samples) -> BaselineProfile:
    """Build a BaselineProfile; percentiles use linear rank interpolation."""
    return calibrate_rows(np.asarray(list(samples), dtype=float)[np.newaxis, :])[0]


def calibrate_rows(rows) -> list:
    """One BaselineProfile per row of a 2-D array, all rows calibrated at once.

    Every statistic is one numpy reduction along axis 1, so a batch of
    equal-length baselines pays numpy's per-call overhead once instead of
    once per baseline. Each profile equals the one-row calibration of its
    row exactly: the axis reductions run the same arithmetic as their 1-D
    forms.
    """
    arr = np.asarray(rows, dtype=float)
    stats = zip(*(column.tolist() for column in _row_statistics(arr)))
    # rows convert one at a time, so no list of all rows sits beside the tuples
    return [BaselineProfile(tuple(row.tolist()), row.size, *stat)
            for row, stat in zip(arr, stats)]


def _row_statistics(arr: np.ndarray) -> tuple:
    """Per row of a 2-D float array: (mean, std, median, mad, p2_5, p97_5, mean_ad).

    Each entry is a float64 column with one value per row, in
    BaselineProfile's field order after samples and n.
    """
    if arr.shape[1] < 2:
        raise InsufficientSamples(f"calibration needs >= 2 samples, got {arr.shape[1]}")
    median = np.median(arr, axis=1)
    deviation = arr - median[:, np.newaxis]
    np.abs(deviation, out=deviation)
    mean_ad = deviation.mean(axis=1)
    mad = np.median(deviation, axis=1, overwrite_input=True)
    del deviation  # one array of arr's size at a time beside arr
    p2_5, p97_5 = np.percentile(arr, (2.5, 97.5), axis=1)
    return arr.mean(axis=1), arr.std(axis=1, ddof=1), median, mad, p2_5, p97_5, mean_ad


# --- serial correlation ------------------------------------------------------

@dataclass(frozen=True)
class SerialCorrelation:
    """Per-lag autocorrelations with a pointwise band and a whiteness verdict."""

    lags: tuple
    autocorr: tuple
    band: float              # pointwise 95% band: 1.96/sqrt(n)
    flagged_lags: tuple      # lags whose |r| exceeds the band
    q_stat: float            # Ljung-Box portmanteau statistic over all lags
    q_pvalue: float
    white: bool              # Ljung-Box at 95%: fails only on real structure


def serial_correlation(samples, max_lag: int) -> SerialCorrelation:
    """Sample autocorrelations for lags 1..max_lag plus a whiteness verdict.

    Pointwise flags use the +/-1.96/sqrt(n) band. Because roughly 5% of lags
    from white noise poke outside a 95% band by chance, the overall verdict
    comes from the Ljung-Box portmanteau test at the same confidence instead
    of demanding that every lag stay inside.
    """
    arr = np.asarray(list(samples), dtype=float)
    n = arr.size
    if not 1 <= max_lag < n:
        raise InsufficientSamples(f"need n > max_lag >= 1 (n={n}, max_lag={max_lag})")
    centered = arr - arr.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise DegenerateSeries("autocorrelation undefined for a constant series")
    rs = []
    for lag in range(1, max_lag + 1):
        rs.append(float(np.dot(centered[:-lag], centered[lag:])) / denom)
    band = 1.96 / math.sqrt(n)
    flagged = tuple(lag for lag, r in zip(range(1, max_lag + 1), rs) if abs(r) > band)
    q = n * (n + 2) * sum(r * r / (n - lag)
                          for lag, r in zip(range(1, max_lag + 1), rs))
    q_pvalue = float(special.chdtrc(max_lag, q))
    return SerialCorrelation(
        lags=tuple(range(1, max_lag + 1)),
        autocorr=tuple(rs),
        band=band,
        flagged_lags=flagged,
        q_stat=float(q),
        q_pvalue=q_pvalue,
        white=q_pvalue > 0.05,
    )


# --- two-sample tests --------------------------------------------------------

def t_test(a, b):
    """Welch's unequal-variance t-test; returns (t, two-sided p).

    Degrees of freedom by Welch-Satterthwaite; the p-value comes from the
    Student t CDF. Pooled-variance is deliberately not offered: scenario
    spreads differ.
    """
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if xa.size < 2 or xb.size < 2:
        raise InsufficientSamples("t-test needs >= 2 samples per side")
    va = xa.var(ddof=1)
    vb = xb.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise DegenerateSeries("both samples are constant; t statistic undefined")
    sa = va / xa.size
    sb = vb / xb.size
    t = (xa.mean() - xb.mean()) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa ** 2 / (xa.size - 1) + sb ** 2 / (xb.size - 1))
    p = 2.0 * float(special.stdtr(df, -abs(t)))
    return float(t), min(1.0, p)


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Uses the theta-function form for small x (where the alternating series
    converges slowly) and the alternating series otherwise.
    """
    if x <= 0.0:
        return 1.0
    if x < 1.18:
        t = math.exp(-math.pi ** 2 / (8.0 * x * x))
        cdf = math.sqrt(2.0 * math.pi) / x * (t + t ** 9 + t ** 25)
        return max(0.0, min(1.0, 1.0 - cdf))
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * x * x)
        total += sign * term
        sign = -sign
        if term < 1e-16:
            break
    return max(0.0, min(1.0, 2.0 * total))


def ks_test(a, b):
    """Two-sample Kolmogorov-Smirnov test; returns (D, asymptotic p).

    D is the exact max ECDF distance (tie-safe); the p-value uses the
    asymptotic Kolmogorov distribution, which is only indicative when the
    combined effective sample size falls below KS_ASYMPTOTIC_MIN_N.
    """
    xa = np.sort(np.asarray(list(a), dtype=float))
    xb = np.sort(np.asarray(list(b), dtype=float))
    if xa.size < 1 or xb.size < 1:
        raise InsufficientSamples("ks-test needs >= 1 sample per side")
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    en = math.sqrt(xa.size * xb.size / (xa.size + xb.size))
    return d, _kolmogorov_sf(en * d)


# --- single-point detectors --------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One detector's call on one timing measurement."""

    method: str
    score: float
    flagged: bool
    threshold: object


# Each detector's arithmetic is written once, as a score-and-flag function of a
# profile and points: floats for one point, or float64 arrays in which entry i
# of every field belongs to point i. numpy runs the same IEEE operations in the
# same order as Python floats, so both forms give bit-identical scores.

def _require_spread(spread, message: str):
    if np.any(spread == 0.0):
        raise DegenerateSeries(message)


def _score_percentile(profile, points):
    return points, (points < profile.p2_5) | (points > profile.p97_5)


def _score_zscore(profile, points, threshold=DEFAULT_Z_THRESHOLD):
    _require_spread(profile.std, "z-score needs nonzero baseline spread")
    z = (points - profile.mean) / profile.std
    return z, abs(z) > threshold


def _score_modified_z(profile, points, threshold=DEFAULT_MODIFIED_Z_THRESHOLD):
    has_mad = profile.mad != 0.0
    spread = np.where(has_mad, profile.mad, MEANAD_SCALE * profile.mean_ad)
    _require_spread(spread, "modified z-score needs nonzero baseline MAD or MeanAD")
    m = np.where(has_mad, MODIFIED_Z_SCALE, 1.0) * (points - profile.median) / spread
    return m, abs(m) > threshold


def _score_chebyshev(profile, points, k_sigma=DEFAULT_CHEBYSHEV_K):
    _require_spread(profile.std, "chebyshev bound needs nonzero baseline spread")
    score = abs(points - profile.mean) / profile.std
    return score, score > k_sigma


_SCORES = {
    "percentile": _score_percentile,
    "zscore": _score_zscore,
    "modz": _score_modified_z,
    "chebyshev": _score_chebyshev,
}


def detect_percentile(profile: BaselineProfile, point: float) -> Verdict:
    """Non-parametric band check: outside [p2.5, p97.5] of the baseline."""
    score, flagged = _score_percentile(profile, point)
    return Verdict("percentile", float(score), bool(flagged),
                   (profile.p2_5, profile.p97_5))


def detect_zscore(profile: BaselineProfile, point: float,
                  threshold: float = DEFAULT_Z_THRESHOLD) -> Verdict:
    """Classical z-score against baseline mean and standard deviation."""
    z, flagged = _score_zscore(profile, point, threshold)
    return Verdict("zscore", float(z), bool(flagged), threshold)


def detect_modified_z(profile: BaselineProfile, point: float,
                      threshold: float = DEFAULT_MODIFIED_Z_THRESHOLD) -> Verdict:
    """Robust z-score from median and MAD (Iglewicz-Hoaglin), or MeanAD where MAD is 0."""
    m, flagged = _score_modified_z(profile, point, threshold)
    return Verdict("modz", float(m), bool(flagged), threshold)


def detect_chebyshev(profile: BaselineProfile, point: float,
                     k_sigma: float = DEFAULT_CHEBYSHEV_K) -> Verdict:
    """Distribution-free bound: |dev| > k*sigma has probability <= 1/k^2."""
    score, flagged = _score_chebyshev(profile, point, k_sigma)
    return Verdict("chebyshev", float(score), bool(flagged), k_sigma)


DETECTORS = {
    "percentile": detect_percentile,
    "zscore": detect_zscore,
    "modz": detect_modified_z,
    "chebyshev": detect_chebyshev,
}


def detect(method: str, profile: BaselineProfile, point: float, **kwargs) -> Verdict:
    try:
        fn = DETECTORS[method]
    except KeyError:
        raise ValueError(f"unknown detector {method!r}; known: {', '.join(DETECTORS)}")
    return fn(profile, point, **kwargs)


# --- confusion metrics -------------------------------------------------------

@dataclass(frozen=True)
class ConfusionRow:
    method: str
    fpr: float
    fnr: float
    false_positives: int
    baseline_count: int
    false_negatives: int
    attack_count: int


def confusion_report(baseline_points, attack_points,
                     methods=("percentile", "zscore", "modz"),
                     profile: BaselineProfile = None) -> dict:
    """Per-method FPR/FNR over labeled point sets, pooled over independent runs.

    Each point set is a sequence or array holding one run (1-D) or one run
    per row (2-D); row i of the attack points belongs to the run of baseline
    row i. The counts are pooled over the rows, so a 2-D report equals the
    sum of its rows' 1-D reports.

    When no explicit profile is given, each baseline point is classified
    leave-one-out against the remaining points of its row (the tested point
    never calibrates its own band); attack points are classified against
    their row's full-baseline profile. An explicit profile judges every point.

    Every profile comes from one _row_statistics call, which reduces each row
    with the arithmetic calibrate() uses for that row alone: one over the
    S x n baseline rows, and one over the stacked (S*n) x (n-1) leave-one-out
    matrix. Their columns, shaped to broadcast against the points, form the
    profiles every method scores all points against in one array expression.
    """
    baseline = np.atleast_2d(np.asarray(baseline_points, dtype=float))
    attack = np.atleast_2d(np.asarray(attack_points, dtype=float))
    if baseline.ndim > 2 or attack.ndim > 2 or baseline.shape[0] != attack.shape[0]:
        raise ValueError("point sets must be 1-D, or 2-D with one row per run in both")
    if not baseline.size or not attack.size:
        raise InsufficientSamples("confusion report needs non-empty point sets")
    runs, n = baseline.shape
    full = against = profile
    if profile is None:
        full = BaselineProfile((), n, *(column[:, np.newaxis]
                                         for column in _row_statistics(baseline)))
        against = BaselineProfile((), n - 1, *(column.reshape(runs, n) for column
                                               in _row_statistics(_leave_one_out(baseline))))
    rows = {}
    for method in methods:
        score = _SCORES[method]
        fp = int(np.count_nonzero(score(against, baseline)[1]))
        misses = int(np.count_nonzero(~score(full, attack)[1]))
        rows[method] = ConfusionRow(
            method=method,
            fpr=fp / baseline.size,
            fnr=misses / attack.size,
            false_positives=fp,
            baseline_count=baseline.size,
            false_negatives=misses,
            attack_count=attack.size,
        )
    return rows


def _leave_one_out(rows: np.ndarray) -> np.ndarray:
    """The (S*n) x (n-1) matrix whose row s*n + i is rows[s] without point i, in order.

    It is filled in place, with no temporary of its size: entry (i, j) of a
    run's block is point j + 1, or point j where j < i.
    """
    runs, n = rows.shape
    out = np.empty((runs, n, n - 1))
    np.copyto(out, rows[:, np.newaxis, 1:])
    np.copyto(out, rows[:, np.newaxis, :-1], where=np.tri(n, n - 1, -1, dtype=bool))
    return out.reshape(runs * n, n - 1)
