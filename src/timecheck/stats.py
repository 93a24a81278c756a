"""Baseline calibration and the statistical decision pipeline.

Calibration turns timed trials into a BaselineProfile of location, spread
and tail statistics, refusing a batch where one is not finite. Detectors
classify a single timing against it; distribution tests compare batches.

Everything here is pure over immutable inputs and safe for concurrent use.

The two p-values that need a special function, the Ljung-Box tail in
serial_correlation and the Student t tail in t_test, are computed here with
the standard library (_chi2_sf and _t_two_sided), so numpy is the package's
only runtime dependency. A special-function library would about double the
verifier's resident memory and start-up time for two scalars.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, InsufficientSamples

# Normal-consistency constant for the modified z-score (Iglewicz & Hoaglin):
# for gaussian data, 0.6745 * dev / MAD estimates the ordinary z.
MODIFIED_Z_SCALE = 0.6745
# Where the MAD is 0, sqrt(pi/2) * MeanAD estimates the gaussian sigma instead.
MEANAD_SCALE = 1.253314

DEFAULT_Z_THRESHOLD = 2.0
DEFAULT_MODIFIED_Z_THRESHOLD = 2.5


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
    arr = np.asarray(list(samples), dtype=float)
    stats = (column.item() for column in _row_statistics(arr[np.newaxis, :]))
    return BaselineProfile(tuple(arr.tolist()), arr.size, *stats)


def _row_statistics(arr: np.ndarray) -> tuple:
    """Per row of a 2-D float array: (mean, std, median, mad, p2_5, p97_5, mean_ad).

    Each entry is a float64 column with one value per row, in
    BaselineProfile's field order after samples and n. A row's statistics
    equal calibrate(row)'s exactly: the axis reductions run the same
    arithmetic as their 1-D forms, and the order statistics, from one sort of
    arr and one of the deviations, equal np.median's and "linear"
    np.percentile's bit for bit (but either zero may stand for 0.0 and -0.0).
    A row with a statistic that is not finite raises ValueError: detectors read them.
    """
    if arr.shape[1] < 2:
        raise InsufficientSamples(f"calibration needs >= 2 samples, got {arr.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
        mean, std = arr.mean(axis=1), arr.std(axis=1, ddof=1)
        ranked = np.sort(arr, axis=1)
        median = _middle(ranked)
        p2_5, p97_5 = (_linear_percentile(ranked, q) for q in (2.5, 97.5))
        del ranked  # one array of arr's size at a time beside arr
        deviation = arr - median[:, np.newaxis]
        np.abs(deviation, out=deviation)
        mean_ad = deviation.mean(axis=1)
        deviation.sort(axis=1)
        columns = mean, std, median, _middle(deviation), p2_5, p97_5, mean_ad
    if bad := arr.shape[0] - np.count_nonzero(np.isfinite(columns).all(axis=0)):
        raise ValueError(f"{bad} of {arr.shape[0]} baselines have a statistic that is not a "
                         f"finite number (a sample is NaN or infinite, or a sum overflows)")
    return columns


def _middle(ranked: np.ndarray) -> np.ndarray:
    """np.median of each sorted row, as a new column (a view would keep ranked alive)."""
    h = ranked.shape[1] // 2
    return ranked[:, h].copy() if ranked.shape[1] % 2 else (ranked[:, h - 1] + ranked[:, h]) / 2


def _linear_percentile(ranked: np.ndarray, q: float) -> np.ndarray:
    """Each sorted row's q-th percentile, q < 100, by numpy's "linear" virtual index and _lerp."""
    lo, t = divmod((ranked.shape[1] - 1) * (q / 100), 1)  # the virtual index's parts
    a, b = ranked[:, int(lo)], ranked[:, int(lo) + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# --- serial correlation ------------------------------------------------------

@dataclass(frozen=True)
class SerialCorrelation:
    """Per-lag autocorrelations with a pointwise band and a whiteness verdict."""

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
    q_pvalue = _chi2_sf(max_lag, q)
    return SerialCorrelation(
        autocorr=tuple(rs),
        band=band,
        flagged_lags=flagged,
        q_stat=float(q),
        q_pvalue=q_pvalue,
        white=q_pvalue > 0.05,
    )


def _chi2_sf(k: int, q: float) -> float:
    """P(X > q) for X chi-square with an integer k >= 1 degrees of freedom.

    The closed form of Abramowitz & Stegun 26.4.4-26.4.5, with x = q/2: for
    even k, the sum of the terms x^a e^-x / Gamma(a + 1) over a = 0 .. k/2 - 1;
    for odd k, erfc(sqrt(x)) plus the same terms over a = 1/2, 3/2 .. (k-2)/2.
    """
    if q <= 0.0:
        return 1.0
    x = 0.5 * q
    a = 0.5 * (k % 2)
    total = math.erfc(math.sqrt(x)) if k % 2 else 0.0
    if x < 700.0:  # e^-x is a normal float: each term is the one before times x/a
        term = math.exp(-x) * (2.0 * math.sqrt(x / math.pi) if k % 2 else 1.0)
        for _ in range(k // 2):
            total += term
            a += 1.0
            term *= x / a
    else:  # e^-x underflows, though a large k's later terms need not: each from its log
        log_x = math.log(x)
        for _ in range(k // 2):
            total += math.exp(a * log_x - x - math.lgamma(a + 1.0))
            a += 1.0
    return min(1.0, total)


def _t_two_sided(df: float, t: float) -> float:
    """2 P(T > |t|) for T Student t with df > 0 degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2). From df = 100 on, with x >= 1/e, it comes from the
    series of _beta_large_a. Otherwise its prefactor x^a (1-x)^b / B(a, b) is
    taken in log space; the continued fraction (Numerical Recipes 6.4,
    modified Lentz) converges fast for x below (a+1)/(a+b+2), and above it
    the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) is used instead. The relative
    error stays below 1e-11 up to df = 1e8.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    w = math.log1p(t2 / df)  # -log x, without the rounding of x
    if a >= 50.0 and w <= 1.0:
        return _beta_large_a(a, w)
    x, y = df / (df + t2), t2 / (df + t2)  # y is 1 - x without the cancellation
    if x == 0.0:
        return 0.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     - a * w + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _sinhc_power_coefficients(power: float, count: int) -> tuple:
    """c_0 .. c_(count-1) of (sinh(z) / z)^power = sum c_n z^(2n)."""
    c = [1.0]
    for n in range(1, count):
        c.append(sum(((power + 1.0) * m - n) * c[n - m] / math.factorial(2 * m + 1)
                     for m in range(1, n + 1)) / n)
    return tuple(c)


_SINHC_COEFFICIENTS = _sinhc_power_coefficients(-0.5, 16)


def _beta_large_a(a: float, w: float) -> float:
    """I_x(a, 1/2) at x = e^-w, for a >= 50 and 0 < w <= 1.

    There the continued fraction's partial denominators are differences of
    numbers near 1, and log Gamma(a + 1/2) - log Gamma(a) is a difference of
    two numbers near a log a: both lose digits as a grows. DiDonato &
    Morris's BGRAT expansion (ACM TOMS 18, 1992, eq. 9) subtracts neither.
    With T = a - 1/4, B(a, 1/2) I_x(a, 1/2) is the integral over v > w of
    e^(-T v) v^(-1/2) (sinh(v/2) / (v/2))^(-1/2) dv. The last factor's
    series in (v/2)^2 makes it a sum of upper incomplete gammas
    Gamma(1/2 + 2n, T w) / (2T)^(2n), each from the one before, starting at
    sqrt(pi) erfc(sqrt(T w)); a dozen terms reach double precision. The
    log-gamma difference comes from its asymptotic series in 1/a, whose
    first omitted term is below 1e-18.
    """
    big_t = a - 0.25
    u, scale = big_t * w, 4.0 * big_t * big_t
    gamma = math.sqrt(math.pi) * math.erfc(math.sqrt(u))  # Gamma(s, u) / scale^n
    edge = math.sqrt(u) * math.exp(-u)                      # u^s e^-u / scale^n
    total, s = gamma, 0.5
    for c in _SINHC_COEFFICIENTS[1:]:
        gamma = (s * (s + 1.0) * gamma + (u + s + 1.0) * edge) / scale
        edge *= u * u / scale
        s += 2.0
        total += c * gamma
    log_ratio = (0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a ** 3)
                 - 1.0 / (640.0 * a ** 5) + 17.0 / (14336.0 * a ** 7))
    return math.exp(log_ratio) / math.sqrt(math.pi * big_t) * total


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), evaluated by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):  # tens of steps where _t_two_sided calls it
        for coefficient in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coefficient / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


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
    return float(t), _t_two_sided(float(df), float(t))


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
    combined effective sample size n*m/(n+m) falls below 35.
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


# Each detector is written once, as a function of a profile and points that
# returns (score, flagged, threshold): points are floats for one point, or
# float64 arrays in which entry i of every field belongs to point i. numpy runs
# the same IEEE operations in the same order as Python floats, so both forms
# give bit-identical scores.

def _scaled(points, center, spread, scale, message: str):
    """scale * (points - center) / spread, where no finite point scores +-inf.

    A spread of 0, or one so small (a subnormal MAD, say) that a finite
    point's score overflows, raises DegenerateSeries: no verdict rests on a
    score that is not finite. Every detector that divides goes through here.
    """
    if np.any(spread == 0.0):
        raise DegenerateSeries(message)
    with np.errstate(over="ignore"):  # checked below, not warned
        score = scale * (points - center) / spread
    if np.any(np.isfinite(points) & ~np.isfinite(score)):
        raise DegenerateSeries(f"{message}, and one that scores every finite point finitely")
    return score


def _percentile(profile, points):
    """Non-parametric band check: outside [p2.5, p97.5] of the baseline."""
    band = (profile.p2_5, profile.p97_5)
    return points, (points < band[0]) | (points > band[1]), band


def _zscore(profile, points):
    """Classical z-score against baseline mean and standard deviation."""
    z = _scaled(points, profile.mean, profile.std, 1.0, "z-score needs nonzero baseline spread")
    return z, abs(z) > DEFAULT_Z_THRESHOLD, DEFAULT_Z_THRESHOLD


def _modified_z(profile, points):
    """Robust z-score from median and MAD (Iglewicz-Hoaglin), or MeanAD where MAD is 0."""
    has_mad = profile.mad != 0.0
    spread = np.where(has_mad, profile.mad, MEANAD_SCALE * profile.mean_ad)
    m = _scaled(points, profile.median, spread, np.where(has_mad, MODIFIED_Z_SCALE, 1.0),
                "modified z-score needs nonzero baseline MAD or MeanAD")
    return m, abs(m) > DEFAULT_MODIFIED_Z_THRESHOLD, DEFAULT_MODIFIED_Z_THRESHOLD


# Every detector, by the name --detector and confusion_report take.
DETECTORS = {
    "percentile": _percentile,
    "zscore": _zscore,
    "modz": _modified_z,
}


def detect(method: str, profile: BaselineProfile, point: float) -> Verdict:
    """The named detector's call on one point; threshold is the band tuple for percentile."""
    if method not in DETECTORS:
        raise ValueError(f"unknown detector {method!r}; known: {', '.join(DETECTORS)}")
    score, flagged, threshold = DETECTORS[method](profile, point)
    return Verdict(method, float(score), bool(flagged), threshold)


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


# Leave-one-out values confusion_report classifies in one pass at most,
# unless a single run alone holds more: it bounds the stacked leave-one-out
# matrix (and each of its temporaries) at 512 KB. 20 runs x 50 x 49 =
# 49,000 values fit in one pass.
LOO_BATCH_VALUES = 1 << 16


def confusion_report(baseline_points, attack_points,
                     methods=("percentile", "zscore", "modz")) -> dict:
    """Per-method FPR/FNR over labeled point sets, pooled over independent runs.

    Each point set is a sequence or array holding one run (1-D) or one run
    per row (2-D); row i of the attack points belongs to the run of baseline
    row i. The counts are pooled over the rows, so a 2-D report equals the
    sum of its rows' 1-D reports.

    Each baseline point is classified leave-one-out against the remaining
    points of its row (the tested point never calibrates its own band);
    attack points are classified against their row's full-baseline profile.

    The runs are classified in batches of as many as fit in LOO_BATCH_VALUES
    leave-one-out values (at least one). Every profile of a batch comes from
    one _row_statistics call, which reduces each row with the arithmetic
    calibrate() uses for that row alone: one over the batch's baseline rows,
    and one over their stacked leave-one-out matrix, each sorted once per
    row. Their columns, shaped to broadcast against the points, form the
    profiles every method scores the batch's points against in one array
    expression. A baseline with a statistic that is not finite raises ValueError.
    """
    baseline = np.atleast_2d(np.asarray(baseline_points, dtype=float))
    attack = np.atleast_2d(np.asarray(attack_points, dtype=float))
    if baseline.ndim > 2 or attack.ndim > 2 or baseline.shape[0] != attack.shape[0]:
        raise ValueError("point sets must be 1-D, or 2-D with one row per run in both")
    if not baseline.size or not attack.size:
        raise InsufficientSamples("confusion report needs non-empty point sets")
    runs, n = baseline.shape
    batch = max(1, LOO_BATCH_VALUES // max(1, n * (n - 1)))
    fp = dict.fromkeys(methods, 0)
    misses = dict.fromkeys(methods, 0)
    for lo in range(0, runs, batch):
        base, atk = baseline[lo:lo + batch], attack[lo:lo + batch]
        full = BaselineProfile((), n, *(column[:, np.newaxis]
                                         for column in _row_statistics(base)))
        against = BaselineProfile((), n - 1, *(column.reshape(len(base), n) for column
                                               in _row_statistics(_leave_one_out(base))))
        for method in methods:
            score = DETECTORS[method]
            fp[method] += int(np.count_nonzero(score(against, base)[1]))
            misses[method] += int(np.count_nonzero(~score(full, atk)[1]))
    rows = {}
    for method in methods:
        rows[method] = ConfusionRow(
            method=method,
            fpr=fp[method] / baseline.size,
            fnr=misses[method] / attack.size,
            false_positives=fp[method],
            baseline_count=baseline.size,
            false_negatives=misses[method],
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
