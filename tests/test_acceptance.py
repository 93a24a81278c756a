"""Acceptance suite: the system-level exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import random
import time

import numpy as np

from timecheck.checkpoint import MemoryImage
from timecheck.cli import aggregate_detection, main
from timecheck.coeffs import RandomSeeds, coefficient_at
from timecheck.device import (
    attack_scenario,
    builtin_scenario,
    desk_scenario,
    priced_trials,
    run_trials,
)
from timecheck.engine import multipass, multipass_naive, random_spec
from timecheck.field import M61, FieldParams
from timecheck.permutation import PermutationGenerator
from timecheck.protocol import DeviceEndpoint, LoopbackChannel, issue_challenge, verify_response
from timecheck.seeding import sub_rng
from timecheck import stats

from collision import collision_probe

PRIMES = (13, 1009, M61)


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_c01_oracle_equivalence():
    # multipass == multipass_naive, accumulator and words_scanned exact, 1000
    # random instances, d <= 64, P <= 4, k <= 4, primes {13, 1009, 2^61-1}; < 10 s
    t0 = time.time()
    rng = random.Random(0xACCE5501)
    for i in range(1000):
        p = PRIMES[i % 3]
        passes = rng.randint(1, 4)
        d = rng.randint(1, max(1, min(64, (p - 1) // passes)))
        spec = random_spec(p, rng.randint(1, 4), passes, rng)
        image = MemoryImage([rng.getrandbits(64) for _ in range(d)])
        assert multipass(image, spec) == multipass_naive(image, spec), (p, passes, d)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"1000/1000 instances exact, {elapsed:.1f}s")


def test_c02_pairwise_independence_exact():
    # p=17, k=2: all 289 seed tuples; every index pair from {0..9} jointly
    # uniform with count exactly 1 per value pair; < 5 s
    t0 = time.time()
    p = 17
    params = FieldParams(p, 0)
    rows = []
    for r0 in range(p):
        for r1 in range(p):
            seeds = RandomSeeds((r0, r1), params)
            rows.append(tuple(coefficient_at(seeds, i) for i in range(10)))
    for i1 in range(10):
        for i2 in range(10):
            if i1 == i2:
                continue
            counts = {}
            for row in rows:
                key = (row[i1], row[i2])
                counts[key] = counts.get(key, 0) + 1
            assert len(counts) == p * p and set(counts.values()) == {1}, (i1, i2)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, f"90 index pairs x 289 tuples exactly uniform, {elapsed:.1f}s")


def test_c03_collision_bound():
    # p=13, d=4, 1e5 trials: empirical rate <= 1/12 + 3*sigma; < 30 s
    t0 = time.time()
    rng = random.Random(0xACCE5503)
    spec = random_spec(13, 2, 1, rng)
    trials = 100_000
    rate = collision_probe(spec, word_count=4, trials=trials, rng_seed=7)
    bound = 1 / 12
    sigma = math.sqrt(bound * (1 - bound) / trials)
    elapsed = time.time() - t0
    assert rate <= bound + 3 * sigma, f"rate {rate} above {bound + 3 * sigma}"
    assert elapsed < 30.0
    report(3, f"collision rate {rate:.4f} <= {bound + 3 * sigma:.4f}, {elapsed:.1f}s")


def test_c04_permutation_bijectivity():
    # exhaustive bijection + invert round-trip for n in {1..1024} and the
    # four large sizes, 3 seeds each; < 60 s
    t0 = time.time()
    sizes = list(range(1, 1025)) + [4095, 4096, 24576, 65536]
    seeds = (101, 202, 303)
    for n in sizes:
        for seed in seeds:
            g = PermutationGenerator(n, seed)
            hit = bytearray(n)
            for i in range(n):
                j = g.get(i)
                assert hit[j] == 0
                hit[j] = 1
                assert g.invert(j) == i
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, f"{len(sizes)} domains x 3 seeds bijective and invertible, {elapsed:.1f}s")


def test_c05_sram_scale_reproduction():
    # 50-trial scenarios: means within 1% of 9.591e6/9.594e6/9.591e6 us;
    # t-test p < 1e-6 and KS p < 1e-3 for both attacks vs baseline
    targets = {"sram-baseline": 9.591e6, "sram-dram": 9.594e6, "sram-iomem": 9.591e6}
    batches = {}
    for name, target in targets.items():
        d = [m.duration_us for m in run_trials(builtin_scenario(name), 50, 0)]
        mean = sum(d) / len(d)
        assert abs(mean - target) / target < 0.01, (name, mean)
        batches[name] = d
    for attack in ("sram-dram", "sram-iomem"):
        _, t_p = stats.t_test(batches["sram-baseline"], batches[attack])
        _, ks_p = stats.ks_test(batches["sram-baseline"], batches[attack])
        assert t_p < 1e-6, (attack, t_p)
        assert ks_p < 1e-3, (attack, ks_p)
    report(5, "means within 1%, t p<1e-6, KS p<1e-3 for both attacks")


def test_c06_detector_metrics_reproduction():
    # aggregated over 20 master seeds: percentile and z-score at 0% FPR/FNR
    # and modified-z at 0% FNR within a 5-point band; modified-z FPR for the
    # iomem run within 5 points of 9%
    tol = 0.05
    aggs = aggregate_detection(("dram", "iomem"), n_seeds=20, trials=50, master_seed=0)
    for attack, modz_fpr_target in (("dram", 0.0), ("iomem", 0.09)):
        agg = aggs[attack]
        for method in ("percentile", "zscore"):
            assert abs(agg[method].fpr - 0.0) <= tol, (attack, method, agg[method])
            assert abs(agg[method].fnr - 0.0) <= tol, (attack, method, agg[method])
        assert abs(agg["modz"].fnr - 0.0) <= tol, (attack, agg["modz"])
        assert abs(agg["modz"].fpr - modz_fpr_target) <= tol, (attack, agg["modz"])
        detail = {m: f"{100 * agg[m].fpr:.1f}/{100 * agg[m].fnr:.1f}"
                  for m in ("percentile", "zscore", "modz")}
        print(f"       {attack}: FPR/FNR pct per method {detail}")
    report(6, "detector table reproduced within 5 points on every cell, 20 seeds")


def test_paper_tables_over_master_seeds():
    # c06, c05 and c07 at each of master seeds 0-99, none chosen after looking.
    # fig13: the cells that are 0 at all 100 seeds stay 0 at every seed; every
    # other cell's median and 95th percentile over the seeds is within c06's
    # 5 points of the paper's value. fig10 and fig11: the c05 and c07 bounds
    # hold at every seed.
    seeds, tol = range(100), 0.05
    paper = {(attack, method, rate): 0.0 for attack in ("dram", "iomem")
             for method in ("percentile", "zscore", "modz") for rate in ("fpr", "fnr")}
    paper["iomem", "modz", "fpr"] = 0.09
    always_zero = {(attack, method, "fnr") for attack in ("dram", "iomem")
                   for method in ("percentile", "zscore")}
    always_zero |= {("dram", "modz", "fpr"), ("dram", "modz", "fnr")}
    cells = {cell: [] for cell in paper}
    for seed in seeds:
        aggs = aggregate_detection(("dram", "iomem"), n_seeds=20, trials=50, master_seed=seed)
        for attack, agg in aggs.items():
            for method in ("percentile", "zscore", "modz"):
                for rate in ("fpr", "fnr"):
                    cells[attack, method, rate].append(getattr(agg[method], rate))
    for cell, values in cells.items():
        median, p95 = np.median(values), np.percentile(values, 95)
        print(f"       fig13 {'/'.join(cell)}: median {100 * median:.1f} "
              f"max {100 * max(values):.1f} paper {100 * paper[cell]:.0f} (pct)")
        if cell in always_zero:
            assert max(values) == 0.0, (cell, values)
        assert abs(median - paper[cell]) <= tol, (cell, median)
        assert abs(p95 - paper[cell]) <= tol, (cell, p95)

    targets = {"sram-baseline": 9.591e6, "sram-dram": 9.594e6, "sram-iomem": 9.591e6,
               "full-baseline": 1.731895e9, "full-mmc": 1.735465e9}
    worst_error, worst_t_p, least_shift = 0.0, 0.0, math.inf
    for seed in seeds:
        priced = priced_trials([(builtin_scenario(name), 50, seed) for name in targets])
        batches = {name: [d for d, _ in rows] for name, rows in zip(targets, priced)}
        for name, target in targets.items():
            error = abs(sum(batches[name]) / 50 - target) / target
            assert error < 0.01, (seed, name, error)
            worst_error = max(worst_error, error)
        for attack in ("sram-dram", "sram-iomem"):
            _, t_p = stats.t_test(batches["sram-baseline"], batches[attack])
            _, ks_p = stats.ks_test(batches["sram-baseline"], batches[attack])
            assert t_p < 1e-6 and ks_p < 1e-3, (seed, attack, t_p, ks_p)
            worst_t_p = max(worst_t_p, t_p)
        base, attack = batches["full-baseline"], batches["full-mmc"]
        _, t_p = stats.t_test(base, attack)
        shift = (sum(attack) - sum(base)) / 50 / stats.calibrate(base).std
        assert t_p < 0.05 and shift >= 100.0, (seed, t_p, shift)
        worst_t_p, least_shift = max(worst_t_p, t_p), min(least_shift, shift)
    report("5-7", f"fig13 medians and p95 within 5 points, zero cells zero; fig10/11 "
                  f"worst mean error {100 * worst_error:.3f}%, worst t p {worst_t_p:.1e}, "
                  f"least mmc shift {least_shift:.0f} sigma; master seeds 0-99")


def test_c07_full_memory_reproduction():
    # means within 1% of 1731.895e6 / 1735.465e6 us; t p < 0.05 at n=50;
    # storage-attack shift >= 100 baseline sigmas
    base = [m.duration_us for m in run_trials(builtin_scenario("full-baseline"), 50, 0)]
    attack = [m.duration_us for m in run_trials(builtin_scenario("full-mmc"), 50, 0)]
    mean_b = sum(base) / 50
    mean_a = sum(attack) / 50
    assert abs(mean_b - 1.731895e9) / 1.731895e9 < 0.01
    assert abs(mean_a - 1.735465e9) / 1.735465e9 < 0.01
    _, t_p = stats.t_test(base, attack)
    assert t_p < 0.05
    shift = (mean_a - mean_b) / stats.calibrate(base).std
    assert shift >= 100.0
    report(7, f"means within 1%, t p={t_p:.2e}, shift {shift:.0f} baseline sigmas")


def test_c08_whiteness_across_seeds():
    # drift-free baseline trials pass the whiteness verdict for lags 1..10
    # in at least 90% of 50 master seeds
    sc = builtin_scenario("sram-baseline")
    passed = 0
    for seed in range(50):
        d = [m.duration_us for m in run_trials(sc, 50, seed)]
        passed += stats.serial_correlation(d, 10).white
    assert passed >= 45, f"only {passed}/50 seeds white"
    report(8, f"whiteness verdict clean in {passed}/50 seeds")


def test_c09_end_to_end_protocol():
    # loopback: clean ACCEPT and every attack kind REJECT under the
    # percentile detector, 100/100 sessions; the wrong-accumulator stub
    # always REJECTs regardless of timing; < 60 s
    t0 = time.time()
    sc = desk_scenario()
    rng = sub_rng(0xE2E, "cal")
    cal = LoopbackChannel(DeviceEndpoint(sc, master_seed=1))
    durations = []
    for _ in range(40):
        spec = random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
        durations.append(issue_challenge(cal, spec, rng=rng).duration_us)
    profile = stats.calibrate(durations)

    honest = DeviceEndpoint(sc, master_seed=3)
    plan = [("none", 25), ("dram", 25), ("iomem", 25), ("mmc", 25)]
    session_rng = sub_rng(0xE2E, "sessions")
    outcomes = {}
    for kind, count in plan:
        scenario = sc if kind == "none" else attack_scenario(sc, kind)
        endpoint = DeviceEndpoint(scenario, master_seed=4)
        channel = LoopbackChannel(endpoint)
        ok = 0
        for _ in range(count):
            spec = random_spec(sc.prime, sc.k, sc.passes, session_rng, sc.region_id)
            timed = issue_challenge(channel, spec, rng=session_rng)
            verdict = verify_response(honest.expected_result(spec), timed, profile,
                                      method="percentile")
            want = "ACCEPT" if kind == "none" else "REJECT"
            ok += verdict.outcome == want
        outcomes[kind] = (ok, count)
        assert ok == count, (kind, ok, count)

    # wrong accumulator with perfectly normal timing: value check must win
    liar = DeviceEndpoint(attack_scenario(sc, "corrupt"), master_seed=6)
    channel = LoopbackChannel(liar)
    for _ in range(10):
        spec = random_spec(sc.prime, sc.k, sc.passes, session_rng, sc.region_id)
        timed = issue_challenge(channel, spec, rng=session_rng)
        verdict = verify_response(honest.expected_result(spec), timed, profile)
        assert verdict.outcome == "REJECT" and verdict.detector is None

    elapsed = time.time() - t0
    assert elapsed < 60.0
    detail = ", ".join(f"{k}:{a}/{b}" for k, (a, b) in outcomes.items())
    report(9, f"sessions {detail}; corrupt-result device 10/10 rejected; {elapsed:.1f}s")


def test_c10_reproduction_determinism(tmp_path):
    # cmd_reproduce with a fixed master seed emits byte-identical CSVs
    names = ("fig10_summary.csv", "fig10_hist.csv", "fig11_summary.csv",
             "fig11_hist.csv", "fig13_detection.csv")
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        assert main(["reproduce", "fig10", "--seed", "7", "--out", str(out)]) == 0
        assert main(["reproduce", "fig11", "--seed", "7", "--out", str(out)]) == 0
        assert main(["reproduce", "fig13", "--seed", "7", "--seeds", "20",
                     "--out", str(out)]) == 0
    for name in names:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, name
    report(10, f"{len(names)} report files byte-identical across reruns")
