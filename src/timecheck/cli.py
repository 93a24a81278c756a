"""Operator entry point: calibrate baselines, run challenge sessions, reproduce reports.

Exit codes: 0 = accept / success, 1 = operational error, 2 = attestation reject.
Every command is deterministic under a fixed --seed (byte-identical outputs).
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import stats
from .checkpoint import (
    Checkpoint,
    checkpoint_record,
    entropy_report,
    load_checkpoint,
    save_checkpoint,
)
from .device import (
    Scenario,
    attack_scenario,
    builtin_scenario,
    full_memory_scenario,
    list_scenarios,
    load_scenario,
    make_device_state,
    measurements_to_csv,
    priced_trials,
    run_trials,
)
from .engine import random_spec
from .errors import InsufficientSamples, TimecheckError
from .protocol import (
    DeviceEndpoint,
    LoopbackChannel,
    TcpChannel,
    issue_challenge,
    measurement_from_timed,
    serve_device,
    verify_response,
)
from .seeding import derive_seed, sub_rng

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2

DETECTOR_CHOICES = ("percentile", "zscore", "modz", "chebyshev")
ATTACK_CHOICES = ("none", "dram", "iomem", "mmc", "corrupt")


def _scenario_from_args(args) -> Scenario:
    if getattr(args, "config", None):
        scenario = load_scenario(args.config)
    elif getattr(args, "region", None) == "full":
        scenario = full_memory_scenario(attack=False)
    else:
        scenario = builtin_scenario(getattr(args, "scenario", None) or "sram-baseline")
    if getattr(args, "passes", None):
        scenario = dataclasses.replace(scenario, passes=args.passes)
    if getattr(args, "attack", None) and args.attack != "none":
        scenario = attack_scenario(scenario, args.attack)
    return scenario


def _profile_doc(profile: stats.BaselineProfile, scenario: Scenario,
                 whiteness: stats.SerialCorrelation, master_seed: int) -> dict:
    return {
        "scenario": scenario.name,
        "region_id": scenario.region_id,
        "timing_words": scenario.timing_words,
        "passes": scenario.passes,
        "prime": scenario.prime,
        "k": scenario.k,
        "master_seed": master_seed,
        "n": profile.n,
        "mean_us": profile.mean,
        "std_us": profile.std,
        "median_us": profile.median,
        "mad_us": profile.mad,
        "p2_5_us": profile.p2_5,
        "p97_5_us": profile.p97_5,
        "whiteness": {
            "white": whiteness.white,
            "q_stat": whiteness.q_stat,
            "q_pvalue": whiteness.q_pvalue,
            "band": whiteness.band,
            "flagged_lags": list(whiteness.flagged_lags),
        },
        "samples_us": list(profile.samples),
    }


def _read_profile(path):
    with open(path) as fh:
        doc = json.load(fh)
    return stats.calibrate(doc["samples_us"]), doc


def _session_measurements(scenario, channel, n, master_seed):
    """Timed sessions through a live channel, as Measurement records."""
    rng = sub_rng(master_seed, "calibration")
    out = []
    for trial_id in range(n):
        spec = random_spec(scenario.prime, scenario.k, scenario.passes, rng,
                           scenario.region_id)
        timed = issue_challenge(channel, spec, rng=rng)
        out.append(measurement_from_timed(timed, trial_id, scenario.name, spec))
    return out


def cmd_calibrate(args) -> int:
    scenario = _scenario_from_args(args)
    if args.trials < 2:
        raise InsufficientSamples("calibration needs --trials >= 2")
    if args.target == "sim":
        measurements = run_trials(scenario, args.trials, args.seed)
    elif args.target == "loopback":
        endpoint = DeviceEndpoint(scenario, master_seed=derive_seed(args.seed, "device"))
        channel = LoopbackChannel(endpoint, jitter_us=args.jitter,
                                  jitter_seed=derive_seed(args.seed, "jitter"))
        measurements = _session_measurements(scenario, channel, args.trials, args.seed)
    elif args.target.startswith("tcp://"):
        host, _, port = args.target[len("tcp://"):].partition(":")
        channel = TcpChannel(host, int(port))
        measurements = _session_measurements(scenario, channel, args.trials, args.seed)
    else:
        raise TimecheckError(f"unknown target {args.target!r}")
    durations = [m.duration_us for m in measurements]
    profile = stats.calibrate(durations)
    max_lag = min(10, len(durations) - 1)
    whiteness = stats.serial_correlation(durations, max_lag)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"{scenario.name}-measurements.csv")
    profile_path = os.path.join(out, f"{scenario.name}-profile.json")
    measurements_to_csv(measurements, csv_path)
    with open(profile_path, "w") as fh:
        json.dump(_profile_doc(profile, scenario, whiteness, args.seed), fh, indent=2)
        fh.write("\n")

    flagged = ",".join(str(l) for l in whiteness.flagged_lags) or "none"
    print(f"calibrated {scenario.name}: n={profile.n} mean={profile.mean:.1f}us "
          f"std={profile.std:.1f}us")
    print(f"whiteness: {'PASS' if whiteness.white else 'FAIL'} "
          f"(Ljung-Box p={whiteness.q_pvalue:.4f}, lags outside band: {flagged})")
    print(f"wrote {profile_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _challenge_once(args, scenario: Scenario, profile, attempt: int = 0):
    master = args.seed
    spec_rng = sub_rng(master, "challenge-spec", attempt)
    spec = random_spec(scenario.prime, scenario.k, scenario.passes, spec_rng,
                       scenario.region_id)
    if args.target == "sim":
        endpoint = DeviceEndpoint(scenario, master_seed=derive_seed(master, "device", attempt))
        channel = LoopbackChannel(endpoint, jitter_us=args.jitter,
                                  jitter_seed=derive_seed(master, "jitter", attempt))
        expected = endpoint.expected_result(spec)
    elif args.target.startswith("tcp://"):
        hostport = args.target[len("tcp://"):]
        host, _, port = hostport.partition(":")
        channel = TcpChannel(host, int(port))
        # the checkpoint is public: rebuild the device's snapshot locally
        local = DeviceEndpoint(scenario, master_seed=0)
        expected = local.expected_result(spec)
    else:
        raise TimecheckError(f"unknown target {args.target!r} (use sim or tcp://host:port)")
    timed = issue_challenge(channel, spec, rng=sub_rng(master, "session"))
    verdict = verify_response(expected, timed, profile, method=args.detector)
    return spec, timed, verdict


def cmd_challenge(args) -> int:
    scenario = _scenario_from_args(args)
    profile, doc = _read_profile(args.profile)
    shape = (doc["region_id"], doc["timing_words"], doc["passes"], doc["prime"], doc["k"])
    want = (scenario.region_id, scenario.timing_words, scenario.passes,
            scenario.prime, scenario.k)
    if shape != want:
        raise TimecheckError(
            f"profile shape {shape} does not match scenario shape {want}; recalibrate")

    for attempt in range(8):
        spec, timed, verdict = _challenge_once(args, scenario, profile, attempt)
        if verdict.outcome != "RETRY":
            break
    out = {
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "duration_us": timed.duration_us,
        "accumulator": timed.response.accumulator,
        "detector": None if verdict.detector is None else {
            "method": verdict.detector.method,
            "score": verdict.detector.score,
            "flagged": verdict.detector.flagged,
        },
        "spec_digest": spec.digest(),
    }
    print(json.dumps(out, indent=2))
    if verdict.outcome == "ACCEPT":
        return EXIT_OK
    if verdict.outcome == "REJECT":
        return EXIT_REJECT
    print("error: measurement kept getting spoiled by interrupt spikes", file=sys.stderr)
    return EXIT_ERROR


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _histogram_rows(batches, bins=24):
    lo = min(min(d) for d in batches.values())
    hi = max(max(d) for d in batches.values())
    if hi == lo:
        hi = lo + 1
    width = (hi - lo) / bins
    rows = []
    for name, durations in batches.items():
        counts = [0] * bins
        for d in durations:
            i = min(bins - 1, int((d - lo) / width))
            counts[i] += 1
        for i, c in enumerate(counts):
            rows.append([name, f"{lo + i * width:.1f}", f"{lo + (i + 1) * width:.1f}", c])
    return rows


def cmd_reproduce(args) -> int:
    if args.trials < 2:
        raise InsufficientSamples(f"reproduce needs --trials >= 2, got {args.trials}")
    if args.seeds < 1:
        raise TimecheckError(f"reproduce needs --seeds >= 1, got {args.seeds}")
    os.makedirs(args.out, exist_ok=True)
    if args.table == "fig10":
        return _reproduce_sram_table(args)
    if args.table == "fig11":
        return _reproduce_full_table(args)
    if args.table == "fig13":
        return _reproduce_detection_table(args)
    raise TimecheckError(f"unknown table {args.table!r} (fig10|fig11|fig13)")


def _durations(scenario: Scenario, trials: int, master_seed: int) -> list:
    """The priced trial durations of a scenario; the reports read nothing else."""
    return [duration for duration, _ in priced_trials(scenario, trials, master_seed)]


def _reproduce_sram_table(args) -> int:
    names = ("sram-baseline", "sram-dram", "sram-iomem")
    batches = {name: _durations(builtin_scenario(name), args.trials, args.seed)
               for name in names}
    base = batches["sram-baseline"]
    rows = []
    for name in names:
        d = batches[name]
        mean = sum(d) / len(d)
        std = stats.calibrate(d).std
        if name == "sram-baseline":
            t_p = ks_p = ""
        else:
            _, t_p = stats.t_test(base, d)
            _, ks_p = stats.ks_test(base, d)
            t_p, ks_p = f"{t_p:.6e}", f"{ks_p:.6e}"
        rows.append([name, len(d), f"{mean:.1f}", f"{std:.1f}", t_p, ks_p])
    _write_csv(os.path.join(args.out, "fig10_summary.csv"),
               ["scenario", "n", "mean_us", "std_us", "t_pvalue", "ks_pvalue"], rows)
    _write_csv(os.path.join(args.out, "fig10_hist.csv"),
               ["scenario", "bin_lo_us", "bin_hi_us", "count"],
               _histogram_rows(batches))
    return EXIT_OK


def _reproduce_full_table(args) -> int:
    batches = {}
    for attack in (False, True):
        sc = full_memory_scenario(attack=attack)
        batches[sc.name] = _durations(sc, args.trials, args.seed)
    base = batches["full-baseline"]
    attack = batches["full-mmc"]
    base_prof = stats.calibrate(base)
    _, t_p = stats.t_test(base, attack)
    _, ks_p = stats.ks_test(base, attack)
    shift_sigma = (sum(attack) / len(attack) - base_prof.mean) / base_prof.std
    rows = [
        ["full-baseline", len(base), f"{base_prof.mean:.1f}", f"{base_prof.std:.1f}", "", "", ""],
        ["full-mmc", len(attack), f"{sum(attack) / len(attack):.1f}",
         f"{stats.calibrate(attack).std:.1f}", f"{t_p:.6e}", f"{ks_p:.6e}",
         f"{shift_sigma:.1f}"],
    ]
    _write_csv(os.path.join(args.out, "fig11_summary.csv"),
               ["scenario", "n", "mean_us", "std_us", "t_pvalue", "ks_pvalue",
                "shift_in_baseline_sigmas"], rows)
    _write_csv(os.path.join(args.out, "fig11_hist.csv"),
               ["scenario", "bin_lo_us", "bin_hi_us", "count"],
               _histogram_rows(batches))
    return EXIT_OK


# Leave-one-out values one confusion_report call classifies at most, unless a
# single seed alone holds more: it bounds the stacked leave-one-out matrix
# (and each of its temporaries) at 512 KB. The default 20 seeds x 50 x 49 =
# 49,000 values fit in one call.
LOO_BATCH_VALUES = 1 << 16


def aggregate_detection(attack_label: str, n_seeds: int, trials: int, master_seed: int,
                        methods=("percentile", "zscore", "modz")) -> dict:
    """Pooled FPR/FNR over n_seeds independent paired runs of one experiment.

    Every seed is priced first, one row per seed; the rows are then
    classified in batches of as many seeds as fit in LOO_BATCH_VALUES.
    """
    base_sc = builtin_scenario(f"detector-{attack_label}-baseline")
    atk_sc = builtin_scenario(f"detector-{attack_label}-attack")
    base = np.empty((n_seeds, trials))
    atk = np.empty((n_seeds, trials))
    for i in range(n_seeds):
        seed = derive_seed(master_seed, f"detect/{attack_label}", i)
        base[i] = _durations(base_sc, trials, seed)
        atk[i] = _durations(atk_sc, trials, derive_seed(seed, "atk"))
    batch = max(1, LOO_BATCH_VALUES // (trials * (trials - 1)))
    fp = dict.fromkeys(methods, 0)
    fn = dict.fromkeys(methods, 0)
    for lo in range(0, n_seeds, batch):
        rows = stats.confusion_report(base[lo:lo + batch], atk[lo:lo + batch],
                                      methods=methods)
        for m in methods:
            fp[m] += rows[m].false_positives
            fn[m] += rows[m].false_negatives
    n_points = n_seeds * trials
    return {m: {"fpr": fp[m] / n_points, "fnr": fn[m] / n_points,
                "false_positives": fp[m], "false_negatives": fn[m],
                "baseline_points": n_points, "attack_points": n_points}
            for m in methods}


def _reproduce_detection_table(args) -> int:
    rows = []
    for attack_label in ("dram", "iomem"):
        agg = aggregate_detection(attack_label, args.seeds, args.trials, args.seed)
        for method in ("percentile", "zscore", "modz"):
            r = agg[method]
            rows.append([attack_label, method,
                         f"{100 * r['fpr']:.1f}", f"{100 * r['fnr']:.1f}",
                         r["baseline_points"], r["attack_points"]])
    _write_csv(os.path.join(args.out, "fig13_detection.csv"),
               ["attack", "method", "fpr_pct", "fnr_pct",
                "baseline_points", "attack_points"], rows)
    return EXIT_OK


def cmd_serve(args) -> int:
    scenario = _scenario_from_args(args)
    endpoint = DeviceEndpoint(scenario, master_seed=derive_seed(args.seed, "device"))
    server, thread = serve_device(endpoint, args.host, args.port,
                                  time_scale=args.time_scale)
    host, port = server.getsockname()
    print(f"device {scenario.name} listening on tcp://{host}:{port}")
    try:
        thread.join()
    except KeyboardInterrupt:
        server.close()
    return EXIT_OK


def cmd_checkpoint(args) -> int:
    if args.make:
        state = make_device_state(args.seed, args.words, args.region, args.registers)
        cp = checkpoint_record(state)
        cp = Checkpoint(cp.image, cp.register_file, created_at=0.0,
                        format_version=cp.format_version)
        save_checkpoint(cp, args.make)
        print(f"wrote {args.make} ({cp.image.word_count} words, "
              f"{len(cp.register_file)} registers)")
        return EXIT_OK
    cp = load_checkpoint(args.inspect)
    rep = entropy_report(cp.image)
    print(json.dumps({
        "word_count": cp.image.word_count,
        "register_count": len(cp.register_file),
        "region_id": cp.image.region_id,
        "format_version": cp.format_version,
        "entropy_bits_per_byte_min": round(rep.min_entropy, 3),
        "low_entropy_block_fraction": round(rep.low_entropy_fraction, 3),
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="timecheck",
        description="timing-based software root of trust: challenge engine, "
                    "device simulator, and statistical verifier")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--scenario", choices=list_scenarios(), default=None)
        p.add_argument("--config", help="scenario JSON file (overrides --scenario)")
        p.add_argument("--region", choices=("sram", "full"), default=None)
        p.add_argument("--passes", type=int, default=None,
                       help="override pass count (default from scenario)")

    p = sub.add_parser("calibrate", help="run baseline trials, write profile + CSV")
    common(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", default=".")
    p.add_argument("--target", default="sim",
                   help="sim (timing model), loopback (full protocol), or tcp://host:port")
    p.add_argument("--jitter", type=float, default=3.0,
                   help="loopback channel jitter in us")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("challenge", help="one attested challenge session")
    common(p)
    p.add_argument("--profile", required=True, help="profile JSON from calibrate")
    p.add_argument("--target", default="sim", help="sim or tcp://host:port")
    p.add_argument("--detector", choices=DETECTOR_CHOICES, default="percentile")
    p.add_argument("--attack", choices=ATTACK_CHOICES, default="none")
    p.add_argument("--jitter", type=float, default=3.0,
                   help="loopback channel jitter in us")
    p.set_defaults(fn=cmd_challenge)

    p = sub.add_parser("reproduce", help="regenerate the evaluation tables as CSV")
    p.add_argument("table", choices=("fig10", "fig11", "fig13"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seeds", type=int, default=20,
                   help="independent runs aggregated for fig13")
    p.add_argument("--out", default="reports")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("serve", help="serve a simulated device over TCP")
    common(p)
    p.add_argument("--attack", choices=ATTACK_CHOICES, default="none")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="stretch simulated delays into real sleeps "
                        "(1.0 = real time, 0.0 = respond immediately)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("checkpoint", help="make or inspect checkpoint files")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--make", metavar="PATH")
    g.add_argument("--inspect", metavar="PATH")
    p.add_argument("--words", type=int, default=4096)
    p.add_argument("--registers", type=int, default=34)
    p.add_argument("--region", default="sram")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_checkpoint)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TimecheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
