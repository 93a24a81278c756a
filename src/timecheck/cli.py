"""Operator entry point: calibrate baselines, run challenge sessions, reproduce reports.

Exit codes: 0 = accept / success, 1 = operational or usage error, 2 = attestation
reject.
Every command is deterministic under a fixed --seed (byte-identical outputs).
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import stats
from .checkpoint import (
    DEFAULT_REGISTER_COUNT,
    FORMAT_VERSION,
    checkpoint_record,
    entropy_report,
    load_checkpoint,
    region_bytes,
    save_checkpoint,
)
from .device import (
    ATTACKS,
    SCENARIOS,
    Measurement,
    Scenario,
    attack_scenario,
    builtin_scenario,
    load_scenario,
    make_device_state,
    priced_trials,
    run_trials,
)
from .errors import DegenerateSeries, InsufficientSamples, TimecheckError
from .protocol import (
    MAX_SCAN_WORDS,
    DeviceEndpoint,
    LoopbackChannel,
    TcpChannel,
    budget_refusal,
    run_session,
    serve_device,
)
from .seeding import derive_seed, sub_rng

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2
MAX_PORT = 65535


def _check_finite_nonnegative(flag: str, value: float):
    if not 0 <= value < math.inf:
        raise TimecheckError(f"{flag} must be a finite number >= 0, got {value}")


def _scenario_from_args(args) -> Scenario:
    scenario = load_scenario(args.config) if args.config else builtin_scenario(args.scenario)
    if args.passes is not None:
        if args.passes < 1:
            raise TimecheckError(f"--passes must be >= 1, got {args.passes}")
        scenario = dataclasses.replace(scenario, passes=args.passes)
    if getattr(args, "attack", "none") != "none":
        scenario = attack_scenario(scenario, args.attack)
    refusal = budget_refusal(scenario.k, scenario.passes
                             * (scenario.image_words + scenario.register_count))
    if refusal:  # checked before anything is evaluated or sent
        raise TimecheckError(f"a device refuses this challenge: {refusal}")
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


_PROFILE_SHAPE = ("region_id", "timing_words", "passes", "prime", "k")


def _read_profile(path):
    """(profile, shape) from a calibrate profile JSON; a malformed file raises TimecheckError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
            shape = tuple(doc[key] for key in _PROFILE_SHAPE)
            samples = doc["samples_us"]
            if not all(type(s) in (int, float) and math.isfinite(s) for s in samples):
                raise ValueError("samples_us holds a value that is not a finite number")
            return stats.calibrate(samples), shape
        except (KeyError, TypeError, ValueError, TimecheckError) as exc:
            raise TimecheckError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _connect(args, scenario: Scenario, attempt: int = 0):
    """The channel to the device that --target names: tcp://host:port is a
    TcpChannel, and loopback a DeviceEndpoint in this process, seeded for the
    attempt, behind a LoopbackChannel."""
    if args.target.startswith("tcp://"):
        host, _, port = args.target[len("tcp://"):].partition(":")
        # ASCII digits only (isdigit takes "²"); the socket layer wraps ports mod 2^16
        if not (port.isascii() and port.isdigit() and 1 <= int(port) <= MAX_PORT):
            raise TimecheckError(f"target {args.target!r} is not tcp://host:port "
                                 f"with a port in 1-{MAX_PORT}")
        return TcpChannel(host, int(port))
    if args.target != "loopback":
        raise TimecheckError(f"unknown target {args.target!r}: use loopback or tcp://host:port")
    endpoint = DeviceEndpoint(scenario, master_seed=derive_seed(args.seed, "device", attempt))
    return LoopbackChannel(endpoint)


def cmd_calibrate(args) -> int:
    scenario = _scenario_from_args(args)
    if args.trials < 2:
        raise InsufficientSamples("calibration needs --trials >= 2")
    if args.target == "sim":
        measurements = run_trials(scenario, args.trials, args.seed)
    else:
        channel = _connect(args, scenario)
        rng = sub_rng(args.seed, "calibration")
        measurements = []
        for trial_id in range(args.trials):
            session = run_session(channel, scenario, rng, rng)
            if session.refusal:
                raise TimecheckError(f"device refused session {trial_id}: {session.refusal}")
            measurements.append(Measurement(trial_id, scenario.name,
                                            max(1, session.timed.duration_us),
                                            session.spec_digest, session.spoiled))
    durations = [m.duration_us for m in measurements if not m.nmi]
    spoiled = len(measurements) - len(durations)
    if len(durations) < 2:
        raise InsufficientSamples(f"calibration needs >= 2 trials free of interrupt spikes, "
                                  f"got {len(durations)} of {len(measurements)}")
    profile = stats.calibrate(durations)
    max_lag = min(10, len(durations) - 1)
    whiteness = stats.serial_correlation(durations, max_lag)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"{scenario.name}-measurements.csv")
    profile_path = os.path.join(out, f"{scenario.name}-profile.json")
    with open(profile_path, "w") as fh:
        json.dump(_profile_doc(profile, scenario, whiteness, args.seed), fh, indent=2)
        fh.write("\n")

    flagged = ",".join(str(l) for l in whiteness.flagged_lags) or "none"
    if spoiled:
        print(f"left out {spoiled} of {len(measurements)} trials spoiled by interrupt spikes")
    print(f"calibrated {scenario.name}: n={profile.n} mean={profile.mean:.1f}us "
          f"std={profile.std:.1f}us")
    print(f"whiteness: {'PASS' if whiteness.white else 'FAIL'} "
          f"(Ljung-Box p={whiteness.q_pvalue:.4f}, lags outside band: {flagged})")
    print(f"wrote {profile_path}")
    _write_csv(csv_path, ["trial_id", "scenario", "duration_us", "spec_digest"],
               [[m.trial_id, m.scenario, m.duration_us, m.spec_digest] for m in measurements])
    return EXIT_OK


def cmd_challenge(args) -> int:
    scenario = _scenario_from_args(args)
    profile, shape = _read_profile(args.profile)
    want = tuple(getattr(scenario, key) for key in _PROFILE_SHAPE)
    if shape != want:
        raise TimecheckError(
            f"profile shape {shape} does not match scenario shape {want}; recalibrate")

    session_rng = sub_rng(args.seed, "session")  # one stream: each attempt a fresh session id
    verifier = DeviceEndpoint(scenario)  # the checkpoint is public: rebuild it locally
    for attempt in range(8):
        session = run_session(_connect(args, scenario, attempt), scenario,
                              sub_rng(args.seed, "challenge-spec", attempt),
                              session_rng, verifier, profile, args.detector)
        verdict = session.verdict
        if verdict.outcome != "RETRY":
            break
    out = {
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "duration_us": session.timed.duration_us,
        "accumulator": session.timed.response.accumulator,
        "detector": None if verdict.detector is None else {
            "method": verdict.detector.method,
            "score": verdict.detector.score,
            "flagged": verdict.detector.flagged,
        },
        "spec_digest": session.spec_digest,
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
    least = 3 if args.table == "fig13" else 2  # a fig13 leave-one-out profile holds trials - 1
    if args.trials < least:
        raise InsufficientSamples(f"{args.table} needs --trials >= {least}, got {args.trials}")
    if args.seeds < 1:
        raise TimecheckError(f"reproduce needs --seeds >= 1, got {args.seeds}")
    os.makedirs(args.out, exist_ok=True)
    if args.table == "fig13":
        return _reproduce_detection_table(args)
    return _reproduce_summary_table(args)


# The scenarios of each timing summary table, baseline first.
SUMMARY_TABLES = {
    "fig10": ("sram-baseline", "sram-dram", "sram-iomem"),
    "fig11": ("full-baseline", "full-mmc"),
}


def _reproduce_summary_table(args) -> int:
    """fig10 or fig11: each scenario's timing summary against the baseline, and
    the histograms. Only fig11 has the column of each mean's shift in
    baseline sigmas."""
    names = SUMMARY_TABLES[args.table]
    priced = priced_trials([(builtin_scenario(name), args.trials, args.seed) for name in names])
    batches = {name: [duration for duration, _ in rows] for name, rows in zip(names, priced)}
    base = batches[names[0]]
    header = ["scenario", "n", "mean_us", "std_us", "t_pvalue", "ks_pvalue"]
    if args.table == "fig11":
        header.append("shift_in_baseline_sigmas")
    rows = []
    for name, d in batches.items():
        mean, std = sum(d) / len(d), np.std(d, ddof=1).item()
        row = [name, len(d), f"{mean:.1f}", f"{std:.1f}", "", "", ""]
        if d is base:
            base_mean, base_std = mean, std
        else:
            _, t_p = stats.t_test(base, d)
            _, ks_p = stats.ks_test(base, d)
            row[4:] = [f"{t_p:.6e}", f"{ks_p:.6e}", f"{(mean - base_mean) / base_std:.1f}"]
        rows.append(row[:len(header)])
    _write_csv(os.path.join(args.out, f"{args.table}_summary.csv"), header, rows)
    _write_csv(os.path.join(args.out, f"{args.table}_hist.csv"),
               ["scenario", "bin_lo_us", "bin_hi_us", "count"],
               _histogram_rows(batches))
    return EXIT_OK


# The detectors fig13 compares, in its row order.
FIG13_METHODS = ("percentile", "zscore", "modz")


def aggregate_detection(attack_labels, n_seeds: int, trials: int, master_seed: int) -> dict:
    """{attack label: {method: ConfusionRow}}, pooled over n_seeds independent
    paired runs of each experiment.

    Every run of every experiment is priced first, in one priced_trials call
    (one baseline and one attack row per seed); each experiment's runs then
    go to one stats.confusion_report call, which bounds its own
    leave-one-out matrix.
    """
    batches = []
    for attack_label in attack_labels:
        base_sc = builtin_scenario(f"detector-{attack_label}-baseline")
        atk_sc = builtin_scenario(f"detector-{attack_label}-attack")
        seeds = [derive_seed(master_seed, f"detect/{attack_label}", i) for i in range(n_seeds)]
        batches += [(base_sc, trials, seed) for seed in seeds]
        batches += [(atk_sc, trials, derive_seed(seed, "atk")) for seed in seeds]
    rows = np.empty((len(batches), trials))
    for row, priced in zip(rows, priced_trials(batches)):
        row[:] = [duration for duration, _ in priced]
    rows = rows.reshape(len(attack_labels), 2, n_seeds, trials)
    return {attack_label: stats.confusion_report(base, atk, methods=FIG13_METHODS)
            for attack_label, (base, atk) in zip(attack_labels, rows)}


def _reproduce_detection_table(args) -> int:
    rows = []
    try:
        aggs = aggregate_detection(("dram", "iomem"), args.seeds, args.trials, args.seed)
    except DegenerateSeries as exc:
        raise TimecheckError(f"fig13 needs more --trials: a leave-one-out baseline of "
                             f"{args.trials - 1} points (--trials minus one) has zero "
                             f"spread ({exc})") from exc
    for attack_label, agg in aggs.items():
        for method in FIG13_METHODS:
            r = agg[method]
            rows.append([attack_label, method,
                         f"{100 * r.fpr:.1f}", f"{100 * r.fnr:.1f}",
                         r.baseline_count, r.attack_count])
    _write_csv(os.path.join(args.out, "fig13_detection.csv"),
               ["attack", "method", "fpr_pct", "fnr_pct",
                "baseline_points", "attack_points"], rows)
    return EXIT_OK


def cmd_serve(args) -> int:
    _check_finite_nonnegative("--time-scale", args.time_scale)
    if not 0 <= args.port <= MAX_PORT:
        raise TimecheckError(f"--port must be in 0-{MAX_PORT} (0: any free port), "
                             f"got {args.port}")
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
        if args.words < 1:
            raise TimecheckError(f"--words must be >= 1, got {args.words}")
        if args.registers < 0:
            raise TimecheckError(f"--registers must be >= 0, got {args.registers}")
        if args.words + args.registers > MAX_SCAN_WORDS:
            raise TimecheckError(f"--words plus --registers must be <= {MAX_SCAN_WORDS}, "
                                 f"got {args.words + args.registers}")
        try:
            region_bytes(args.region)
        except ValueError as exc:
            raise TimecheckError(f"--region: {exc}") from exc
        cp = checkpoint_record(make_device_state(args.seed, args.words, args.registers),
                               args.registers, args.region)
        save_checkpoint(cp, args.make)
        print(f"wrote {args.make} ({cp.word_count} words, {cp.register_count} registers)")
        return EXIT_OK
    cp = load_checkpoint(args.inspect)
    rep = entropy_report(cp.words[:cp.word_count])
    print(json.dumps({
        "word_count": cp.word_count,
        "register_count": cp.register_count,
        "region_id": cp.region_id,
        "format_version": FORMAT_VERSION,
        "entropy_bits_per_byte_min": round(rep.min_entropy, 3),
        "low_entropy_block_fraction": round(rep.low_entropy_fraction, 3),
    }, indent=2))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="timecheck",
        description="timing-based software root of trust: challenge engine, "
                    "device simulator, and statistical verifier")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--scenario", choices=tuple(SCENARIOS), default="sram-baseline")
        p.add_argument("--config", help="scenario JSON file (overrides --scenario)")
        p.add_argument("--passes", type=int, default=None,
                       help="override pass count (default from scenario)")

    p = sub.add_parser("calibrate", help="run baseline trials, write profile + CSV")
    common(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", default=".")
    p.add_argument("--target", default="sim",
                   help="sim (timing model), loopback (full protocol), or tcp://host:port")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("challenge", help="one attested challenge session")
    common(p)
    p.add_argument("--profile", required=True, help="profile JSON from calibrate")
    p.add_argument("--target", default="loopback", help="loopback or tcp://host:port")
    p.add_argument("--detector", choices=tuple(stats.DETECTORS), default="percentile")
    p.add_argument("--attack", choices=tuple(ATTACKS), default="none")
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
    p.add_argument("--attack", choices=tuple(ATTACKS), default="none")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="stretch simulated delays into real time "
                        "(1.0 = real time, 0.0 = respond immediately)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("checkpoint", help="make or inspect checkpoint files")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--make", metavar="PATH")
    g.add_argument("--inspect", metavar="PATH")
    p.add_argument("--words", type=int, default=4096)
    p.add_argument("--registers", type=int, default=DEFAULT_REGISTER_COUNT)
    p.add_argument("--region", default="sram")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_checkpoint)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error: argparse's exit 2 would read as a REJECT
            return EXIT_ERROR
        raise
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
