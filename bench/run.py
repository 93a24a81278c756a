"""timecheck benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload desk-loopback --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. With --trace 0 it measures the end-to-end metrics with no
instrumentation; with --trace 1 it wraps the package's public functions (see
tracing.py), runs set-up and the first operations traced, then the rest
untraced, and reports the per-layer metrics plus the tracing overhead.

Output: human-readable lines, one JSON line with the details (machine,
workload-specific end-to-end figures with sample counts, sim_digest, failed
checks), and as the last line the result object
{"correct", "attempted", "failed", "metrics"}.
"""

import time

_T_PROCESS = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("desk-loopback", "sram-scan", "reports", "desk-tcp")
SETUP_REPEATS = 3
REF_SHARE = 0.05
# Stop starting new operations after this long; the run must end within 180 s.
SOFT_DEADLINE_S = 140.0
HARD_DEADLINE_S = 170
NAN = float("nan")


_ERROR_MODULES = ("engine", "permutation", "field", "seeding", "checkpoint",
                  "device", "protocol", "stats", "cli")

# Per-layer metrics reported by the traced run. Busy and self times and the
# counts cover set-up plus the first traced operations; the _ns and _us
# figures are untraced microbenchmarks on the workload's own sizes.
PER_LAYER_UNITS = {
    "engine.multipass.calls": "count",
    "engine.words_scanned": "count",
    "engine.multipass.self_ms": "ms",
    "engine.ns_per_word": "ns",
    "permutation.get.calls": "count",
    "permutation.get.busy_ms": "ms",
    "permutation.get_ns": "ns",
    "permutation.share_of_multipass": "ratio",
    "coeffs.coefficient_at_ns": "ns",
    "field.is_prime.calls": "count",
    "field.is_prime.busy_ms": "ms",
    "field.is_prime_us": "us",
    "engine.random_spec.busy_ms": "ms",
    "engine.digest.calls": "count",
    "seeding.sub_rng.calls": "count",
    "device.run_trials.busy_ms": "ms",
    "device.trials_priced": "count",
    "device.make_device_state.busy_ms": "ms",
    "checkpoint.checkpoint_replay.busy_ms": "ms",
    "checkpoint.scan_words.busy_ms": "ms",
    "protocol.codec.frames": "count",
    "protocol.codec.bytes": "bytes",
    "protocol.codec.busy_ms": "ms",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "protocol.handle_challenge.self_ms": "ms",
    "protocol.verify_response.busy_ms": "ms",
    "protocol.socket_wait_ms": "ms",
    "stats.detect.calls": "count",
    "stats.calibrate.calls": "count",
    "stats.calibrate.busy_ms": "ms",
    "stats.confusion_report.self_ms": "ms",
    "stats.t_test.busy_ms": "ms",
    "stats.ks_test.busy_ms": "ms",
    "cli.main.self_ms": "ms",
    **{f"{mod}.errors": "count" for mod in _ERROR_MODULES},
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}


def _fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _import_package() -> float:
    """Import timecheck from this checkout's src/; seconds since process start."""
    if not os.path.isfile(os.path.join(SRC, "timecheck", "__init__.py")):
        _fail(f"no timecheck sources under {SRC}")
    sys.path.insert(0, SRC)
    import timecheck
    import timecheck.cli  # noqa: F401  (imports every module the workloads use)

    if os.path.dirname(os.path.abspath(timecheck.__file__)) != os.path.join(SRC, "timecheck"):
        _fail(f"imported timecheck from {timecheck.__file__}, not from {SRC}")
    return time.perf_counter() - _T_PROCESS


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(wl, start_index, stop, records, failures, refs) -> int:
    """Run operations until stop(n_done, elapsed) says so; exceptions count as failed.

    After each operation, off the clock, the reference kernel runs until it
    has taken at least REF_SHARE of the operation's time, and at least once;
    its times go to refs.
    """
    t_begin = time.perf_counter()
    i = start_index
    while not stop(i - start_index, time.perf_counter() - t_begin):
        t_op = time.perf_counter()
        try:
            records.append(wl.op(i))
        except Exception as exc:  # an operation that raised is a failed operation
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        budget = REF_SHARE * (time.perf_counter() - t_op)
        spent = 0.0
        while spent == 0.0 or spent < budget:
            refs.append(reference.seconds())
            spent += refs[-1]
        i += 1
    return i


def _past_deadline() -> bool:
    return time.perf_counter() - _T_PROCESS > SOFT_DEADLINE_S


def measure(wl, seconds: float, tracer=None) -> dict:
    """Set-up, then the closed loop; with a tracer, set-up and the first ops are traced."""
    if tracer is not None:
        tracer.session = "setup"
        tracer.install()
    build_s = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.build()
        build_s.append(time.perf_counter() - t0)

    reference.seconds()  # warm-up, discarded
    records, failures = [], []
    n_traced = 0
    if tracer is not None:
        def traced_stop(n, elapsed):
            tracer.session = n
            return n >= wl.traced_ops or _past_deadline()

        n_traced = _loop(wl, 0, traced_stop, records, failures, [])
        tracer.uninstall()
    # untraced operations after a traced prefix give the overhead's baseline
    minimum = max(wl.min_ops, wl.digest_ops, 2 * n_traced)

    def stop(n, elapsed):
        return (elapsed >= seconds and n_traced + n >= minimum) or _past_deadline()

    refs = []
    attempted = _loop(wl, n_traced, stop, records, failures, refs)
    n_traced_ok = sum(1 for r in records if r["op"] < n_traced)
    return {"build_s": build_s, "records": records, "failures": failures,
            "attempted": attempted, "refs": refs, "traced": records[:n_traced_ok],
            "measured": records[n_traced_ok:]}


def per_layer(tracer, micro: dict, overhead_ms: float) -> dict:
    from tracing import CODEC

    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    m = {
        "engine.multipass.calls": get("engine.multipass", "calls"),
        "engine.words_scanned": tracer.counts["engine.words_scanned"],
        "engine.multipass.self_ms": get("engine.multipass", "self_ns") / 1e6,
        "engine.ns_per_word": micro["engine.ns_per_word"],
        "permutation.get.calls": get("permutation.get", "calls"),
        "permutation.get.busy_ms": get("permutation.get", "busy_ns") / 1e6,
        "permutation.get_ns": micro["permutation.get_ns"],
        "permutation.share_of_multipass": micro["permutation.share_of_multipass"],
        "coeffs.coefficient_at_ns": micro["coeffs.coefficient_at_ns"],
        "field.is_prime.calls": get("field.is_prime", "calls"),
        "field.is_prime.busy_ms": get("field.is_prime", "busy_ns") / 1e6,
        "field.is_prime_us": micro["field.is_prime_us"],
        "engine.random_spec.busy_ms": get("engine.random_spec", "busy_ns") / 1e6,
        "engine.digest.calls": get("engine.digest", "calls"),
        "seeding.sub_rng.calls": get("seeding.sub_rng", "calls"),
        "device.run_trials.busy_ms": get("device.run_trials", "busy_ns") / 1e6,
        "device.trials_priced": tracer.counts["device.trials_priced"],
        "device.make_device_state.busy_ms": get("device.make_device_state", "busy_ns") / 1e6,
        "checkpoint.checkpoint_replay.busy_ms": get("checkpoint.checkpoint_replay", "busy_ns") / 1e6,
        "checkpoint.scan_words.busy_ms": get("checkpoint.scan_words", "busy_ns") / 1e6,
        "protocol.codec.frames": tracer.counts["protocol.codec.frames"],
        "protocol.codec.bytes": tracer.counts["protocol.codec.bytes"],
        "protocol.codec.busy_ms": sum(get(n, "busy_ns") for n in CODEC) / 1e6,
        "protocol.encode_us": micro["protocol.encode_us"],
        "protocol.decode_us": micro["protocol.decode_us"],
        "protocol.handle_challenge.self_ms": get("protocol.handle_challenge", "self_ns") / 1e6,
        "protocol.verify_response.busy_ms": get("protocol.verify_response", "busy_ns") / 1e6,
        "protocol.socket_wait_ms": tracer.socket_wait_ns() / 1e6,
        "stats.detect.calls": get("stats.detect", "calls"),
        "stats.calibrate.calls": get("stats.calibrate", "calls"),
        "stats.calibrate.busy_ms": get("stats.calibrate", "busy_ns") / 1e6,
        "stats.confusion_report.self_ms": get("stats.confusion_report", "self_ns") / 1e6,
        "stats.t_test.busy_ms": get("stats.t_test", "busy_ns") / 1e6,
        "stats.ks_test.busy_ms": get("stats.ks_test", "busy_ns") / 1e6,
        "cli.main.self_ms": get("cli.main", "self_ns") / 1e6,
    }
    for mod in _ERROR_MODULES:
        m[f"{mod}.errors"] = tracer.errors[mod]
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_ms"] = overhead_ms
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGALRM, _on_signal)
    signal.alarm(HARD_DEADLINE_S)

    import_s = _import_package()
    import micro
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        run = measure(wl, args.seconds, tracer)
        records, measured = run["records"], run["measured"]
        checks = [wl.check(r) for r in records]
        failed = len(run["failures"]) + sum(1 for f, _ in checks if f)
        problems = list(run["failures"])
        extra = {}
        if measured:
            extra, more = wl.finish(records, measured)
            problems += more
        else:
            problems.append("no untraced operation completed")
        if len(records) < wl.digest_ops:
            problems.append(f"only {len(records)} operations, sim_digest needs {wl.digest_ops}")
        digest = hashlib.sha256(wl.digest_prefix())
        for rec in records[:wl.digest_ops]:
            digest.update(wl.digest(rec))
        if tracer is not None:
            figures = micro.run(*wl.shape, seed=args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = import_s + statistics.median(run["build_s"])
    op_p50 = statistics.median(r["latency_s"] * 1e3 for r in measured) if measured else NAN
    ref_ms = statistics.median(run["refs"]) * 1e3
    op_p50_ref = op_p50 / ref_ms
    rss = peak_rss_mb()
    figures_e2e = {
        "setup_s": (setup_s, "s", len(run["build_s"])),
        "op_p50_ms": (op_p50, "ms", len(measured)),
        "op_p50_ref": (op_p50_ref, "ref", len(measured)),
        "reference_ms": (ref_ms, "ms", len(run["refs"])),
        "fail_ratio": (failed / max(1, run["attempted"]), "ratio", run["attempted"]),
        "peak_rss_mb": (rss, "MB", 1),
    }
    if wl.scores_verdicts:
        wrong = sum(1 for _, v in checks if v)
        figures_e2e["verdict_error_ratio"] = (wrong / max(1, len(records)), "ratio", len(records))
    figures_e2e.update(extra)
    for name, (value, unit, n) in figures_e2e.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit} (n={n})")

    if tracer is not None:
        traced_p50 = statistics.median(r["latency_s"] * 1e3 for r in run["traced"])
        layers = per_layer(tracer, figures, traced_p50 - op_p50)
        metrics = {n: {"value": v, "unit": PER_LAYER_UNITS[n]} for n, v in layers.items()}
        for name, entry in metrics.items():
            print(f"{args.workload}: {name} = {entry['value']:.6g} {entry['unit']}")
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path)
        print(f"{args.workload}: spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "op_p50_ref": {"value": op_p50_ref, "unit": "ref"},
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "link": getattr(wl, "link", None),
        "operations": {"attempted": run["attempted"], "measured": len(measured),
                       "traced": len(run["traced"]), "run_s": args.seconds},
        "end_to_end": {n: {"value": v, "unit": u, "n": c}
                       for n, (v, u, c) in figures_e2e.items()},
        "sim_digest": digest.hexdigest(),
        "sim_digest_ops": min(len(records), wl.digest_ops),
        "problems": problems,
    }
    print(f"{args.workload}: sim_digest = {detail['sim_digest']}")
    for p in problems:
        print(f"{args.workload}: CHECK FAILED: {p}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
