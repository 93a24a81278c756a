"""The four benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished. Inputs derive from the workload
seed alone. Calls into the package go through module attributes at call time
(`protocol.issue_challenge`, not a local binding), so the tracer's wrappers
see them.

A workload provides:
  build()        set-up: endpoints, checkpoints, profile calibration
  op(i)          one timed operation; returns a record with "latency_s"
  check(rec)     (failed, verdict_error) for one record, off the clock
  digest(rec)    bytes of the record's simulated outputs, for sim_digest
  digest_prefix()  bytes of set-up outputs that go into sim_digest first
  finish(recs, measured)
                 off-the-clock work after the loop over all records; returns
                 extra end-to-end figures, from the untraced `measured` ones,
                 and a list of failed checks
  close()        stops every process the workload started
"""

import contextlib
import csv
import ctypes
import io
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from timecheck import checkpoint, cli, device, engine, protocol, stats
from timecheck.seeding import derive_seed, sub_rng

_clock = time.perf_counter


def _seed31(master: int, label: str, index: int = 0) -> int:
    return derive_seed(master, label, index) % (1 << 31)


def _naive_accumulator(cp, region_id, spec) -> int:
    image = checkpoint.MemoryImage(checkpoint.scan_words(cp), region_id)
    return engine.multipass_naive(image, spec).accumulator


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by linear interpolation, as statistics.quantiles gives it."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Workload:
    """Defaults shared by the workloads below."""

    scores_verdicts = False  # whether verdicts have a ground-truth label

    def digest_prefix(self) -> bytes:
        return b""

    def close(self):
        pass


# --- desk sessions over loopback ------------------------------------------------

class DeskLoopback(Workload):
    """desk-small sessions through LoopbackChannel against a mix of devices."""

    name = "desk-loopback"
    min_ops = 100          # p90 needs at least 10 sessions beyond it
    digest_ops = 100
    traced_ops = 20
    shape = (2048, 8, 2)   # scan words, passes, k
    scores_verdicts = True
    kinds = ("none", "dram", "iomem", "mmc", "corrupt")
    calibration_sessions = 40
    jitter_us = 0.4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def build(self):
        seed = self.seed
        sc = device.desk_scenario()
        self.sc = sc
        cal = protocol.LoopbackChannel(
            protocol.DeviceEndpoint(sc, master_seed=derive_seed(seed, "cal-device")),
            jitter_us=self.jitter_us, jitter_seed=derive_seed(seed, "cal-jitter"))
        rng = sub_rng(seed, "calibration")
        durations = []
        for _ in range(self.calibration_sessions):
            spec = engine.random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
            durations.append(protocol.issue_challenge(cal, spec, rng=rng).duration_us)
        self.profile = stats.calibrate(durations)
        self.verifier = protocol.DeviceEndpoint(sc, master_seed=derive_seed(seed, "verifier"))
        self.channels = {}
        for kind in self.kinds:
            scenario = sc if kind == "none" else device.attack_scenario(sc, kind)
            endpoint = protocol.DeviceEndpoint(scenario,
                                               master_seed=derive_seed(seed, f"device/{kind}"))
            self.channels[kind] = protocol.LoopbackChannel(
                endpoint, jitter_us=self.jitter_us,
                jitter_seed=derive_seed(seed, f"jitter/{kind}"))
        self.session_rng = sub_rng(seed, "sessions")
        self.schedule_rng = sub_rng(seed, "schedule")
        self.block = []

    def _next_kind(self) -> str:
        # every block of five sessions visits each device kind once
        if not self.block:
            self.block = list(self.kinds)
            self.schedule_rng.shuffle(self.block)
        return self.block.pop()

    def op(self, i):
        sc = self.sc
        kind = self._next_kind()
        t0 = _clock()
        spec = engine.random_spec(sc.prime, sc.k, sc.passes, self.session_rng, sc.region_id)
        expected = self.verifier.expected_result(spec)
        timed = protocol.issue_challenge(self.channels[kind], spec, rng=self.session_rng)
        verdict = protocol.verify_response(expected, timed, self.profile, method="percentile")
        latency = _clock() - t0
        return {"op": i, "latency_s": latency, "kind": kind, "spec": spec,
                "expected": expected.accumulator, "words": expected.words_scanned,
                "accumulator": timed.response.accumulator, "status": timed.response.status,
                "duration_us": timed.duration_us, "outcome": verdict.outcome,
                "reason": verdict.reason}

    def check(self, rec):
        if rec["kind"] == "corrupt":
            failed = (rec["accumulator"] == rec["expected"]
                      or rec["reason"] != "accumulator mismatch")
        else:
            failed = rec["accumulator"] != rec["expected"]
        want = "ACCEPT" if rec["kind"] == "none" else "REJECT"
        return failed, rec["outcome"] != want

    def digest(self, rec) -> bytes:
        return repr((rec["kind"], rec["expected"], rec["accumulator"], rec["status"],
                     rec["duration_us"], rec["outcome"])).encode()

    def finish(self, records, measured):
        problems = []
        first = records[0]
        naive = _naive_accumulator(self.verifier.checkpoint, self.sc.region_id, first["spec"])
        if naive != first["expected"]:
            problems.append("first session: expected value differs from multipass_naive")
        if first["kind"] != "corrupt" and naive != first["accumulator"]:
            problems.append("first session: device accumulator differs from multipass_naive")
        lat_ms = [r["latency_s"] * 1e3 for r in measured]
        extra = {
            "session_p50_ms": (statistics.median(lat_ms), "ms", len(lat_ms)),
            "session_p90_ms": (percentile(lat_ms, 90), "ms", len(lat_ms)),
        }
        return extra, problems


# --- SRAM-scale scan through the CLI ------------------------------------------------

class SramScan(Workload):
    """In-process `timecheck challenge --scenario sram-baseline --passes P` calls."""

    name = "sram-scan"
    passes = 3
    scores_verdicts = True
    min_ops = 20           # host speed drifts within one 1 s call; more calls steady the median
    digest_ops = 3
    traced_ops = 2
    shape = (device.SRAM_SCAN_WORDS, 1, 4)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = os.path.join(workdir, "sram")
        self.captured = []
        # Record the verifier's expected value and the checkpoint it came from,
        # so every printed accumulator can be compared with it.
        original = protocol.DeviceEndpoint.__dict__["expected_result"]
        captured = self.captured

        def expected_result(endpoint, spec):
            result = original(endpoint, spec)
            captured.append((endpoint, spec, result))
            return result

        self._original = original
        protocol.DeviceEndpoint.expected_result = expected_result

    def build(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        argv = ["calibrate", "--scenario", "sram-baseline", "--passes", str(self.passes),
                "--trials", "50", "--target", "sim", "--seed", str(_seed31(self.seed, "calibrate")),
                "--out", self.dir]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"calibrate exited {rc}")
        self.profile_path = os.path.join(self.dir, "sram-baseline-profile.json")
        with open(self.profile_path, "rb") as fh:
            self.profile_bytes = fh.read()

    def op(self, i):
        argv = ["challenge", "--scenario", "sram-baseline", "--passes", str(self.passes),
                "--profile", self.profile_path, "--seed", str(_seed31(self.seed, "challenge", i))]
        del self.captured[:]
        out = io.StringIO()
        t0 = _clock()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        latency = _clock() - t0
        doc = json.loads(out.getvalue()) if rc != 1 else {}
        endpoint, spec, expected = self.captured[-1]
        return {"op": i, "latency_s": latency, "rc": rc, "doc": doc, "stdout": out.getvalue(),
                "expected": expected.accumulator, "words": 2 * expected.words_scanned,
                "checkpoint": endpoint.checkpoint, "region_id": endpoint.scenario.region_id,
                "spec": spec}

    def check(self, rec):
        doc = rec["doc"]
        failed = (rec["rc"] == 1 or doc.get("accumulator") != rec["expected"]
                  or doc.get("reason") == "accumulator mismatch")
        return failed, doc.get("outcome") != "ACCEPT"

    def digest(self, rec) -> bytes:
        return rec["stdout"].encode()

    def finish(self, records, measured):
        problems = []
        first = records[0]
        naive = _naive_accumulator(first["checkpoint"], first["region_id"], first["spec"])
        if naive != first["doc"].get("accumulator"):
            problems.append("first challenge: accumulator differs from multipass_naive")
        words = sum(r["words"] for r in measured)
        busy = sum(r["latency_s"] for r in measured)
        extra = {"scan_words_per_s": (words / busy, "words/s", len(measured))}
        return extra, problems

    def digest_prefix(self) -> bytes:
        return self.profile_bytes

    def close(self):
        protocol.DeviceEndpoint.expected_result = self._original
        shutil.rmtree(self.dir, ignore_errors=True)


# --- report reproduction -------------------------------------------------------------

FIG10_MEANS = {"sram-baseline": 9.591e6, "sram-dram": 9.594e6, "sram-iomem": 9.591e6}
FIG11_MEANS = {"full-baseline": 1.731895e9, "full-mmc": 1.735465e9}
REPORT_FILES = ("fig10_summary.csv", "fig10_hist.csv", "fig11_summary.csv",
                "fig11_hist.csv", "fig13_detection.csv")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_problems(out_dir) -> list:
    """The seed-independent properties of acceptance criteria c05, c06 and c07."""
    problems = []
    fig10 = {r["scenario"]: r for r in _rows(os.path.join(out_dir, "fig10_summary.csv"))}
    fig11 = {r["scenario"]: r for r in _rows(os.path.join(out_dir, "fig11_summary.csv"))}
    for rows, targets in ((fig10, FIG10_MEANS), (fig11, FIG11_MEANS)):
        for name, target in targets.items():
            mean = float(rows[name]["mean_us"]) if name in rows else float("nan")
            if not abs(mean - target) / target < 0.01:
                problems.append(f"{name}: mean {mean} not within 1% of {target}")
    shift = float(fig11.get("full-mmc", {}).get("shift_in_baseline_sigmas") or "nan")
    if not shift >= 100.0:
        problems.append(f"full-mmc: shift {shift} below 100 baseline sigmas")
    fig13 = _rows(os.path.join(out_dir, "fig13_detection.csv"))
    if len(fig13) != 6:
        problems.append(f"fig13: {len(fig13)} rows, expected 6")
    # Percentile and z-score miss no attack at any master seed. Modified-z
    # does: with quantized noise the baseline MAD sometimes lands on a wide
    # atom, and its pooled iomem FNR then exceeds 5% (6.8% at some seeds), so
    # it is reported, not asserted.
    for r in fig13:
        if r["method"] != "modz" and not float(r["fnr_pct"]) <= 5.0:
            problems.append(f"fig13 {r['attack']}/{r['method']}: FNR {r['fnr_pct']}% above 5%")
    return problems


def modz_fnr_pct(csv_bytes: bytes) -> float:
    """Highest modified-z FNR in one fig13 table, in percent."""
    rows = csv.DictReader(io.StringIO(csv_bytes.decode()))
    return max(float(r["fnr_pct"]) for r in rows if r["method"] == "modz")


class Reports(Workload):
    """In-process `timecheck reproduce fig10|fig11|fig13` sets at derived master seeds."""

    name = "reports"
    min_ops = 20           # host speed drifts within one 1.5 s set; more sets steady the median
    digest_ops = 2
    traced_ops = 2
    shape = (device.SRAM_SCAN_WORDS, 1, 4)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = os.path.join(workdir, "reports")

    def build(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def op(self, i):
        out_dir = os.path.join(self.dir, f"set{i}")
        master = str(_seed31(self.seed, "reports", i))
        rcs = []
        t0 = _clock()
        with contextlib.redirect_stdout(io.StringIO()):
            for table in ("fig10", "fig11", "fig13"):
                rcs.append(cli.main(["reproduce", table, "--seed", master, "--out", out_dir]))
        latency = _clock() - t0
        problems = [f"reproduce exited {rcs}"] if any(rcs) else report_problems(out_dir)
        blobs = []
        for name in REPORT_FILES:
            with open(os.path.join(out_dir, name), "rb") as fh:
                blobs.append(fh.read())
        shutil.rmtree(out_dir)
        return {"op": i, "latency_s": latency, "problems": problems, "csv": b"".join(blobs),
                "modz_fnr_pct": modz_fnr_pct(blobs[-1])}

    def check(self, rec):
        return bool(rec["problems"]), False

    def digest(self, rec) -> bytes:
        return rec["csv"]

    def finish(self, records, measured):
        problems = [p for r in records for p in r["problems"]]
        lat = [r["latency_s"] for r in measured]
        modz = [r["modz_fnr_pct"] for r in records]
        return {"report_set_s": (statistics.median(lat), "s", len(lat)),
                "fig13_modz_fnr_max_pct": (max(modz), "%", len(modz))}, problems

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# --- desk sessions over real TCP ----------------------------------------------------

_LISTEN = re.compile(r"listening on tcp://([0-9.]+):(\d+)")
_PR_SET_PDEATHSIG = 1


def _die_with_parent():
    """Runs in the server child before exec: SIGTERM it if the benchmark dies first."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return
    prctl = libc.prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class DeskTcp(Workload):
    """Honest desk-small sessions over TcpChannel to a `timecheck serve` child.

    The child sleeps each modeled delay for real (time scale 1.0). A twin
    DeviceEndpoint on the server's master seed replays every challenge the
    server saw, in the same order, after the timed loop; its reply delays are
    the modeled durations the measured ones are compared with.
    """

    name = "desk-tcp"
    min_ops = 100
    digest_ops = 100
    traced_ops = 20
    shape = (2048, 8, 2)
    calibration_sessions = 10  # verdicts here have no label; the profile only has to exist
    start_timeout_s = 60.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.proc = None

    def _start_server(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONUNBUFFERED="1")
        # -u as well: `serve` prints its port and then blocks, so a buffered
        # line would never reach the pipe.
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "timecheck.cli", "serve", "--scenario", "desk-small",
             "--time-scale", "1.0", "--seed", str(self.server_seed), "--port", "0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, cwd=root,
            preexec_fn=_die_with_parent)
        deadline = time.monotonic() + self.start_timeout_s
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise RuntimeError("timecheck serve did not print its port in time")
            chunk = os.read(self.proc.stdout.fileno(), 256)
            if not chunk:
                raise RuntimeError(f"timecheck serve exited with {self.proc.wait()}")
            line += chunk
        match = _LISTEN.search(line.decode())
        if match is None:
            raise RuntimeError(f"unexpected serve banner {line!r}")
        return match.group(1), int(match.group(2))

    def build(self):
        self.close()
        seed = self.seed
        self.server_seed = _seed31(seed, "serve")
        sc = device.desk_scenario()
        self.sc = sc
        host, port = self._start_server()
        self.link = f"{host} (loopback interface)"
        self.channel = protocol.TcpChannel(host, port, timeout_s=10.0)
        self.verifier = protocol.DeviceEndpoint(sc, master_seed=derive_seed(seed, "verifier"))
        self.served = []  # (spec, accumulator the server returned), in serve order
        rng = sub_rng(seed, "calibration")
        durations = []
        for _ in range(self.calibration_sessions):
            spec = engine.random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
            timed = protocol.issue_challenge(self.channel, spec, rng=rng)
            self.served.append((spec, timed.response.accumulator))
            durations.append(timed.duration_us)
        self.profile = stats.calibrate(durations)
        self.session_rng = sub_rng(seed, "sessions")

    def op(self, i):
        sc = self.sc
        t0 = _clock()
        spec = engine.random_spec(sc.prime, sc.k, sc.passes, self.session_rng, sc.region_id)
        expected = self.verifier.expected_result(spec)
        timed = protocol.issue_challenge(self.channel, spec, rng=self.session_rng)
        verdict = protocol.verify_response(expected, timed, self.profile, method="percentile")
        latency = _clock() - t0
        self.served.append((spec, timed.response.accumulator))
        return {"op": i, "latency_s": latency, "spec": spec, "expected": expected.accumulator,
                "accumulator": timed.response.accumulator,
                "duration_us": timed.duration_us, "outcome": verdict.outcome}

    def check(self, rec):
        return rec["accumulator"] != rec["expected"], False

    def digest(self, rec) -> bytes:
        return repr((rec["expected"], rec["accumulator"])).encode()

    def _modeled_durations(self) -> tuple:
        """Twin replay of every served challenge, in serve order, off the clock."""
        twin = protocol.DeviceEndpoint(self.sc, master_seed=derive_seed(self.server_seed, "device"))
        modeled = []
        mismatches = 0
        for spec, served_acc in self.served:
            replies = twin.handle_challenge(protocol.ChallengeMessage(1, spec))
            delay_us, frame = replies[-1]
            (reply,) = protocol.FrameDecoder().feed(frame)
            mismatches += reply.accumulator != served_acc
            modeled.append(delay_us)
        return modeled, mismatches

    def finish(self, records, measured):
        problems = []
        first = records[0]
        naive = _naive_accumulator(self.verifier.checkpoint, self.sc.region_id, first["spec"])
        if naive != first["expected"] or naive != first["accumulator"]:
            problems.append("first session: accumulator differs from multipass_naive")
        modeled, mismatches = self._modeled_durations()
        if mismatches:
            problems.append(f"twin endpoint disagrees with the server on {mismatches} sessions")
        modeled = modeled[self.calibration_sessions:]
        errors = [r["duration_us"] - m for r, m in zip(records, modeled)]
        errors = errors[len(records) - len(measured):]
        lat_ms = [r["latency_s"] * 1e3 for r in measured]
        extra = {
            "session_p50_ms": (statistics.median(lat_ms), "ms", len(lat_ms)),
            "session_p90_ms": (percentile(lat_ms, 90), "ms", len(lat_ms)),
            "timing_error_p50_us": (statistics.median(errors), "us", len(errors)),
            "timing_error_p90_us": (percentile(errors, 90), "us", len(errors)),
        }
        return extra, problems

    def close(self):
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


WORKLOADS = {w.name: w for w in (DeskLoopback, SramScan, Reports, DeskTcp)}
