"""CLI behavior: exit codes, artifacts, determinism."""

import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import time
import warnings

import pytest

from timecheck import cli, engine, protocol, stats
from timecheck.checkpoint import load_checkpoint
from timecheck.cli import (
    EXIT_REJECT,
    _scenario_from_args,
    aggregate_detection,
    build_parser,
    main,
)
from timecheck.device import (
    ATTACKS,
    SCENARIOS,
    AdversaryConfig,
    NoiseModel,
    Scenario,
    TierModel,
    attack_scenario,
    builtin_scenario,
    load_scenario,
    price,
    scenario_from_json,
    scenario_to_json,
)
from timecheck.engine import multipass, multipass_m61, random_spec
from timecheck.errors import DegenerateSeries, TimecheckError
from timecheck.field import M61
from timecheck.protocol import ChannelTimeout, DeviceEndpoint, LoopbackChannel
from timecheck.seeding import derive_seed


def run(args):
    return main([str(a) for a in args])


def _write_scenario(scenario, path):
    """Save scenario as a --config file."""
    path.write_text(json.dumps(scenario_to_json(scenario), indent=2))


@pytest.fixture
def calibrated(tmp_path):
    code = run(["calibrate", "--scenario", "desk-small", "--trials", 40,
                "--seed", 3, "--out", tmp_path])
    assert code == 0
    return tmp_path / "desk-small-profile.json"


class TestCalibrate:
    def test_writes_profile_and_csv(self, tmp_path, calibrated):
        doc = json.loads(calibrated.read_text())
        assert doc["n"] == 40
        assert doc["passes"] == 8
        assert len(doc["samples_us"]) == 40
        csv_lines = (tmp_path / "desk-small-measurements.csv").read_text().splitlines()
        assert csv_lines[0] == "trial_id,scenario,duration_us,spec_digest"
        assert len(csv_lines) == 41
        first = csv_lines[1].split(",")
        assert first[0] == "0" and first[1] == "desk-small"
        assert int(first[2]) > 0 and first[3] == ""  # --target sim sends no challenge

    def test_loopback_measurements_name_their_challenges(self, tmp_path):
        # unlike --target sim, each loopback trial sends a challenge
        assert run(["calibrate", "--scenario", "desk-small", "--target", "loopback",
                    "--trials", 5, "--seed", 3, "--out", tmp_path]) == 0
        rows = (tmp_path / "desk-small-measurements.csv").read_text().splitlines()[1:]
        digests = [row.split(",")[3] for row in rows]
        assert len(set(digests)) == 5
        assert all(len(d) == 32 and int(d, 16) >= 0 for d in digests)

    def test_single_trial_errors(self, tmp_path):
        assert run(["calibrate", "--scenario", "desk-small", "--trials", 1,
                    "--out", tmp_path]) == 1

    @pytest.mark.parametrize("target", ["sim", "loopback"])
    def test_over_budget_passes_is_an_operational_error(self, tmp_path, capsys, target):
        # 20,000 passes x 2,048 words exceed MAX_SCAN_WORDS: every session
        # would be refused, so nothing is run and no profile is written
        code = run(["calibrate", "--scenario", "desk-small", "--passes", 20000,
                    "--target", target, "--trials", 5, "--out", tmp_path])
        assert code == 1
        assert "exceed the budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_refused_session_is_not_recorded(self, tmp_path, monkeypatch, capsys):
        sc = builtin_scenario("desk-small")
        other_region = DeviceEndpoint(dataclasses.replace(sc, region_id="dram"))
        channel = LoopbackChannel(other_region)
        session = protocol.run_session(channel, DeviceEndpoint(sc), random.Random(0))
        assert session.verdict.outcome == "REJECT"
        assert session.verdict.reason == "device refused: region mismatch"
        monkeypatch.setattr(cli, "_connect", lambda *args: channel)
        assert run(["calibrate", "--scenario", "desk-small", "--target", "loopback",
                    "--trials", 3, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: calibration session 0: device refused: region mismatch\n"
        assert not (tmp_path / "out").exists()

    def test_wrong_value_is_not_recorded(self, tmp_path, capsys):
        # the value check runs before any duration enters a baseline
        sc = builtin_scenario("desk-small")
        cfg = tmp_path / "corrupt.json"
        _write_scenario(dataclasses.replace(sc, adversary=AdversaryConfig("corrupt_result")), cfg)
        assert run(["calibrate", "--config", cfg, "--target", "loopback", "--trials", 3,
                    "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: calibration session 0: accumulator mismatch\n"
        assert not (tmp_path / "out").exists()

    def test_undefined_status_is_not_recorded(self, tmp_path, monkeypatch, capsys):
        class AnswersSeven(DeviceEndpoint):
            def handle_challenge(self, msg):
                restored, (delay_us, _) = super().handle_challenge(msg)
                return [restored, (delay_us, protocol.encode_response(
                    protocol.ResponseMessage(msg.session_id, 12345, 7)))]

        channel = LoopbackChannel(AnswersSeven(builtin_scenario("desk-small")))
        monkeypatch.setattr(cli, "_connect", lambda *args: channel)
        assert run(["calibrate", "--scenario", "desk-small", "--target", "loopback",
                    "--trials", 3, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: calibration session 0: unknown status 7\n"
        assert not (tmp_path / "out").exists()

    def test_wrong_value_over_tcp_is_not_recorded(self, tmp_path, capsys):
        corrupt = attack_scenario(builtin_scenario("desk-small"), "corrupt")
        with protocol.serve_device(DeviceEndpoint(corrupt), port=0, time_scale=0.0) as server:
            host, port = server.getsockname()
            assert run(["calibrate", "--scenario", "desk-small", "--target",
                        f"tcp://{host}:{port}", "--trials", 3, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: calibration session 0: accumulator mismatch\n"
        assert not (tmp_path / "out").exists()

    def test_loopback_session_is_scanned_once(self, tmp_path, monkeypatch):
        # the verifier scans, and the device's equal evaluation is a memo hit
        scans = []

        def counted(words, spec):
            scans.append(spec)
            return multipass_m61(words, spec)

        monkeypatch.setattr(engine, "_last", None)
        monkeypatch.setattr(engine, "multipass_m61", counted)
        assert builtin_scenario("desk-small").prime == M61
        assert run(["calibrate", "--scenario", "desk-small", "--target", "loopback",
                    "--trials", 5, "--out", tmp_path]) == 0
        assert len(scans) == len(set(scans)) == 5

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["calibrate", "--scenario", "desk-small", "--trials", 30,
                        "--seed", 11, "--out", tmp_path / sub]) == 0
        for name in ("desk-small-profile.json", "desk-small-measurements.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestChallenge:
    def test_unreachable_tcp_target_errors(self, calibrated):
        code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--target", "tcp://127.0.0.1:1"])
        assert code == 1

    @pytest.mark.parametrize("target, command", [
        # TCP_TARGETS holds the malformed tcp:// ones
        ("udp://h:1", "calibrate"), ("udp://h:1", "challenge"),
        ("sim", "challenge"),  # calibrate's priced trials; challenge's session is loopback
    ])
    def test_malformed_target_is_an_operational_error(self, tmp_path, calibrated, capsys,
                                                      monkeypatch, command, target):
        def create_connection(*args, **kwargs):
            raise AssertionError(f"connected for target {target!r}")

        monkeypatch.setattr(protocol.socket, "create_connection", create_connection)
        extra = {"calibrate": ["--out", tmp_path / "out"],
                 "challenge": ["--profile", calibrated]}[command]
        assert run([command, "--scenario", "desk-small", "--target", target, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(target) in err and err.count("\n") == 1
        assert "use loopback or tcp://host:port" in err

    def test_attack_on_a_tcp_target_is_refused_before_connecting(self, calibrated, capsys,
                                                                  monkeypatch):
        # the served device answers as serve --attack set it: the flag would be ignored
        def create_connection(*args, **kwargs):
            raise AssertionError("connected")

        monkeypatch.setattr(protocol.socket, "create_connection", create_connection)
        assert run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--target", "tcp://127.0.0.1:9000", "--attack", "dram"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --attack ") and err.count("\n") == 1
        assert "serve --attack" in err

    def test_wrong_value_over_tcp_is_rejected(self, calibrated, capsys):
        # the served device answers as serve --attack set it: its wrong value is judged
        corrupt = attack_scenario(builtin_scenario("desk-small"), "corrupt")
        capsys.readouterr()
        with protocol.serve_device(DeviceEndpoint(corrupt), port=0, time_scale=0.0) as server:
            host, port = server.getsockname()
            code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                        "--target", f"tcp://{host}:{port}"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_REJECT, "")
        assert json.loads(out)["reason"] == "accumulator mismatch"

    def test_tcp_read_limit_covers_the_longest_priced_session(self):
        # 7,000 desk-small passes price 10.752 s, inside the scan budget: a RESPONSE
        # comes that long after RESTORED, past the 10 s CONN_TIMEOUT_S alone
        args = build_parser().parse_args(["challenge", "--profile", "p.json", "--scenario",
                                          "desk-small", "--passes", "7000",
                                          "--target", "tcp://127.0.0.1:9000"])
        scenario = _scenario_from_args(args)
        assert scenario.base_cost_us(7000) > 10.75e6
        channel = cli._connect(args, scenario)
        assert channel.timeout_s >= protocol.CONN_TIMEOUT_S + 10.75
        # the longest priced duration: the nominal one plus the noise's reach
        assert channel.timeout_s == protocol.CONN_TIMEOUT_S + (
            scenario.base_cost_us(7000) + scenario.noise.reach_us()) / 1e6

    def test_tcp_connect_waits_conn_timeout_s_at_most(self, monkeypatch):
        # full-baseline's read limit is about 1,742 s: an unreachable host used
        # to hold the verifier that long before its ChannelTimeout
        args = build_parser().parse_args(["challenge", "--profile", "p.json", "--scenario",
                                          "full-baseline", "--target", "tcp://127.0.0.1:9000"])
        channel = cli._connect(args, _scenario_from_args(args))
        assert channel.timeout_s > 1700
        waits = []

        def unreachable(address, timeout):
            waits.append(timeout)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(protocol.socket, "create_connection", unreachable)
        with pytest.raises(ChannelTimeout, match="refused"):
            with channel.session():
                pytest.fail("a session opened to an unreachable device")
        # a connected session still reads each frame under the whole read limit
        verifier_end, device_end = socket.socketpair()

        def connected(address, timeout):
            waits.append(timeout)
            return verifier_end

        def read_frames(sock, limit_s):
            waits.append(limit_s)
            return iter(())

        monkeypatch.setattr(protocol.socket, "create_connection", connected)
        monkeypatch.setattr(protocol, "read_frames", read_frames)
        with device_end, channel.session() as (send, replies):
            assert list(replies()) == []
        assert waits == [protocol.CONN_TIMEOUT_S, protocol.CONN_TIMEOUT_S, channel.timeout_s]

    def test_calibrate_read_limit_covers_a_drifting_device_s_last_trial(self, tmp_path,
                                                                        monkeypatch):
        # 30,000 us of drift a trial: trial 5 takes about 162 ms, past trial 1's
        # limit of 0.05 s + 12.3 ms scan + 30 ms drift and noise, and timed out
        doc = scenario_to_json(builtin_scenario("desk-small"))
        scenario = scenario_from_json(dict(doc, noise=dict(doc["noise"], drift="linear",
                                                           drift_us_per_trial=30_000)))
        cfg = tmp_path / "drift.json"
        _write_scenario(scenario, cfg)
        monkeypatch.setattr(cli, "CONN_TIMEOUT_S", 0.05)
        with protocol.serve_device(DeviceEndpoint(scenario), port=0, time_scale=1.0) as server:
            host, port = server.getsockname()
            assert run(["calibrate", "--config", cfg, "--target", f"tcp://{host}:{port}",
                        "--trials", 6, "--out", tmp_path]) == 0
        samples = json.loads((tmp_path / "desk-small-profile.json").read_text())["samples_us"]
        assert len(samples) == 6 and max(samples) > 150_000

    @pytest.mark.parametrize("attack", ["none", "dram"])
    @pytest.mark.parametrize("detector", ["percentile", "zscore", "modz"])
    def test_profile_whose_sum_overflows_is_refused(self, tmp_path, calibrated, capsys,
                                                    detector, attack):
        # each sample is finite, their sum is not: the mean would read inf, the
        # z-score NaN (an ACCEPT), and the bands reject the honest device
        doc = json.loads(calibrated.read_text())
        bad = tmp_path / "overflow-profile.json"
        bad.write_text(json.dumps(dict(doc, samples_us=[1e308, 1.7e308, 1.5e308])))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["challenge", "--profile", bad, "--scenario", "desk-small",
                        "--detector", detector, "--attack", attack, "--seed", 2])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: ValueError: 1 of 1 baselines have a statistic "
                              "that is not a finite number") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_profile_whose_mad_scores_a_duration_infinite_is_refused(self, tmp_path, calibrated,
                                                                     capsys):
        # every statistic is finite, but a MAD of 5e-324 scores any duration
        # +-inf: "score": Infinity is not JSON, and no verdict rests on it
        doc = json.loads(calibrated.read_text())
        bad = tmp_path / "tiny-mad-profile.json"
        bad.write_text(json.dumps(dict(doc, samples_us=[0, 0, 0, 5e-324, 5e-324, 5e-324, 1.0])))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["challenge", "--profile", bad, "--scenario", "desk-small",
                        "--detector", "modz", "--seed", 2])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == (f"error: {bad}: DegenerateSeries: modified z-score needs nonzero "
                       "baseline MAD or MeanAD, and one that scores every finite point finitely\n")

    @pytest.mark.parametrize("samples, detector", [
        ([0, 0, 0, 5e-324, 5e-324, 5e-324, 1.0], "modz"),  # a MAD that scores +-inf
        ([12_000.0] * 10, "zscore"),  # no spread at all
    ])
    def test_degenerate_profile_error_names_the_profile(self, tmp_path, calibrated, capsys,
                                                        samples, detector):
        # a fault of the profile file: named as _read_profile names a malformed one,
        # with the detector's own message after it
        doc = json.loads(calibrated.read_text())
        bad = tmp_path / "degenerate-profile.json"
        bad.write_text(json.dumps(dict(doc, samples_us=samples)))
        with pytest.raises(DegenerateSeries) as raised:
            stats.detect(detector, stats.calibrate(samples), 12_000.0)
        capsys.readouterr()
        code = run(["challenge", "--profile", bad, "--scenario", "desk-small",
                    "--detector", detector, "--seed", 2])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {bad}: DegenerateSeries: {raised.value}\n"

    def test_shape_mismatch_errors(self, tmp_path, calibrated):
        code = run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--passes", 9])
        assert code == 1

    def test_over_budget_passes_exits_before_evaluating(self, tmp_path, monkeypatch, capsys):
        # 1,400 passes x 24,640 words exceed MAX_SCAN_WORDS: an operator error,
        # found before the verifier evaluates its expected result or sends anything
        assert run(["calibrate", "--scenario", "sram-baseline", "--trials", 20,
                    "--out", tmp_path]) == 0
        profile = tmp_path / "sram-baseline-profile.json"
        doc = json.loads(profile.read_text())
        profile.write_text(json.dumps(dict(doc, passes=1400)))
        capsys.readouterr()

        def evaluate(words, spec):
            raise AssertionError("an over-budget challenge was evaluated")

        monkeypatch.setattr(protocol, "evaluate", evaluate)
        code = run(["challenge", "--scenario", "sram-baseline", "--passes", 1400,
                    "--profile", profile])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "a device refuses this challenge: k=4 and 34496000 scanned words" in err

    def test_interrupt_storm_is_operational_error(self, tmp_path, calibrated, capsys):
        from dataclasses import replace

        from timecheck.device import builtin_scenario

        sc = builtin_scenario("desk-small")
        stormy = replace(sc, noise=replace(sc.noise, nmi_prob=1.0, nmi_us=50_000.0))
        cfg = tmp_path / "storm.json"
        _write_scenario(stormy, cfg)
        capsys.readouterr()
        code = run(["challenge", "--profile", calibrated, "--config", cfg,
                    "--seed", 5])
        assert code == 1
        out, err = capsys.readouterr()
        # the last of 8 attempts: the one device's session 7, whose spec is the
        # 8th drawn from the command's one challenge stream
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "69451ad41ec044ea5fd5d66797ccc05876e51391bfbd3a2baed9cad2b8c1d2d0")
        assert err == "error: measurement kept getting spoiled by interrupt spikes\n"

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: "not json", "JSONDecodeError"),
        (lambda doc: {k: v for k, v in doc.items() if k != "region_id"}, "KeyError: 'region_id'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "samples_us"}, "KeyError: 'samples_us'"),
        (lambda doc: [doc], "TypeError"),
        (lambda doc: dict(doc, samples_us=["fast", 1.0]), "not a finite number"),
        (lambda doc: dict(doc, samples_us=[None, 1.0]), "not a finite number"),
        # too large for a float: read as one, it would raise OverflowError
        (lambda doc: dict(doc, samples_us=[10**400, 1.0]),
         "ValueError: samples_us holds a value that is not a finite number"),
        (lambda doc: dict(doc, samples_us=[float("inf"), 1.0]), "not a finite number"),
        (lambda doc: dict(doc, samples_us=12.0), "TypeError"),
        (lambda doc: dict(doc, samples_us=doc["samples_us"][:1]), "InsufficientSamples"),
    ], ids=["not-json", "no-region-id", "no-samples", "not-an-object", "string-sample",
            "null-sample", "huge-int-sample", "infinite-sample", "samples-not-a-list",
            "one-sample"])
    def test_malformed_profile_is_an_operational_error(self, tmp_path, calibrated, capsys,
                                                       edit, needle):
        doc = edit(json.loads(calibrated.read_text()))
        bad = tmp_path / "bad-profile.json"
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        capsys.readouterr()
        code = run(["challenge", "--profile", bad, "--scenario", "desk-small", "--seed", 5])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: ") and needle in err and err.count("\n") == 1


@pytest.fixture(scope="module")
def served():
    """Ports of a desk-small device served on 127.0.0.1 (v4) and on ::1 (v6), in real
    time: at time scale 0 a calibration's durations can all read 1 us, a constant series."""
    sc = builtin_scenario("desk-small")
    with (protocol.serve_device(DeviceEndpoint(sc), "127.0.0.1", 0, time_scale=1.0) as v4,
          protocol.serve_device(DeviceEndpoint(sc), "::1", 0, time_scale=1.0) as v6):
        yield {"v4": v4.getsockname()[1], "v6": v6.getsockname()[1]}


@pytest.fixture
def any_duration(tmp_path, calibrated):
    """The desk-small profile with a percentile band of 0 to 1 s. A served device's
    duration is its modeled one plus the host's latency (or about 0 at time scale 0),
    which the band always holds: only the accumulator decides the verdict."""
    profile = tmp_path / "any-duration-profile.json"
    profile.write_text(json.dumps(dict(json.loads(calibrated.read_text()),
                                       samples_us=[0, 1e6] * 20)))
    return profile


# (target, accepted): {v4} and {v6} stand for the ports of the served device
TCP_TARGETS = [
    *((target, True) for target in (
        "tcp://127.0.0.1:{v4}", "tcp://localhost:{v4}", "tcp://[::1]:{v6}")),
    *((target, False) for target in (
        "tcp://::1:9000",  # an IPv6 host is bracketed
        "tcp://h:0", "tcp://h:65536",  # the socket layer would wrap 65536 to 0
        "tcp://h:123797",  # to 123797 mod 2^16 = 58261, another device
        "tcp://h:x",
        "tcp://h:\u00b2", "tcp://h:\u0669\u0660\u0660\u0660",  # isdigit, not ASCII digits
        "tcp://h:+9000", "tcp://h", "tcp://:9000",
        "tcp://u@h:9000", "tcp://h:9000/x", "tcp://h:9000?x")),
]


@pytest.mark.parametrize("command", ["calibrate", "challenge"])
@pytest.mark.parametrize("target, accepted", TCP_TARGETS)
def test_tcp_target_names_the_served_device_or_is_refused(tmp_path, capsys, monkeypatch,
                                                          served, any_duration, command,
                                                          target, accepted):
    target = target.format(**served)
    if not accepted:
        def create_connection(*args, **kwargs):
            raise AssertionError(f"connected for target {target!r}")

        monkeypatch.setattr(protocol.socket, "create_connection", create_connection)
    extra = {"calibrate": ["--trials", 3, "--out", tmp_path / "out"],
             "challenge": ["--profile", any_duration, "--seed", 2]}[command]
    capsys.readouterr()
    code = run([command, "--scenario", "desk-small", "--target", target, *extra])
    out, err = capsys.readouterr()
    if accepted:
        assert (code, err) == (0, "")
        if command == "challenge":
            assert json.loads(out)["outcome"] == "ACCEPT"
        else:
            assert json.loads((tmp_path / "out" / "desk-small-profile.json").read_text())["n"] == 3
    else:
        assert (code, out) == (1, "")
        assert err == f"error: target {target!r} is not tcp://host:port with a port in 1-65535\n"
        assert not (tmp_path / "out").exists()


class TestReproduce:
    # sha256 of fig13_detection.csv at the default --trials 50 --seeds 20. One
    # flipped leave-one-out decision moves a cell by 0.1 and changes the hash.
    FIG13_SHA256 = {
        0: "45fb7ce745af357233d6282bc329a3ecb547b733bd89684b10bb716b62fe8b37",
        7: "6ac159524f7e5051610d337cd0b9670989dc5e7271b69c81a382baa66a15e16f",
    }

    @pytest.mark.parametrize("seed", sorted(FIG13_SHA256))
    def test_detection_table_pinned_bytes(self, tmp_path, seed):
        assert run(["reproduce", "fig13", "--seed", seed, "--out", tmp_path]) == 0
        digest = hashlib.sha256((tmp_path / "fig13_detection.csv").read_bytes()).hexdigest()
        assert digest == self.FIG13_SHA256[seed]

    # sha256 of the fig10 and fig11 CSVs at the default --trials 50.
    SUMMARY_SHA256 = {
        0: {
            "fig10_summary.csv": "cdbea60e6db0e27239126d4104bd7c9bf4f56f73292efaaeba01819ae7c3d157",
            "fig10_hist.csv": "5316f94b45c2f39f60f2e81ac7d46494c706e6e106fcfce5bf44a190c0c393ed",
            "fig11_summary.csv": "b9e38d5b38c9ca0a1f8a84c33030e62d1289c098cf251c9bb4926e9ca3b762cc",
            "fig11_hist.csv": "7dc77d7bc3711f2ce0f2f5979937313b1c70afa1b6512ac47624c43e500eac27",
        },
        7: {
            "fig10_summary.csv": "ef4c40c792a1a9e4a763bb93de984771262dddbaee35eda42c6ca9bbca5764c4",
            "fig10_hist.csv": "c70017e735d519045c119faef3aa6a7b41816b36580421f014fca2380f3dd356",
            "fig11_summary.csv": "c97dc181716dcc68ef2e07cacfcb4fee5471b3462e5e1ad9e821475ceeaedd6d",
            "fig11_hist.csv": "51cb4b5dae8922e53d3ab657a8fb3a231f5a9613664c73bb964c02ee5c9a353c",
        },
    }

    @pytest.mark.parametrize("seed", sorted(SUMMARY_SHA256))
    def test_summary_tables_pinned_bytes(self, tmp_path, seed):
        for table in ("fig10", "fig11"):
            assert run(["reproduce", table, "--seed", seed, "--out", tmp_path]) == 0
        for name, want in self.SUMMARY_SHA256[seed].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    # sha256 of more reproduce outputs, taken before the noise streams were
    # seeded in batches. A table that prices 1,300 trials or more (fig13 4 x
    # seeds x trials, fig10 3 x trials, fig11 2 x trials) seeds them with
    # numpy, a smaller one with CPython.
    MORE_SHA256 = [
        (('fig13', '--seed', '3'), {
            "fig13_detection.csv": "ce8e8c229db71b7bccfa73d27e76dbc9d58a1e4b2c922d748b0b945c641d6f66",
        }),
        (('fig13', '--seed', '11'), {
            "fig13_detection.csv": "677f596b1745c7d543f3fbbe21b0bec44c37fb9770c772bf74bb5b32730599d7",
        }),
        (('fig13', '--seed', '0', '--seeds', '2', '--trials', '8'), {
            "fig13_detection.csv": "c6a6eb768886bd2e73715af4810c0c51f5a6d6557fa950edf35db86a356adf24",
        }),
        (('fig13', '--seed', '9', '--seeds', '1'), {
            "fig13_detection.csv": "9949b4f41f0c94ae8e5f43a582b926bb2b1acc768838820eaa79c34eba92bc80",
        }),
        (('fig13', '--seed', '0', '--seeds', '100'), {
            "fig13_detection.csv": "5d908c9985de811b4f4baf430322f784ec948a2307512408cc8b1cd7c23f4258",
        }),
        (('fig13', '--seed', '5', '--seeds', '33', '--trials', '17'), {
            "fig13_detection.csv": "30532299bc2674a201255df66e51a6bb134790a51c571a3599f3c00e39aaf9ba",
        }),
        (('fig10', '--seed', '3'), {
            "fig10_hist.csv": "52e80c5074146a9fb3a16632447128f6758768cb941c8e9ace5128ad51809f1d",
            "fig10_summary.csv": "0f109fe2090fe2e68930f54de4ff99df492d2207f9ae63d44f1be7482a9ab05b",
        }),
        (('fig10', '--seed', '11'), {
            "fig10_hist.csv": "0eb6fa53a55b4c2da615ff0fe776b22b052ec33db2b116609c2e1bb267b836b9",
            "fig10_summary.csv": "1be3e0762b344dc968451d85e2725cd4a809b654fecef74a49fab989b062bbf4",
        }),
        (('fig10', '--seed', '0', '--trials', '2'), {
            "fig10_hist.csv": "88d0d6b2cb7349d4e9cf1fe6eede8205928b7112ec940af04a22feed3e72e90f",
            "fig10_summary.csv": "f5fbcd7e146b4e380f6cad23ef237041fc8e63841df733bd64ce4fa61d7978c6",
        }),
        (('fig10', '--seed', '2', '--trials', '1000'), {
            "fig10_hist.csv": "54a16f15e13b1e899e5f93710b5054bdba4c28947350ca795fb98d0b3db383ba",
            "fig10_summary.csv": "cde064a5020264488c8eb406d40f96d1d1a025a1e4a93d0fc3b917beee72481a",
        }),
        (('fig11', '--seed', '3'), {
            "fig11_hist.csv": "13ccb506ea2c65410e205c1d6b40cd63845c6265a0c99159bedd0cc82c4a0f08",
            "fig11_summary.csv": "a11b5e05286ecc628b66064a12ae84393a459f00025511ce30e4b6ab49f02dce",
        }),
        (('fig11', '--seed', '11'), {
            "fig11_hist.csv": "d066d2af83802d9cd5326087c0bd5d08a50d5d3ced083ff8291ddeb6a0d1d7eb",
            "fig11_summary.csv": "ea3215fa0008392a2117278aa846b4b3913af7eda3a5e761773cd4af414171aa",
        }),
        (('fig11', '--seed', '0', '--trials', '2'), {
            "fig11_hist.csv": "7438a1325b3a15a1bf3e88134a4ac2e9932aea5b74b070de1384b94b42c31ee3",
            "fig11_summary.csv": "c42b498317bbc64959278021ca141beaf4429461b9ff034495d223155bc62c92",
        }),
        (('fig11', '--seed', '2', '--trials', '1000'), {
            "fig11_hist.csv": "82ae26898f2765b49e93194791a534508b59728adb576a86bb6b8ab66190eb26",
            "fig11_summary.csv": "fb731cf3f7fde08971bbfe8095401637fd8893628f40dfff96ecbeef45afed27",
        }),
        # taken before trials were priced as arrays: fig10's 6,000 gaussian
        # trials are seeded with numpy, and so are fig13's 32,000
        (('fig10', '--seed', '3', '--trials', '2000'), {
            "fig10_hist.csv": "759c5e20fcbc6267b90253cd0266b00a70fea3dc10f58d133b9c16a25fef9373",
            "fig10_summary.csv": "8d63a52ae42bc956ce1ba03871e78c273b75ac0b60b4202a3dbdc915417cb26a",
        }),
        (('fig13', '--seed', '3', '--seeds', '40', '--trials', '200'), {
            "fig13_detection.csv": "8ec19c4e303ac8845a1e469354307b76bcff2b7ee2b33494e71ae14fb412214a",
        }),
    ]

    @pytest.mark.parametrize("args, want", MORE_SHA256)
    def test_more_tables_pinned_bytes(self, tmp_path, args, want):
        assert run(["reproduce", *args, "--out", tmp_path]) == 0
        for name, digest in want.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_detection_table_zero_mad_baseline(self, tmp_path):
        # one detector-dram baseline run at this seed has 25 of its 50 points
        # on one value, so a leave-one-out MAD is 0 and modified-z falls back
        # to the mean absolute deviation
        assert run(["reproduce", "fig13", "--seed", 1664276359, "--out", tmp_path]) == 0
        lines = (tmp_path / "fig13_detection.csv").read_text().splitlines()
        assert len(lines) == 7

    @pytest.mark.parametrize("table,flag,value", [
        ("fig13", "--seeds", 0),
        ("fig13", "--seeds", -1),
        ("fig10", "--trials", 0),
        ("fig11", "--trials", 0),
        ("fig13", "--trials", 0),
        ("fig10", "--trials", 1),
        ("fig11", "--trials", 1),
        ("fig13", "--trials", 2),
    ])
    def test_bad_counts_are_operational_errors(self, tmp_path, monkeypatch, capsys,
                                               table, flag, value):
        # refused before anything is priced or any directory is made
        def priced_trials(batches):
            raise AssertionError("trials were priced")

        monkeypatch.setattr(cli, "priced_trials", priced_trials)
        out = tmp_path / "out"
        assert run(["reproduce", table, flag, value, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    def test_degenerate_detection_baseline_names_trials(self, tmp_path, capsys):
        # 3 trials leave 2-point leave-one-out baselines, and at this seed
        # one has both points equal: no spread for the z-score to divide by
        assert run(["reproduce", "fig13", "--seeds", 1, "--trials", 3, "--seed", 0,
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fig13 needs more --trials")
        assert "2 points" in err and "zero spread" in err


def _reference_durations(sc, trials, seed):
    return [int(round(price(sc, sc.passes,
                            random.Random(derive_seed(seed, f"{sc.name}/noise", i)), i)[0]))
            for i in range(trials)]


def _per_seed_detection(attack_label, n_seeds, trials, master_seed, methods):
    """Pooled counts from one one-row confusion report per seed."""
    base_sc = builtin_scenario(f"detector-{attack_label}-baseline")
    atk_sc = builtin_scenario(f"detector-{attack_label}-attack")
    fp = dict.fromkeys(methods, 0)
    fn = dict.fromkeys(methods, 0)
    for i in range(n_seeds):
        seed = derive_seed(master_seed, f"detect/{attack_label}", i)
        rows = stats.confusion_report(
            _reference_durations(base_sc, trials, seed),
            _reference_durations(atk_sc, trials, derive_seed(seed, "atk")), methods=methods)
        for m in methods:
            fp[m] += rows[m].false_positives
            fn[m] += rows[m].false_negatives
    points = n_seeds * trials
    return {m: stats.ConfusionRow(m, fp[m] / points, fn[m] / points,
                                  fp[m], points, fn[m], points)
            for m in methods}


class TestAggregateDetection:
    @pytest.fixture
    def batches(self, monkeypatch):
        """The number of seeds in each leave-one-out matrix, in call order."""
        sizes = []
        leave_one_out = stats._leave_one_out

        def counting_leave_one_out(rows):
            sizes.append(len(rows))
            return leave_one_out(rows)

        monkeypatch.setattr(stats, "_leave_one_out", counting_leave_one_out)
        return sizes

    @pytest.mark.parametrize("attack_label", ["dram", "iomem"])
    def test_batches_equal_per_seed_loop(self, batches, attack_label):
        # 40 seeds x 50 x 49 leave-one-out values: batches of 26 and 14 seeds
        got = aggregate_detection((attack_label,), 40, 50, 11)[attack_label]
        assert batches == [26, 14]
        assert got == _per_seed_detection(attack_label, 40, 50, 11, cli.FIG13_METHODS)

    def test_one_seed_per_batch_past_the_budget(self, batches, monkeypatch):
        monkeypatch.setattr(stats, "LOO_BATCH_VALUES", 100)
        got = aggregate_detection(("iomem",), 3, 12, 5)["iomem"]
        assert batches == [1, 1, 1]
        assert got == _per_seed_detection("iomem", 3, 12, 5, cli.FIG13_METHODS)


class TestScenarioFromArgs:
    def test_passes_override_keeps_every_other_field(self, tmp_path):
        # a scan length that differs from image_words + register_count
        sc = dataclasses.replace(builtin_scenario("desk-small"), timing_words=5000)
        cfg = tmp_path / "sc.json"
        _write_scenario(sc, cfg)
        args = build_parser().parse_args(["calibrate", "--config", str(cfg), "--passes", "3"])
        got = _scenario_from_args(args)
        want = load_scenario(cfg)
        assert got.passes == 3
        assert got.timing_words == want.timing_words == 5000
        assert got.base_cost_us(got.passes) != want.base_cost_us(want.passes)
        for name in ("name", "region_id", "image_words", "register_count", "prime", "k",
                     "tiers", "scan_us_per_word", "compute_us_per_word", "noise",
                     "adversary", "image_seed"):
            assert getattr(got, name) == getattr(want, name), name


def _options(command):
    """{option string: action} of one subcommand's parser."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return {flag: action for action in commands.choices[command]._actions
            for flag in action.option_strings}


@pytest.mark.parametrize("command", ["calibrate", "challenge", "serve"])
def test_choices_come_from_the_registries(command):
    options = _options(command)
    assert tuple(options["--scenario"].choices) == tuple(SCENARIOS)
    assert "--region" not in options
    if command != "calibrate":
        assert tuple(options["--attack"].choices) == tuple(ATTACKS)
    if command == "challenge":
        assert tuple(options["--detector"].choices) == tuple(stats.DETECTORS)
    # a served device prices the passes each CHALLENGE carries: serve has no --passes
    assert ("--passes" in options) == (command != "serve")


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()
    parser = build_parser()
    assert parser.parse_args(["challenge", "--profile", "p", "--passes", "9"]).passes == 9
    again = parser.parse_args(["challenge", "--profile", "p"])
    assert again.passes is None and again.fn is cli.cmd_challenge


def test_repeated_main_calls_keep_dispatching(tmp_path, calibrated, capsys):
    challenge = ["challenge", "--profile", calibrated, "--scenario", "desk-small",
                 "--seed", 5]
    capsys.readouterr()
    assert run(challenge) == 0
    first = capsys.readouterr().out
    # argparse rejects an unknown scenario: a usage error, not a REJECT
    assert run(["challenge", "--profile", calibrated, "--scenario", "no-such-scenario"]) == 1
    capsys.readouterr()
    assert run(["checkpoint", "--make", tmp_path / "x.ck", "--words", 4]) == 0
    assert run(["challenge", *challenge[1:], "--attack", "corrupt"]) == 2
    capsys.readouterr()
    assert run(challenge) == 0
    assert capsys.readouterr().out == first


# (argv, the error argparse names); the scenario's NoiseModel is the one model
# of measurement noise, so --jitter is no option of any command
USAGE_ERRORS = [
    (["challenge", "--profile", "x", "--detector", "bogus"], "invalid choice: 'bogus'"),
    (["challenge", "--profile", "x", "--detector", "chebyshev"], "invalid choice: 'chebyshev'"),
    (["calibrate", "--trials", "abc"], "invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
    *(([*argv, "--scenario", "desk-small", "--jitter", "1"], "unrecognized arguments: --jitter 1")
      for argv in (["calibrate", "--target", "sim", "--out", "out"],
                   ["calibrate", "--target", "loopback", "--out", "out"],
                   ["challenge", "--profile", "profile.json"])),
]


@pytest.mark.parametrize("argv, needle", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv, needle):
    # argparse alone would exit 2, the code of an attestation REJECT
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "usage: timecheck" in err and needle in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["challenge", "--help"])
    assert exc.value.code == 0
    assert "--detector" in capsys.readouterr().out


def test_top_level_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "challenge" in capsys.readouterr().out


class TestCheckpointCommand:
    def test_make_and_inspect(self, tmp_path, capsys):
        path = tmp_path / "dev.ck"
        assert run(["checkpoint", "--make", path, "--words", 1024, "--seed", 7]) == 0
        capsys.readouterr()
        assert run(["checkpoint", "--inspect", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["word_count"] == 1024
        assert doc["register_count"] == 34
        assert doc["entropy_bits_per_byte_min"] > 7.0

    def test_make_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ck", tmp_path / "b.ck"
        run(["checkpoint", "--make", a, "--words", 256, "--seed", 9])
        run(["checkpoint", "--make", b, "--words", 256, "--seed", 9])
        assert a.read_bytes() == b.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ck", "b.ck"]

    def test_renamed_file_keeps_its_region(self, tmp_path, capsys):
        path = tmp_path / "a.ck"
        assert run(["checkpoint", "--make", path, "--words", 16, "--region", "dram"]) == 0
        capsys.readouterr()
        moved = path.rename(tmp_path / "b.ck")
        assert run(["checkpoint", "--inspect", moved]) == 0
        assert json.loads(capsys.readouterr().out)["region_id"] == "dram"

    # Re-pinned when the region label moved from the JSON sidecar into the
    # header (format_version 2): the words are unchanged, after 2 more bytes
    # of header and the 4 bytes of "sram".
    def test_make_file_bytes_pinned(self, tmp_path):
        path = tmp_path / "x.ck"
        assert run(["checkpoint", "--make", path, "--words", 4096, "--seed", 7]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ed136fdfe207272fcf86702cbf1835e32dea862299052fd0b72cd5f1c6b95770")

    @staticmethod
    def _refused_before_building(monkeypatch, capsys, path, flags):
        """stderr of a checkpoint --make that must exit 1 with no device built."""
        def make_device_state(*args):
            raise AssertionError("built a device from refused input")

        monkeypatch.setattr(cli, "make_device_state", make_device_state)
        assert run(["checkpoint", "--make", path, *flags]) == 1
        assert not path.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--words", 0, "--words must be >= 1, got 0"),
        ("--registers", -3, "--registers must be >= 0, got -3"),
        ("--words", protocol.MAX_SCAN_WORDS - 33,
         f"--words plus --registers must be <= {protocol.MAX_SCAN_WORDS}, "
         f"got {protocol.MAX_SCAN_WORDS + 1}"),
    ], ids=["words-0", "registers-negative", "one-over-max-scan-words"])
    def test_make_refuses_bad_sizes(self, tmp_path, monkeypatch, capsys, flag, value, message):
        err = self._refused_before_building(monkeypatch, capsys, tmp_path / "x.ck",
                                            [flag, value])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("region, message", [
        ("\ud800", "region_id is not UTF-8: "),
        ("x" * 70_000, "region_id is 70000 bytes in UTF-8, over 65535"),
    ], ids=["lone-surrogate", "over-65535-bytes"])
    def test_make_refuses_a_region_a_frame_cannot_carry(self, tmp_path, monkeypatch, capsys,
                                                         region, message):
        err = self._refused_before_building(monkeypatch, capsys, tmp_path / "x.ck",
                                            ["--region", region])
        assert err.startswith(f"error: --region: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("content, needle", [
        (b"TCCK" + struct.pack("<IQIH", 2, 0, 2, 0) + bytes(16), "at least one image word"),
        (b"TCCK" + struct.pack("<IQI", 1, 4, 2) + bytes(48), "format_version 1 unsupported"),
        (b"TCCK" + struct.pack("<IQIH", 2, 4, 2, 1000) + b"sram" + bytes(48),
         "expected 1070 bytes, found 74"),
        (b"TCCK" + struct.pack("<IQIH", 2, 4, 2, 2) + b"\xc3\x28" + bytes(48),
         "region label is not UTF-8"),
    ], ids=["no-image-words", "version-1-header", "region-past-end", "region-not-utf8"])
    def test_inspect_malformed_file_is_an_operational_error(self, tmp_path, capsys, content,
                                                            needle):
        path = tmp_path / "x.ck"
        path.write_bytes(content)
        with pytest.raises(TimecheckError, match=re.escape(f"{path}: ") + ".*" + needle):
            load_checkpoint(path)
        assert run(["checkpoint", "--inspect", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and needle in err and err.count("\n") == 1


# sha256 of calibrate's measurements and profile at --seed 4, taken before the
# noise streams were seeded in batches: 1,500 trials are seeded with numpy.
# The profile digests here and below were re-taken when the Ljung-Box p-value
# moved to stats._chi2_sf; only the last digits of whiteness.q_pvalue moved.
# The measurement digests were re-taken when --target sim stopped drawing a
# challenge per trial: each CSV is the earlier one with its spec_digest
# column emptied.
CALIBRATE_SHA256 = [
        ("sram-baseline", 50, {
            "sram-baseline-measurements.csv": "6dd85986ec8e983f5606ad2392094297a5310922afc16fbbbc81c900c744a8c0",
            "sram-baseline-profile.json": "5deec77c5111799a09c1a73d238a65c3a2ccaa9e8436a69dda9c466c4e0f99aa",
        }),
        ("sram-baseline", 1500, {
            "sram-baseline-measurements.csv": "8c4d05951afe12abc8d6f901977c0a92cc1099e1defcb9142aff7f8c66f92bc0",
            "sram-baseline-profile.json": "bca9371af1f554fbb0c9eba25a777c1f3ac1409aa1fc1717cf2fdf2cbc340569",
        }),
        ("detector-iomem-baseline", 1500, {
            "detector-iomem-baseline-measurements.csv": "70698647d31613260aeaff5a9df98fbbfbf6f277e2554f6a733463a356dc4624",
            "detector-iomem-baseline-profile.json": "41e23555b406c0d28a2dd7d2ab614f8778b40c28f23f2733cac135888a31453d",
        }),
]


@pytest.mark.parametrize("scenario, trials, want", CALIBRATE_SHA256)
def test_calibrate_pinned_bytes(tmp_path, scenario, trials, want):
    assert run(["calibrate", "--scenario", scenario, "--trials", trials, "--seed", 4,
                "--out", tmp_path]) == 0
    for name, digest in want.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of calibrate --target loopback's measurements and profile, each run
# of sessions drawing its specs and session ids from one generator. The
# channel adds no jitter: the scenario's NoiseModel is the only noise.
LOOPBACK_CALIBRATE_SHA256 = [
    (("--scenario", "desk-small", "--seed", "1"), {
        "desk-small-measurements.csv": "9bf8a6e89c4492b42c5526e15fdb548e88645d1d757a0e38c7e918602292782b",
        "desk-small-profile.json": "ecc3ea71573bc9c3628380a33d6d826e2b35a47d2c4ca128742726dfb58081d0",
    }),
    (("--scenario", "desk-small", "--seed", "6"), {
        "desk-small-measurements.csv": "b1de51a14220c99208476a056b493619f9275aa49d8d6438b4eb9d21125f7968",
        "desk-small-profile.json": "70aea213a7228390a160d4867f539992a47657cc0d8bc521d58822148e81a44f",
    }),
    (("--scenario", "sram-baseline", "--passes", "3", "--trials", "20", "--seed", "2"), {
        "sram-baseline-measurements.csv": "8a901ebc9502dba7659680ca316699ac34b14c85cd9fb5d7c3f5d38e22274277",
        "sram-baseline-profile.json": "dde6d95034a59383a13368e01f9dcd48ee41eaaa1a839d6f1a22c127d8dc66a6",
    }),
]


@pytest.mark.parametrize("args, want", LOOPBACK_CALIBRATE_SHA256)
def test_loopback_calibrate_pinned_bytes(tmp_path, args, want):
    assert run(["calibrate", "--target", "loopback", *args, "--out", tmp_path]) == 0
    for name, digest in want.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# (challenge arguments, exit code, sha256 of stdout) against the profile of the
# calibrated fixture, over a simulated device.
CHALLENGE_STDOUT_SHA256 = [
    (("--attack", "none", "--seed", 2), 0,
     "07905acf7088e85a4df3fbf9025973fb717189d19d094d14c7bbbf4ec4d46aa0"),
    (("--attack", "dram", "--seed", 2), 2,
     "10cc30a24ab96a056f6ae6a951e44121179bb1d0b2fbf956a8d1c7fed306ea9a"),
    (("--attack", "iomem", "--seed", 2), 2,
     "4090a79e9f47f757f958c68e5d6c26fbbcc1d4a2f2af302dc1db2812f37ed0bc"),
    (("--attack", "mmc", "--seed", 2), 2,
     "35364db601038d2ccd0f0e1f8db182ed4bd2ebffb4fc1ecbe94dffddcefbd301"),
    (("--attack", "corrupt", "--seed", 2), 2,
     "fac031c9911d59ee284b868a0f6e1dc70b3e5952d1a996587b95ccfc77ed2915"),
    (("--attack", "none", "--seed", 5), 0,
     "18a8bccee6b86f101fd7c4eb3fc591b935e0ce641cf44b0bc5eb161659592bf9"),
    (("--attack", "dram", "--seed", 5), 2,
     "2aa39358eb5e6b60646d6934468b6c32fccbb81fc2d8168bd6ad36cec994ad80"),
    (("--attack", "iomem", "--seed", 5), 2,
     "337d730fa31103be7235466a2eca61d0e1e801cd6f129b4397c74f32a8dc221e"),
    (("--attack", "mmc", "--seed", 5), 2,
     "8c4a727681efd4b12045071ed2153907d240f1cfd06cf41357176a243d33d3ac"),
    (("--attack", "corrupt", "--seed", 5), 2,
     "83421b0fe16c9553bac2c21700d1ae6203410fbc23f93fc1e86df4ab6893acd9"),
]


@pytest.mark.parametrize("args, code, want", CHALLENGE_STDOUT_SHA256)
def test_challenge_pinned_stdout(calibrated, capsys, args, code, want):
    capsys.readouterr()
    assert run(["challenge", "--profile", calibrated, "--scenario", "desk-small", *args]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_loopback_is_the_default_challenge_target(calibrated, capsys):
    for args, code, want in CHALLENGE_STDOUT_SHA256:
        capsys.readouterr()
        assert run(["challenge", "--profile", calibrated, "--scenario", "desk-small",
                    "--target", "loopback", *args]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_challenge_verifier_holds_no_device_memory(calibrated, monkeypatch):
    endpoints = []

    class Recorded(DeviceEndpoint):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            endpoints.append(self)

    monkeypatch.setattr(cli, "DeviceEndpoint", Recorded)
    assert run(["challenge", "--profile", calibrated, "--scenario", "desk-small"]) == 0
    verifier, device = endpoints
    assert "words" not in vars(verifier) and "words" in vars(device)


def test_sram_challenge_pinned_stdout(tmp_path, capsys):
    assert run(["calibrate", "--scenario", "sram-baseline", "--passes", 3, "--trials", 20,
                "--seed", 3, "--out", tmp_path]) == 0
    capsys.readouterr()
    assert run(["challenge", "--profile", tmp_path / "sram-baseline-profile.json",
                "--scenario", "sram-baseline", "--passes", 3, "--seed", 4]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "85e9516369ccb72d8b600632e340dff8915ec81a1164a196e8dd0f8f6e55138a")


@pytest.mark.parametrize("target", ["sim", "loopback"])
def test_honest_desk_small_is_accepted_and_attacks_rejected(tmp_path, calibrated, capsys,
                                                           target):
    # the verifier measures what calibrate priced: the channel adds no noise
    # of its own, so an honest device is not judged against a narrower band
    profile = calibrated
    if target == "loopback":
        assert run(["calibrate", "--target", "loopback", "--scenario", "desk-small",
                    "--trials", 40, "--seed", 3, "--out", tmp_path / "loopback"]) == 0
        profile = tmp_path / "loopback" / "desk-small-profile.json"
    challenge = ["challenge", "--profile", profile, "--scenario", "desk-small"]
    honest = {seed: run([*challenge, "--seed", seed]) for seed in range(50)}
    assert {seed: code for seed, code in honest.items() if code} == {}
    for attack in ("dram", "iomem", "mmc", "corrupt"):
        codes = [run([*challenge, "--attack", attack, "--seed", seed]) for seed in range(10)]
        assert codes == [EXIT_REJECT] * 10, attack


def _interrupted_config(tmp_path, nmi_prob):
    """desk-small with an nmi_prob chance of a 50 ms interrupt spike per session."""
    sc = builtin_scenario("desk-small")
    cfg = tmp_path / "interrupted.json"
    _write_scenario(dataclasses.replace(sc, noise=dataclasses.replace(
        sc.noise, nmi_prob=nmi_prob, nmi_us=50_000.0)), cfg)
    return cfg


@pytest.mark.parametrize("target", ["sim", "loopback"])
def test_calibration_leaves_out_interrupt_spikes(tmp_path, capsys, target):
    cfg = _interrupted_config(tmp_path, 0.2)
    out = tmp_path / "out"
    assert run(["calibrate", "--config", cfg, "--target", target, "--trials", 40,
                "--seed", 3, "--out", out]) == 0
    rows = [line.split(",") for line in
            (out / "desk-small-measurements.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(40))  # the CSV keeps every trial
    durations = [int(row[2]) for row in rows]
    clean = [d for d in durations if d < min(durations) + 25_000]
    spiked = len(durations) - len(clean)
    assert spiked > 0
    doc = json.loads((out / "desk-small-profile.json").read_text())
    assert doc["n"] == 40 - spiked
    assert sorted(doc["samples_us"]) == sorted(clean)
    assert (f"left out {spiked} of 40 trials spoiled by interrupt spikes\n"
            in capsys.readouterr().out)


@pytest.mark.parametrize("detector", ["percentile", "zscore"])
def test_interrupt_spikes_cannot_hide_an_attack(tmp_path, detector):
    cfg = _interrupted_config(tmp_path, 0.2)
    assert run(["calibrate", "--config", cfg, "--trials", 40, "--seed", 3,
                "--out", tmp_path]) == 0
    codes = [run(["challenge", "--config", cfg, "--attack", "dram", "--seed", seed,
                  "--detector", detector, "--profile", tmp_path / "desk-small-profile.json"])
             for seed in range(20)]
    assert codes == [EXIT_REJECT] * 20


@pytest.mark.parametrize("target", ["sim", "loopback"])
def test_calibration_all_spiked_is_an_operational_error(tmp_path, capsys, target):
    cfg = _interrupted_config(tmp_path, 1.0)
    out = tmp_path / "out"
    assert run(["calibrate", "--config", cfg, "--target", target, "--trials", 5,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == ("error: calibration needs >= 2 trials free of interrupt spikes, "
                   "got 0 of 5\n")
    assert not out.exists()


def test_interrupt_storm_attempts_send_fresh_session_ids(tmp_path, calibrated, monkeypatch):
    received = []
    handle = DeviceEndpoint.handle_challenge

    def recording(self, msg):
        received.append(msg.session_id)
        return handle(self, msg)

    monkeypatch.setattr(DeviceEndpoint, "handle_challenge", recording)
    assert run(["challenge", "--profile", calibrated, "--config",
                _interrupted_config(tmp_path, 1.0), "--seed", 5]) == 1
    assert len(received) == 8
    assert len({session_id & 0xFFFFFFFF for session_id in received}) == 8


def test_interrupt_storm_attempts_are_one_device_s_sessions(tmp_path, calibrated,
                                                            monkeypatch):
    # each retry is the next session of the one device: its drift and noise
    # streams go on, where every attempt used to build a device at session 0
    endpoints, sessions = [], []

    class Recorded(DeviceEndpoint):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            endpoints.append(self)

        def handle_challenge(self, msg):
            sessions.append((self, self._session_index))
            return super().handle_challenge(msg)

    monkeypatch.setattr(cli, "DeviceEndpoint", Recorded)
    assert run(["challenge", "--profile", calibrated, "--config",
                _interrupted_config(tmp_path, 1.0), "--seed", 5]) == 1
    verifier, device = endpoints
    assert "words" not in vars(verifier)  # it only computed expected results
    assert device.master_seed == derive_seed(5, "device")
    assert sessions == [(device, index) for index in range(8)]


def test_config_file_overrides_scenario(tmp_path, capsys):
    sc = builtin_scenario("desk-small")
    cfg = tmp_path / "tweaked.json"
    _write_scenario(sc, cfg)
    assert run(["calibrate", "--config", cfg, "--trials", 20,
                "--out", tmp_path]) == 0
    assert (tmp_path / "desk-small-profile.json").exists()


@pytest.mark.parametrize("text, needle", [
    ('{"name": "x", "passess": 3}', "passess"),
    ('{"passes": 3}', "name"),
    ('{"name": "x", "noise": {"kind": "weird"}}', "weird"),
    ('{"name": "x",', "JSONDecodeError"),
    ('{"name": "x", "image_words": 0}', "image_words must be >= 1, got 0"),
    ('{"name": "x", "prime": 15}', "prime must be a prime below 2^64, got 15"),
    ('{"name": "x", "noise": {"sigma": NaN}}', "noise sigma must be finite, got nan"),
    ('{"name": "x", "noise": {"kind": "empirical", "values": [Infinity]}}',
     "noise values must be finite, got [inf]"),
    ('{"name": "x", "noise": {"nmi_prob": 1.5}}', "noise nmi_prob must be in [0, 1], got 1.5"),
    # these used to calibrate every duration to the 1 us floor and fail on
    # the constant series
    ('{"name": "x", "scan_us_per_word": -5}', "scan_us_per_word must be >= 0, got -5"),
    ('{"name": "x", "compute_us_per_word": -5}', "compute_us_per_word must be >= 0, got -5"),
    ('{"name": "x", "adversary": {"kind": "mmc_io", "payload_bytes": -8}}',
     "payload_bytes must be >= 0, got -8"),
    # these used to end in an OverflowError traceback, to calibrate overflowed
    # samples, or to calibrate durations whose noise had rounded away
    ('{"name": "x", "noise": {"sigma": 1e308}}', "below 2^53 us: 9.591e+06 us at 500 passes, "
     "noise reaching inf us"),
    pytest.param('{"name": "x", "timing_words": 1%s}' % ("0" * 400),
                 "below 2^53 us: inf us at 500 passes", id="timing_words-10**400"),
    ('{"name": "x", "adversary": {"kind": "mmc_io"}, "tiers": {"sram": {"per_word_cost": 0.5}, '
     '"mmc": {"per_word_cost": 1e307}}}', "below 2^53 us: inf us at 500 passes"),
    ('{"name": "x", "adversary": {"kind": "mmc_io", "payload_bytes": 1000000000000000000000000000000}}',
     "below 2^53 us: 1.25e+31 us at 500 passes"),
    # a tier the scenario prices and lacks: "KeyError: 'sram'", and a load
    # that failed every priced trial
    ('{"name": "x", "tiers": {"dram": {"per_word_cost": 4.0}}}',
     "UnknownTier: an unset scan_us_per_word needs tier 'sram'"),
    ('{"name": "x", "adversary": {"kind": "mmc_io"}, "tiers": {"sram": {"per_word_cost": 0.5}}}',
     "UnknownTier: adversary mmc_io needs tier 'mmc'"),
])
def test_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, text, needle):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert run(["calibrate", "--config", cfg, "--trials", 5, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and needle in err
    assert not list(tmp_path.glob("*-profile.json"))


def _desk_small_tiers(**tiers):
    """desk-small's scenario JSON with these tiers replaced; None drops one."""
    doc = scenario_to_json(builtin_scenario("desk-small"))
    doc["tiers"] = {n: t for n, t in dict(doc["tiers"], **tiers).items() if t is not None}
    return doc


def test_attack_on_a_missing_tier_is_refused_before_serving(tmp_path, monkeypatch, capsys):
    # this used to print "listening" and then drop every connection

    def serve_device(*args, **kwargs):
        raise AssertionError("serve started with a tier the attack cannot price")

    monkeypatch.setattr(cli, "serve_device", serve_device)
    cfg = tmp_path / "nodram.json"
    cfg.write_text(json.dumps(_desk_small_tiers(dram=None)))
    assert run(["serve", "--config", cfg, "--attack", "dram", "--port", 0]) == 1
    out, err = capsys.readouterr()
    assert "listening" not in out
    assert err == f"error: {cfg}: UnknownTier: adversary dram_swap needs tier 'dram'\n"


@pytest.mark.parametrize("tiers, attack, needle", [
    # this used to end every session in "closed the connection mid-session"
    ({"dram": None}, "dram", "UnknownTier: adversary dram_swap needs tier 'dram'"),
    # and this in an OverflowError traceback from the priced reply delay
    ({"mmc": {"per_word_cost": 1e307}}, "mmc", "ValueError: a priced duration must stay "
                                              "below 2^53 us: inf us at 8 passes, noise "
                                              "reaching 200 us"),
], ids=["no-dram-tier", "mmc-past-2^53-us"])
def test_attack_the_scenario_cannot_price_sends_no_challenge(tmp_path, monkeypatch, capsys,
                                                            tiers, attack, needle):
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps(_desk_small_tiers(**tiers)))
    assert run(["calibrate", "--config", cfg, "--trials", 20, "--out", tmp_path]) == 0
    received = []
    monkeypatch.setattr(DeviceEndpoint, "handle_challenge",
                        lambda self, msg: received.append(msg) or [])
    capsys.readouterr()
    assert run(["challenge", "--config", cfg, "--attack", attack,
                "--profile", tmp_path / "desk-small-profile.json"]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {needle}\n"
    assert received == []


def test_passes_past_the_duration_bound_is_refused_naming_the_file(tmp_path, capsys):
    # desk-small at 1e11 us a word loads at its 8 passes, and not at 100
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps(dict(scenario_to_json(builtin_scenario("desk-small")),
                                   scan_us_per_word=1e11)))
    assert run(["calibrate", "--config", cfg, "--passes", 100, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: ValueError: a priced duration must stay below 2^53 us: "
        f"2.048e+16 us at 100 passes, noise reaching 200 us\n")
    assert run(["calibrate", "--config", cfg, "--trials", 5, "--out", tmp_path / "out"]) == 0


@pytest.mark.parametrize("target", ["sim", "loopback"])
def test_trials_a_linear_drift_carries_past_2_53_us_are_refused(tmp_path, monkeypatch, capsys,
                                                                 target):
    # at 1e15 us a trial, trial 9 stays below 2^53 us and trial 10 does not;
    # 3,000 trials used to calibrate on durations that had lost their noise
    doc = scenario_to_json(builtin_scenario("desk-small"))
    cfg = tmp_path / "drift.json"
    cfg.write_text(json.dumps(dict(doc, noise=dict(doc["noise"], drift="linear",
                                                   drift_us_per_trial=1e15))))

    def priced(*args):
        raise AssertionError("a trial was priced")

    monkeypatch.setattr(cli, "run_trials", priced)
    monkeypatch.setattr(cli, "_connect", priced)
    for trials in (3000, 11):
        assert run(["calibrate", "--config", cfg, "--target", target, "--trials", trials,
                    "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --trials {trials}: a priced duration must stay "
                              f"below 2^53 us: ") and err.count("\n") == 1
        assert err.endswith(f" by trial {trials - 1}\n")
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    assert run(["calibrate", "--config", cfg, "--target", target, "--trials", 10,
                "--out", tmp_path / "out"]) == 0
    doc = json.loads((tmp_path / "out" / "desk-small-profile.json").read_text())
    assert doc["n"] == 10 and max(doc["samples_us"]) < 2 ** 53


@pytest.mark.parametrize("region, needle", [
    ("\ud800", "region_id is not UTF-8: "),
    ("x" * 70_000, "region_id is 70000 bytes in UTF-8, over 65535"),
], ids=["lone-surrogate", "over-65535-bytes"])
@pytest.mark.parametrize("command", ["calibrate", "challenge"])
def test_region_label_a_frame_cannot_carry_is_an_error(tmp_path, capsys, command, region,
                                                        needle):
    # a lone surrogate used to calibrate and then end challenge in a
    # UnicodeEncodeError traceback, and a 70,000-character label in a struct.error
    cfg = tmp_path / "region.json"
    cfg.write_text(json.dumps(dict(scenario_to_json(builtin_scenario("desk-small")),
                                   region_id=region)))
    extra = {"calibrate": ["--trials", 5, "--out", tmp_path / "out"],
             "challenge": ["--profile", tmp_path / "profile.json"]}[command]
    assert run([command, "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ValueError: {needle}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


# Where each scenario record sits in desk-small's scenario JSON: the sram tier
# first, then the other tiers of its table.
RECORDS = [((), Scenario), (("tiers", "sram"), TierModel), (("noise",), NoiseModel),
           (("adversary",), AdversaryConfig),
           *((("tiers", name), TierModel) for name in ("dram", "iomem", "mmc"))]


def _fields_of(want):
    """(path, key) of every field of RECORDS annotated want."""
    return [(path, f.name) for path, cls in RECORDS for f in dataclasses.fields(cls)
            if f.type is want]


FLOAT_FIELDS = _fields_of(float)


def _desk_small_with(path, key, value):
    """desk-small's scenario JSON with one field, under path, set to value (or to
    its own value as an int when value is None)."""
    doc = scenario_to_json(builtin_scenario("desk-small"))
    node = doc
    for step in path:
        node = node[step]
    node[key] = int(node[key]) if value is None else value
    return doc


def _refusal(tmp_path, capsys, doc) -> str:
    """What calibrate --config says of the scenario doc, once it has exited 1
    on --target sim and loopback alike with one line of stderr naming the
    file and written nothing."""
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    errs = set()
    for target in ("sim", "loopback"):
        assert run(["calibrate", "--config", cfg, "--target", target, "--trials", 5,
                    "--out", out]) == 1
        errs.add(capsys.readouterr().err)
    [err] = errs
    assert err.startswith(f"error: {cfg}: ValueError: ") and err.count("\n") == 1
    assert not out.exists()
    return err


@pytest.mark.parametrize("path, key", FLOAT_FIELDS)
@pytest.mark.parametrize("value", ["0.3", True])
def test_float_field_refuses_a_string_or_a_bool(tmp_path, capsys, path, key, value):
    # a string used to end in a TypeError traceback from the timing model,
    # and true to be priced as 1.0
    err = _refusal(tmp_path, capsys, _desk_small_with(path, key, value))
    assert f"{key} must be a number, got {value!r}" in err


@pytest.mark.parametrize("path, key", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_float_field_refuses_a_non_finite_value(tmp_path, capsys, path, key, value):
    # inf and nan in a scan or tier cost used to end in a traceback from
    # rounding the priced duration
    err = _refusal(tmp_path, capsys, _desk_small_with(path, key, value))
    assert f"{key} must be finite, got {value!r}" in err


@pytest.mark.parametrize("path, key", FLOAT_FIELDS)
def test_float_field_takes_an_int(path, key):
    doc = _desk_small_with(path, key, None)
    assert scenario_to_json(scenario_from_json(doc)) == doc


@pytest.mark.parametrize("path, key, kind, value", [
    (path, key, kind, value)
    for want, kind, values in ((int, "an int", (2.0, 2.5, True, "2")), (str, "a str", (5, True)))
    for path, key in _fields_of(want) for value in values])
def test_int_or_str_field_refuses_another_type(tmp_path, capsys, path, key, kind, value):
    err = _refusal(tmp_path, capsys, _desk_small_with(path, key, value))
    assert f"{key} must be {kind}, got {value!r}" in err


@pytest.mark.parametrize("command", ["calibrate", "challenge"])
@pytest.mark.parametrize("passes", [0, -2])
def test_passes_below_one_is_an_operational_error(tmp_path, capsys, command, passes):
    # 0 used to fall back to the scenario's passes, and -2 to end in a traceback
    extra = {"calibrate": ["--trials", 5, "--out", tmp_path / "out"],
             "challenge": ["--profile", tmp_path / "profile.json"]}[command]
    assert run([command, "--scenario", "desk-small", "--passes", passes, *extra]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --passes must be >= 1, got {passes}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale", ["inf", "nan", "-1"])
def test_bad_time_scale_is_refused_before_serving(monkeypatch, capsys, scale):
    # inf used to drop every session, and nan and -1 to mean 0

    def serve_device(*args, **kwargs):
        raise AssertionError("serve started with a bad --time-scale")

    monkeypatch.setattr(cli, "serve_device", serve_device)
    assert run(["serve", "--scenario", "desk-small", "--port", 0, "--time-scale", scale]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --time-scale must be a finite number >= 0, got {float(scale)}\n"


@pytest.mark.parametrize("port", ["70000", "65536", "-1"])
def test_bad_port_is_refused_before_serving(monkeypatch, capsys, port):
    # 70000 and -1 used to end in an OverflowError traceback from bind

    def serve_device(*args, **kwargs):
        raise AssertionError("serve started with a bad --port")

    monkeypatch.setattr(cli, "serve_device", serve_device)
    assert run(["serve", "--scenario", "desk-small", "--port", port]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --port must be in 0-65535 (0: any free port), got {port}\n"


def test_non_positive_priced_durations_are_not_a_traceback(tmp_path, capsys):
    # gaussian noise this wide prices about a quarter of desk-small's trials
    # at or below 0 us: the sim target used to raise in Measurement, and the
    # loopback target and challenge to stamp a RESPONSE before its RESTORED
    cfg = tmp_path / "wide.json"
    _write_scenario(dataclasses.replace(builtin_scenario("desk-small"),
                                        noise=NoiseModel("gaussian", sigma=20000.0)), cfg)
    for target in ("sim", "loopback"):
        assert run(["calibrate", "--config", cfg, "--trials", 20, "--target", target,
                    "--out", tmp_path / target]) == 0
        rows = (tmp_path / target / "desk-small-measurements.csv").read_text().splitlines()
        assert min(int(row.split(",")[2]) for row in rows[1:]) == 1
    profile = tmp_path / "sim" / "desk-small-profile.json"
    capsys.readouterr()
    assert run(["challenge", "--config", cfg, "--profile", profile, "--seed", 0]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "ACCEPT"
    assert run(["challenge", "--config", cfg, "--profile", profile, "--seed", 1]) == 2
    fast = json.loads(capsys.readouterr().out)  # answered at once: too fast for the profile
    assert fast["duration_us"] == 0 and fast["reason"] == "timing outlier (percentile)"


def test_challenge_at_another_prime_scans_once(tmp_path, monkeypatch, capsys):
    # the verifier's expected value and the replayed simulated device's scan
    # are one streaming evaluation; a corrupt device's answer is still judged
    cfg = tmp_path / "p64.json"
    _write_scenario(dataclasses.replace(builtin_scenario("desk-small"), prime=(1 << 64) - 59), cfg)
    assert run(["calibrate", "--config", cfg, "--target", "loopback", "--trials", 20,
                "--out", tmp_path]) == 0
    monkeypatch.setattr(engine, "_last", None)  # an earlier test may have evaluated this challenge
    scans = []

    def counted(image, spec, perm=None):
        scans.append(spec)
        return multipass(image, spec, perm)

    monkeypatch.setattr(engine, "multipass", counted)
    profile = tmp_path / "desk-small-profile.json"
    assert run(["challenge", "--config", cfg, "--profile", profile, "--seed", 2]) == 0
    assert len(scans) == 1
    assert run(["challenge", "--config", cfg, "--profile", profile, "--seed", 2,
                "--attack", "corrupt"]) == 2
    assert len(scans) == 1  # the same challenge over the same checkpoint: remembered
    assert "accumulator mismatch" in capsys.readouterr().out


# Run in a fresh interpreter, in which any import of scipy fails.
_BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None; "
_CLI = "from timecheck.cli import main; sys.exit(main(sys.argv[1:]))"


def _no_scipy_cli(*argv):
    return [sys.executable, "-c", _BLOCK_SCIPY + _CLI, *map(str, argv)]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _src_env():
    """The environment of a CLI subprocess that imports this checkout's package, with a
    block-buffered stdout: what serve prints must reach a pipe by its own flush."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _listening_line(server, timeout_s=30.0):
    """The line a serve child prints on stdout once it listens, read within timeout_s."""
    ready, _, _ = select.select([server.stdout], [], [], timeout_s)
    assert ready, f"serve printed no line in {timeout_s} s"
    return server.stdout.readline()


def test_no_command_needs_scipy(tmp_path):
    # the p-values come from the standard library: scipy is only a test oracle
    env = _src_env()

    def check(code, *argv):
        proc = subprocess.run(_no_scipy_cli(*argv), capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)
        return proc.stdout

    blocked = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY + "import scipy"],
                             capture_output=True, text=True, env=env, timeout=60)
    assert blocked.returncode == 1 and "ModuleNotFoundError" in blocked.stderr

    check(0, "calibrate", "--target", "sim", "--scenario", "desk-small", "--trials", 40,
          "--seed", 3, "--out", tmp_path / "sim")
    args, code, want = CHALLENGE_STDOUT_SHA256[0]
    out = check(code, "challenge", "--profile", tmp_path / "sim" / "desk-small-profile.json",
                "--scenario", "desk-small", *args)
    assert hashlib.sha256(out.encode()).hexdigest() == want
    args, want = LOOPBACK_CALIBRATE_SHA256[0]
    check(0, "calibrate", "--target", "loopback", *args, "--out", tmp_path / "loopback")
    for name, digest in want.items():
        assert _sha256(tmp_path / "loopback" / name) == digest, name

    for table in ("fig10", "fig11", "fig13"):
        check(0, "reproduce", table, "--seed", 0, "--out", tmp_path / "reports")
    for name, digest in TestReproduce.SUMMARY_SHA256[0].items():
        assert _sha256(tmp_path / "reports" / name) == digest, name
    assert (_sha256(tmp_path / "reports" / "fig13_detection.csv")
            == TestReproduce.FIG13_SHA256[0])

    server = subprocess.Popen(_no_scipy_cli("serve", "--scenario", "desk-small", "--port", 0),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        host, port = re.fullmatch(r"device desk-small listening on tcp://(.+):(\d+)\n",
                                  _listening_line(server)).groups()
        sc = builtin_scenario("desk-small")
        rng = random.Random(5)
        spec = random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
        timed = protocol.issue_challenge(protocol.TcpChannel(host, int(port), timeout_s=5.0),
                                         spec, rng=rng)
        assert timed.response.accumulator == DeviceEndpoint(sc).expected_result(spec).accumulator
    finally:
        server.send_signal(signal.SIGINT)  # serve's only way out
        _, err = server.communicate(timeout=30)
    assert server.returncode == 0, err


def test_no_module_imports_scipy():
    # test_no_command_needs_scipy runs the success paths; no error path may
    # import scipy either, so no module of the package names it in an import
    package = os.path.dirname(cli.__file__)
    imported = {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                imported.setdefault(module.partition(".")[0], []).append(f"{name}:{node.lineno}")
    assert "numpy" in imported  # the walk sees the package's imports
    assert "scipy" not in imported, imported["scipy"]


def test_busy_port_is_refused_through_main():
    # a second server on a port another listener holds: one error naming the
    # address, and no listening line; a fresh process, scipy unimportable
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = held.getsockname()[1]
        proc = subprocess.run(_no_scipy_cli("serve", "--scenario", "desk-small", "--port", port),
                              capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "while attempting to bind" in proc.stderr and repr(("127.0.0.1", port)) in proc.stderr


@pytest.mark.parametrize("host, shown", [("127.0.0.1", "127.0.0.1"), ("::1", "[::1]")])
def test_served_address_is_a_challenge_target(any_duration, capsys, host, shown):
    # serve prints the address that challenge --target takes, an IPv6 host bracketed,
    # and SIGINT ends it with exit 0 at once, even while a client holds an idle connection
    capsys.readouterr()
    server = subprocess.Popen(_no_scipy_cli("serve", "--scenario", "desk-small", "--host", host,
                                            "--port", 0, "--time-scale", 0),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=_src_env())
    try:
        target = re.fullmatch(rf"device desk-small listening on (tcp://{re.escape(shown)}:\d+)\n",
                              _listening_line(server)).group(1)
        assert run(["challenge", "--profile", any_duration, "--scenario", "desk-small",
                    "--target", target, "--seed", 2]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "ACCEPT"
        with socket.create_connection(protocol.tcp_address(target), timeout=5.0):
            time.sleep(0.2)  # the server is reading this idle connection
            server.send_signal(signal.SIGINT)
            sent = time.monotonic()
            server.wait(timeout=5.0)
            assert time.monotonic() - sent < 1.0
    finally:
        server.send_signal(signal.SIGINT)  # serve's only way out
        _, err = server.communicate(timeout=30)
    assert server.returncode == 0, err


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these names from outside the package
    # (bench/tracing.py, Tracer.install): a module attribute, or a method in
    # its class's own __dict__; a rename must fail here, not only under tracing
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, (modname, attr, clsname, kind) in tracing.TARGETS.items():
        owner = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(owner, attr, None)), name
        else:
            assert callable(vars(getattr(owner, clsname)).get(attr)), name
        assert kind in ("span", "counter"), name
