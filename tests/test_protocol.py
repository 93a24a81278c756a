"""Tests for framing, channels, hostile stubs, and session verification."""

import logging
import random
import socket
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck import engine, protocol
from timecheck.checkpoint import MemoryImage, checkpoint_replay, scan_words
from timecheck.coeffs import RandomSeeds
from timecheck.device import NoiseModel, attack_scenario, desk_scenario, price
from timecheck.engine import ChallengeSpec, multipass, random_spec
from timecheck.errors import ChannelTimeout, MalformedFrame, SessionMismatch
from timecheck.field import M61, FieldParams
from timecheck.protocol import (
    STATUS_NMI_RETRY,
    STATUS_OK,
    STATUS_REFUSED,
    STATUS_REGION_MISMATCH,
    ChallengeMessage,
    DeviceEndpoint,
    FrameDecoder,
    LoopbackChannel,
    ResponseMessage,
    RestoredMessage,
    TcpChannel,
    decode_body,
    encode_challenge,
    encode_response,
    encode_restored,
    issue_challenge,
    new_session_id,
    serve_device,
    verify_response,
)
from timecheck import stats
from timecheck.seeding import sub_rng


def fresh_spec(rng=None, scenario=None):
    rng = rng or random.Random(0)
    sc = scenario or desk_scenario()
    return random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)


def feed_in_chunks(decoder, data, size):
    out = []
    for i in range(0, len(data), size):
        out.extend(decoder.feed(data[i:i + size]))
    return out


def read_through_response(sock, decoder):
    """Messages read from a device connection up to and including a response."""
    out = []
    while not any(isinstance(m, ResponseMessage) for m in out):
        data = sock.recv(4096)
        assert data, "device closed the connection"
        out.extend(decoder.feed(data))
    return out


class TestFraming:
    def test_challenge_round_trip_randomized(self):
        rng = random.Random(1)
        for _ in range(200):
            p = rng.choice((13, 1009, M61))
            spec = random_spec(p, rng.randint(1, 8), rng.randint(1, 1000), rng,
                               region_id=rng.choice(("sram", "full", "x" * 40)))
            msg = ChallengeMessage(rng.getrandbits(64), spec)
            decoded = FrameDecoder().feed(encode_challenge(msg))
            assert decoded == [msg]

    def test_restored_and_response_round_trip(self):
        rng = random.Random(2)
        for _ in range(100):
            r = RestoredMessage(rng.getrandbits(64))
            assert FrameDecoder().feed(encode_restored(r)) == [r]
            resp = ResponseMessage(rng.getrandbits(64), rng.getrandbits(64),
                                   rng.choice((STATUS_OK, STATUS_NMI_RETRY,
                                               STATUS_REGION_MISMATCH)))
            assert FrameDecoder().feed(encode_response(resp)) == [resp]

    def test_incremental_reassembly(self):
        msg = ChallengeMessage(7, fresh_spec())
        raw = encode_challenge(msg)
        for size in (1, 2, 3, 5, 7, 64):
            assert feed_in_chunks(FrameDecoder(), raw, size) == [msg]

    def test_back_to_back_frames(self):
        a = encode_restored(RestoredMessage(1))
        b = encode_response(ResponseMessage(1, 2, STATUS_OK))
        out = FrameDecoder().feed(a + b)
        assert len(out) == 2

    def test_bad_magic(self):
        with pytest.raises(MalformedFrame):
            FrameDecoder().feed(b"XXXX" + b"\x00" * 16)

    def test_crc_mismatch(self):
        raw = bytearray(encode_restored(RestoredMessage(5)))
        raw[10] ^= 0xFF  # flip a body byte, CRC now stale
        with pytest.raises(MalformedFrame):
            FrameDecoder().feed(bytes(raw))

    def test_truncated_frame_waits_for_more(self):
        raw = encode_restored(RestoredMessage(5))
        dec = FrameDecoder()
        assert dec.feed(raw[:10]) == []
        assert dec.feed(raw[10:]) == [RestoredMessage(5)]

    def test_unknown_type_rejected(self):
        import struct
        import zlib

        body = bytes([99]) + b"\x00" * 8
        raw = b"TCH1" + struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(MalformedFrame):
            FrameDecoder().feed(raw)

    def test_oversized_frame_rejected(self):
        import struct

        with pytest.raises(MalformedFrame):
            FrameDecoder().feed(b"TCH1" + struct.pack("<I", 1 << 30))

    def test_decode_body_trailing_garbage(self):
        msg = ChallengeMessage(7, fresh_spec())
        raw = encode_challenge(msg)
        body = raw[8:-4] + b"\x00"
        with pytest.raises(MalformedFrame):
            decode_body(body)


PRIMES = (2, 13, 65537, M61, (1 << 64) - 59)
u64 = st.integers(0, (1 << 64) - 1)


@st.composite
def challenge_messages(draw, k=st.one_of(st.integers(1, 8), st.integers(9, 300),
                                          st.just(65535))):
    p = draw(st.sampled_from(PRIMES))
    k = draw(k)
    if k <= 8:
        r = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    else:  # drawing 65,535 values one by one would dominate the test
        seed_rng = random.Random(draw(u64))
        r = [seed_rng.randrange(p) for _ in range(k)]
    spec = ChallengeSpec(seeds=RandomSeeds(r, FieldParams(p, draw(st.integers(0, p - 1)))),
                         perm_seed=draw(u64), passes=draw(st.integers(1, (1 << 32) - 1)),
                         region_id=draw(st.text(max_size=40)))
    return ChallengeMessage(draw(u64), spec)


responses = st.builds(ResponseMessage, u64, u64, st.integers(0, 255))
messages = st.one_of(challenge_messages(k=st.integers(1, 8)), responses,
                     st.builds(RestoredMessage, u64))
# framed bodies of any message type, so decode_body sees shapes it must refuse
garbage = st.one_of(st.binary(max_size=80),
                    st.builds(lambda kind, rest: protocol.frame(bytes([kind]) + rest),
                              st.integers(0, 255), st.binary(max_size=80)))


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(challenge_messages())
    def test_challenge_round_trip_full_ranges(self, msg):
        assert FrameDecoder().feed(encode_challenge(msg)) == [msg]

    @settings(max_examples=200, deadline=None)
    @given(responses, st.builds(RestoredMessage, u64))
    def test_response_and_restored_round_trip_full_ranges(self, resp, restored):
        assert FrameDecoder().feed(encode_response(resp)) == [resp]
        assert FrameDecoder().feed(encode_restored(restored)) == [restored]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(messages, max_size=6), st.data())
    def test_any_chunking_yields_the_same_messages(self, msgs, data):
        encode = {ChallengeMessage: encode_challenge, ResponseMessage: encode_response,
                  RestoredMessage: encode_restored}
        stream = b"".join(encode[type(m)](m) for m in msgs)
        cuts = sorted(data.draw(st.sets(st.integers(0, len(stream)), max_size=12)))
        decoder = FrameDecoder()
        out = []
        for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
            out.extend(decoder.feed(stream[lo:hi]))
        assert out == msgs

    @settings(max_examples=300, deadline=None)
    @given(st.lists(garbage, min_size=1, max_size=6))
    def test_arbitrary_bytes_raise_only_malformed_frame(self, chunks):
        decoder = FrameDecoder()
        try:
            for chunk in chunks:
                decoder.feed(chunk)
        except MalformedFrame:
            pass


class TestSessionIds:
    def test_unique_and_fresh(self):
        rng = random.Random(3)
        ids = {new_session_id(rng) for _ in range(2000)}
        assert len(ids) == 2000

    def test_fresh_challenge_randomness(self):
        rng = random.Random(4)
        sc = desk_scenario()
        seen = set()
        for _ in range(200):
            spec = fresh_spec(rng, sc)
            key = (spec.seeds.r, spec.perm_seed)
            assert key not in seen
            seen.add(key)


class TestChannels:
    def test_in_process_zero_jitter_exact_duration(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=5)
        twin = DeviceEndpoint(sc, master_seed=5)  # replays the same noise draws
        chan = LoopbackChannel(ep, jitter_us=0.0)
        rng = sub_rng(0, "t")
        for i in range(5):
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(chan, spec, rng=rng)
            true_duration = twin.handle_challenge(ChallengeMessage(1, spec))[1][0]
            assert timed.duration_us == true_duration

    def test_loopback_jitter_bound(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=6)
        jitter = 3.0
        chan = LoopbackChannel(ep, jitter_us=jitter, jitter_seed=7)
        ref = DeviceEndpoint(sc, master_seed=6)
        rng = sub_rng(1, "t")
        for i in range(40):
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(chan, spec, rng=rng)
            frames = ref.handle_challenge(ChallengeMessage(1, spec))
            true_duration = frames[1][0]
            assert abs(timed.duration_us - true_duration) <= 2 * jitter

    def test_sub_tick_jitter_collapses(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=8)
        chan = LoopbackChannel(ep, jitter_us=0.4, jitter_seed=9)
        rng = sub_rng(2, "t")
        spec = fresh_spec(rng, sc)
        timed = issue_challenge(chan, spec, rng=rng)
        assert timed.duration_us % 100 == 88

    def test_region_mismatch_status(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=10)
        chan = LoopbackChannel(ep, jitter_us=0.0)
        rng = sub_rng(3, "t")
        spec = random_spec(sc.prime, sc.k, sc.passes, rng, region_id="full")
        timed = issue_challenge(chan, spec, rng=rng)
        assert timed.response.status == STATUS_REGION_MISMATCH

    def test_region_mismatch_for_another_session_rejected(self):
        # a stale or forged refusal must not become this session's verdict
        class ReplayChannel:
            def __init__(self, status):
                self.status = status

            def request(self, challenge_frame):
                return [(100, ResponseMessage(0xBAD, 0, self.status))]

        for status in (STATUS_REGION_MISMATCH, STATUS_REFUSED):
            with pytest.raises(SessionMismatch):
                issue_challenge(ReplayChannel(status), fresh_spec(), session_id=0x600D)

    def test_refusal_is_a_reject_verdict(self):
        sc = desk_scenario()
        chan = LoopbackChannel(DeviceEndpoint(sc, master_seed=30), jitter_us=0.0)
        hostile = ChallengeSpec(seeds=RandomSeeds((1, 2), FieldParams(13, 5)),
                                perm_seed=1, passes=1, region_id=sc.region_id)
        timed = issue_challenge(chan, hostile, session_id=0x600D)
        assert timed.response == ResponseMessage(0x600D, 0, STATUS_REFUSED)
        assert timed.duration_us == 0
        verdict = verify_response(None, timed, profile=None)
        assert verdict.outcome == "REJECT"
        assert verdict.reason.startswith("device refused: ")

    def test_challenge_budget_bounds_are_inclusive(self, monkeypatch):
        sc = desk_scenario()  # k = 2, 8 passes x 2,048 words
        monkeypatch.setattr(protocol, "MAX_K", 2)
        monkeypatch.setattr(protocol, "MAX_SCAN_WORDS", 8 * 2048)
        ep = DeviceEndpoint(sc, master_seed=31)
        rng = sub_rng(11, "t")

        def statuses(spec):
            replies = ep.handle_challenge(ChallengeMessage(1, spec))
            return [m.status for _, reply in replies for m in FrameDecoder().feed(reply)
                    if isinstance(m, ResponseMessage)], len(replies)

        assert statuses(fresh_spec(rng, sc)) == ([STATUS_OK], 2)
        assert statuses(replace(fresh_spec(rng, sc), passes=9)) == ([STATUS_REFUSED], 1)
        k3 = random_spec(sc.prime, 3, sc.passes, rng, sc.region_id)
        assert statuses(k3) == ([STATUS_REFUSED], 1)


@pytest.fixture(scope="module")
def desk_profile():
    """Loopback-calibrated baseline for the desk scenario (one per module)."""
    sc = desk_scenario()
    rng = sub_rng(4, "cal")
    cal = LoopbackChannel(DeviceEndpoint(sc, master_seed=11), jitter_us=0.4,
                          jitter_seed=12)
    durations = [issue_challenge(cal, fresh_spec(rng, sc), rng=rng).duration_us
                 for _ in range(40)]
    return sc, stats.calibrate(durations)


class TestHostileStubs:
    @pytest.fixture(autouse=True)
    def _setup(self, desk_profile):
        self.sc, self.profile = desk_profile
        self.rng = sub_rng(5, "sessions")

    def _session(self, endpoint):
        chan = LoopbackChannel(endpoint, jitter_us=0.4, jitter_seed=13)
        spec = fresh_spec(self.rng, self.sc)
        timed = issue_challenge(chan, spec, rng=self.rng)
        honest = DeviceEndpoint(self.sc, master_seed=14)
        return verify_response(honest.expected_result(spec), timed, self.profile)

    def test_stale_session_replay_detected(self):
        ep = DeviceEndpoint(self.sc, master_seed=15, behavior="stale_session")
        chan = LoopbackChannel(ep, jitter_us=0.4, jitter_seed=16)
        first = fresh_spec(self.rng, self.sc)
        issue_challenge(chan, first, rng=self.rng)  # primes the stale id
        with pytest.raises(SessionMismatch):
            issue_challenge(chan, fresh_spec(self.rng, self.sc), rng=self.rng)

    def test_wrong_result_rejected_by_value(self):
        verdict = self._session(DeviceEndpoint(self.sc, master_seed=17,
                                               behavior="wrong_result"))
        assert verdict.outcome == "REJECT" and "accumulator" in verdict.reason

    def test_delayed_response_rejected_by_timing(self):
        verdict = self._session(DeviceEndpoint(self.sc, master_seed=18,
                                               behavior="delayed", extra_delay_us=5000))
        assert verdict.outcome == "REJECT" and "timing" in verdict.reason

    def test_honest_device_accepted(self):
        verdict = self._session(DeviceEndpoint(self.sc, master_seed=19))
        assert verdict.outcome == "ACCEPT"

    def test_unknown_status_rejected(self):
        # the right accumulator at a normal time, under a status the protocol
        # does not define: the decoder passes any u8 through
        ep = DeviceEndpoint(self.sc, master_seed=19)
        chan = LoopbackChannel(ep, jitter_us=0.4, jitter_seed=13)
        spec = fresh_spec(self.rng, self.sc)
        timed = issue_challenge(chan, spec, rng=self.rng)
        expected = DeviceEndpoint(self.sc, master_seed=14).expected_result(spec)
        assert verify_response(expected, timed, self.profile).outcome == "ACCEPT"
        odd = replace(timed, response=replace(timed.response, status=200))
        verdict = verify_response(expected, odd, self.profile)
        assert verdict.outcome == "REJECT"
        assert verdict.reason == "unknown status 200"
        assert verdict.detector is None

    def test_value_check_precedes_timing(self):
        # wrong value at a perfectly normal time: REJECT for the value
        ep = DeviceEndpoint(self.sc, master_seed=20, behavior="wrong_result")
        verdict = self._session(ep)
        assert verdict.outcome == "REJECT"
        assert verdict.detector is None

    def test_attack_kinds_rejected(self):
        for kind in ("dram", "iomem", "mmc"):
            ep = DeviceEndpoint(attack_scenario(self.sc, kind), master_seed=21)
            verdict = self._session(ep)
            assert verdict.outcome == "REJECT", kind

    def test_nmi_asks_for_retry(self):
        from dataclasses import replace

        spiky = replace(self.sc, noise=replace(self.sc.noise, nmi_prob=1.0,
                                               nmi_us=50_000.0))
        ep = DeviceEndpoint(spiky, master_seed=22)
        chan = LoopbackChannel(ep, jitter_us=0.4, jitter_seed=23)
        spec = fresh_spec(self.rng, self.sc)
        timed = issue_challenge(chan, spec, rng=self.rng)
        honest = DeviceEndpoint(self.sc, master_seed=24)
        verdict = verify_response(honest.expected_result(spec), timed, self.profile)
        assert verdict.outcome == "RETRY"


class TestTcpTransport:
    def test_round_trip_over_sockets(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=25)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        try:
            chan = TcpChannel(host, port, timeout_s=5.0)
            rng = sub_rng(5, "t")
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(chan, spec, rng=rng)
            assert timed.response.status == STATUS_OK
            honest = DeviceEndpoint(sc, master_seed=26)
            assert timed.response.accumulator == honest.expected_result(spec).accumulator
        finally:
            server.close()

    def test_server_survives_spec_out_of_field(self, caplog):
        # p=13 cannot index 2,048 words: the device refuses this challenge at
        # once, logs why, and answers a good challenge on the same connection
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=27)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                decoder = FrameDecoder()
                hostile = ChallengeSpec(seeds=RandomSeeds((1, 2), FieldParams(13, 5)),
                                        perm_seed=1, passes=1, region_id=sc.region_id)
                with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                    sock.sendall(encode_challenge(ChallengeMessage(7, hostile)))
                    refused = read_through_response(sock, decoder)
                assert refused == [ResponseMessage(7, 0, STATUS_REFUSED)]
                assert "SpecOutOfField" in caplog.text
                assert thread.is_alive()
                spec = fresh_spec(sub_rng(6, "t"), sc)
                sock.sendall(encode_challenge(ChallengeMessage(8, spec)))
                restored, response = read_through_response(sock, decoder)
            assert restored == RestoredMessage(8)
            assert response.session_id == 8 and response.status == STATUS_OK
            honest = DeviceEndpoint(sc, master_seed=28)
            assert response.accumulator == honest.expected_result(spec).accumulator
        finally:
            server.close()

    def test_server_refuses_oversized_challenges(self, caplog):
        # passes = 2^32-1 would allocate hundreds of GiB and k = 256 would take
        # about a minute of setup: both are refused before replay, at once, and
        # the same connection then serves a good challenge
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=30)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        rng = sub_rng(10, "t")
        hostile = {1: replace(fresh_spec(rng, sc), passes=(1 << 32) - 1),
                   2: random_spec(sc.prime, 256, sc.passes, rng, sc.region_id)}
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                decoder = FrameDecoder()
                for session_id, spec in hostile.items():
                    start = time.monotonic()
                    with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                        sock.sendall(encode_challenge(ChallengeMessage(session_id, spec)))
                        refused = read_through_response(sock, decoder)
                    assert time.monotonic() - start < 1.0
                    assert refused == [ResponseMessage(session_id, 0, STATUS_REFUSED)]
                    assert f"session {session_id:#x}: k=" in caplog.text
                assert thread.is_alive()
                spec = fresh_spec(rng, sc)
                sock.sendall(encode_challenge(ChallengeMessage(3, spec)))
                restored, response = read_through_response(sock, decoder)
            assert restored == RestoredMessage(3)
            assert response.status == STATUS_OK
            assert response.accumulator == ep.expected_result(spec).accumulator
        finally:
            server.close()

    def test_unexpected_error_drops_only_its_connection(self, monkeypatch, caplog):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=33)
        honest = ep.handle_challenge
        calls = []

        def fails_once(msg):
            calls.append(msg.session_id)
            if len(calls) == 1:
                raise RuntimeError("injected defect")
            return honest(msg)

        monkeypatch.setattr(ep, "handle_challenge", fails_once)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        chan = TcpChannel(host, port, timeout_s=5.0)
        rng = sub_rng(12, "t")
        try:
            with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                with pytest.raises(ChannelTimeout):
                    issue_challenge(chan, fresh_spec(rng, sc), rng=rng)
            assert "RuntimeError: injected defect" in caplog.text  # with its traceback
            assert thread.is_alive()
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(chan, spec, rng=rng)
            assert timed.response.accumulator == ep.expected_result(spec).accumulator
        finally:
            server.close()

    def test_idle_client_does_not_block_server(self, monkeypatch, caplog):
        # an accepted connection that never sends is dropped after the read
        # timeout, and the serialized server goes on to the next client
        monkeypatch.setattr(protocol, "CONN_TIMEOUT_S", 0.2)
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=29)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        try:
            with socket.create_connection((host, port), timeout=5.0) as idle:
                rng = sub_rng(8, "t")
                spec = fresh_spec(rng, sc)
                with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                    timed = issue_challenge(TcpChannel(host, port, timeout_s=5.0), spec, rng=rng)
                assert timed.response.status == STATUS_OK
                assert timed.response.accumulator == ep.expected_result(spec).accumulator
                assert "TimeoutError" in caplog.text
                assert idle.recv(1) == b""  # the server closed the idle connection
        finally:
            server.close()

    def test_closing_the_socket_stops_the_server(self):
        ep = DeviceEndpoint(desk_scenario(), master_seed=32)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        server.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()

    def test_unreachable_target(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        chan = TcpChannel("127.0.0.1", dead_port, timeout_s=0.5)
        with pytest.raises(ChannelTimeout):
            chan.request(encode_challenge(ChallengeMessage(1, fresh_spec())))


class TestPricing:
    """The device prices the challenge it received, drift included."""

    def _duration(self, endpoint, spec):
        return endpoint.handle_challenge(ChallengeMessage(1, spec))[1][0]

    @pytest.mark.parametrize("kind", ["none", "dram"])
    def test_priced_by_received_passes(self, kind):
        sc = desk_scenario()
        if kind != "none":
            sc = attack_scenario(sc, kind)
        rng = sub_rng(7, "t")
        one = random_spec(sc.prime, sc.k, 1, rng, sc.region_id)
        eight = random_spec(sc.prime, sc.k, 8, rng, sc.region_id)
        # equal master seeds: both endpoints draw the same noise
        d1 = self._duration(DeviceEndpoint(sc, master_seed=30), one)
        d8 = self._duration(DeviceEndpoint(sc, master_seed=30), eight)
        per_pass = sc.timing_words * (sc.scan_us_per_word + sc.compute_us_per_word)
        if kind == "dram":
            per_pass += 2 * sc.tiers["dram"].per_word_cost
        assert d8 - d1 == round(7 * per_pass)

    def test_duration_is_the_priced_challenge(self):
        sc = attack_scenario(desk_scenario(), "iomem")
        spec = fresh_spec(sub_rng(9, "t"), sc)
        duration, _ = price(sc, spec.passes, sub_rng(33, "device-noise", 0), 0)
        assert self._duration(DeviceEndpoint(sc, master_seed=33), spec) == round(duration)

    def test_linear_drift_grows_per_session(self):
        sc = desk_scenario()
        sc = replace(sc, noise=NoiseModel("empirical", values=(0.0,), drift="linear",
                                          drift_us_per_trial=50.0))
        ep = DeviceEndpoint(sc, master_seed=31)
        rng = sub_rng(8, "t")
        durations = [self._duration(ep, fresh_spec(rng, sc)) for _ in range(4)]
        assert [b - a for a, b in zip(durations, durations[1:])] == [50, 50, 50]
        assert durations[0] == round(sc.base_cost_us())


class TestSharedSnapshot:
    def test_endpoints_share_one_snapshot(self):
        sc = desk_scenario()
        a = DeviceEndpoint(sc, master_seed=1)
        b = DeviceEndpoint(attack_scenario(sc, "dram"), master_seed=2)
        assert a.snapshot is b.snapshot
        assert a.checkpoint is b.checkpoint
        assert a.snapshot.scan is b.snapshot.scan
        assert a.state is not b.state
        assert a.snapshot.scan.dtype == np.uint64
        assert a.snapshot.scan.tolist() == scan_words(a.checkpoint)

    def test_scan_array_is_read_only(self):
        ep = DeviceEndpoint(desk_scenario(), master_seed=3)
        scan = ep.snapshot.scan
        assert scan.flags.writeable is False
        with pytest.raises(ValueError):
            scan[0] = 1
        with pytest.raises(ValueError):
            scan.flags.writeable = True

    def test_replay_leaves_snapshot_untouched(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=4)
        other = DeviceEndpoint(sc, master_seed=5)
        cp = ep.checkpoint
        recorded = scan_words(cp)
        scan_before = ep.snapshot.scan.copy()
        ep.state.image.words[0] ^= 1
        ep.state.registers[-1] ^= 1
        assert ep.state.image.words[0] != cp.image.words[0]
        checkpoint_replay(cp, ep.state)
        assert list(ep.state.image.words) == list(cp.image.words)
        assert ep.state.registers == list(cp.register_file)
        assert scan_words(cp) == recorded
        assert np.array_equal(ep.snapshot.scan, scan_before)
        spec = fresh_spec(sub_rng(9, "t"), sc)
        assert ep.expected_result(spec) == other.expected_result(spec)

    def test_other_primes_use_streaming_multipass(self, monkeypatch):
        sc = replace(desk_scenario(), prime=65537)  # 8 passes x 2,048 words < p
        ep = DeviceEndpoint(sc, master_seed=6)
        calls = []

        def spy(image, spec, perm=None):
            calls.append(spec)
            return multipass(image, spec, perm)

        def vectorized(words, spec):
            raise AssertionError("the vectorized evaluator is for p = M61 only")

        monkeypatch.setattr(engine, "multipass", spy)
        monkeypatch.setattr(engine, "multipass_m61", vectorized)
        spec = fresh_spec(sub_rng(10, "t"), sc)
        expected = ep.expected_result(spec)
        _, reply = ep.handle_challenge(ChallengeMessage(1, spec))[1]
        assert calls == [spec, spec]
        assert FrameDecoder().feed(reply)[0].accumulator == expected.accumulator
        assert expected == multipass(MemoryImage(scan_words(ep.checkpoint)), spec)


def test_timed_response_ordering_enforced():
    from timecheck.protocol import TimedResponse

    with pytest.raises(ValueError):
        TimedResponse(ResponseMessage(1, 2, STATUS_OK), t_start_us=10, t_end_us=9)


def test_measurement_from_timed_session():
    from timecheck.protocol import TimedResponse, measurement_from_timed

    sc = desk_scenario()
    spec = fresh_spec(scenario=sc)
    timed = TimedResponse(ResponseMessage(1, 2, STATUS_NMI_RETRY), 100, 12488)
    m = measurement_from_timed(timed, trial_id=3, scenario=sc.name, spec=spec)
    assert m.duration_us == 12388 and m.nmi and m.spec_digest == spec.digest()
