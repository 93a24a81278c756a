"""Tests for framing, channels, hostile stubs, and session verification."""

import logging
import random
import socket
import struct
import threading
import time
import zlib
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
    read_frames,
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


def stub_device(script):
    """(host, port) of a device that accepts one connection, reads a challenge
    and runs script(conn, challenge); the thread ends within 10 s."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)

    def run():
        try:
            with listener, listener.accept()[0] as conn:
                _, challenge = next(read_frames(conn, 5.0))
                script(conn, challenge)
        except OSError:
            pass  # the verifier hung up, or never connected

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()


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

    @pytest.mark.parametrize("region, needle", [
        ("\ud800", "not UTF-8"), ("r" * 65536, "65536 bytes in UTF-8, over 65535"),
    ], ids=["lone-surrogate", "over-65535-bytes"])
    def test_challenge_refuses_a_region_the_frame_cannot_carry(self, region, needle):
        # these used to raise UnicodeEncodeError and struct.error
        spec = replace(fresh_spec(), region_id=region)
        with pytest.raises(ValueError, match=needle):
            encode_challenge(ChallengeMessage(1, spec))

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
        with pytest.raises(MalformedFrame, match="^1 trailing bytes in challenge body$"):
            decode_body(body)

    @pytest.mark.parametrize("region, cut", [("sram", 1), ("sram", 3), ("région", 5)],
                             ids=["minus-1", "minus-3", "inside-a-two-byte-character"])
    def test_decode_body_cut_inside_its_label_is_short(self, region, cut):
        # these used to read "trailing bytes" and "undecodable body"
        spec = replace(fresh_spec(), region_id=region)
        body = encode_challenge(ChallengeMessage(7, spec))[8:-4 - cut]
        with pytest.raises(MalformedFrame, match=f"^challenge body {cut} bytes short$"):
            decode_body(body)

    def test_out_of_field_seed(self):
        with pytest.raises(ValueError, match="outside"):
            RandomSeeds((13, 2), FieldParams(13, 5))
        spec = ChallengeSpec(seeds=RandomSeeds((1, 2), FieldParams(13, 5)),
                             perm_seed=1, passes=1)
        body = bytearray(encode_challenge(ChallengeMessage(7, spec))[8:-4])
        body[11:19] = (13).to_bytes(8, "little")  # r_0 = p: type, session id, k come first
        with pytest.raises(MalformedFrame, match="outside"):
            decode_body(bytes(body))


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


ENCODE = {ChallengeMessage: encode_challenge, ResponseMessage: encode_response,
          RestoredMessage: encode_restored}
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
        stream = b"".join(ENCODE[type(m)](m) for m in msgs)
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

    @settings(max_examples=50, deadline=None)
    @given(st.lists(messages, max_size=6), st.data())
    def test_read_frames_over_a_socket_in_any_chunking(self, msgs, data):
        # a peer writes the stream in arbitrary pieces and then closes: the
        # reader yields every message in order, with stamps that never decrease
        stream = b"".join(ENCODE[type(m)](m) for m in msgs)
        cuts = sorted(data.draw(st.sets(st.integers(0, len(stream)), max_size=12)))
        ours, peer = socket.socketpair()

        def write():
            with peer:
                for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
                    peer.sendall(stream[lo:hi])
                    time.sleep(0.001)  # most pieces arrive in reads of their own

        writer = threading.Thread(target=write)
        writer.start()
        with ours:
            got = list(read_frames(ours, 5.0))
        writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert [msg for _, msg in got] == msgs
        stamps = [arrival_us for arrival_us, _ in got]
        assert stamps == sorted(stamps)


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

    def test_loopback_stamps_never_decrease(self):
        # a device that answers at once (a priced delay clamped to 0): jitter
        # used to stamp its RESPONSE before the RESTORED ahead of it
        class InstantDevice:
            def handle_challenge(self, msg):
                return [(500, encode_restored(RestoredMessage(msg.session_id))),
                        (0, encode_response(ResponseMessage(msg.session_id, 0, STATUS_OK)))]

        jitter = 3.0
        chan = LoopbackChannel(InstantDevice(), jitter_us=jitter, jitter_seed=4)
        rng = sub_rng(4, "t")
        stamps, durations = [], []
        for session_id in range(100):
            spec = fresh_spec(rng)
            frame = encode_challenge(ChallengeMessage(session_id, spec))
            stamps += [t for t, _ in chan.request(frame)]
            durations.append(issue_challenge(chan, spec, rng=rng).duration_us)
        assert stamps == sorted(stamps)
        assert min(durations) == 0 and max(durations) <= 2 * jitter

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1.0])
    def test_jitter_must_be_finite_and_nonnegative(self, jitter):
        ep = DeviceEndpoint(desk_scenario(), master_seed=8)
        with pytest.raises(ValueError, match="jitter_us must be a finite number >= 0"):
            LoopbackChannel(ep, jitter_us=jitter)

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
                issue_challenge(ReplayChannel(status), fresh_spec(), rng=random.Random(5))

    def test_session_id_comes_from_the_seeded_rng(self):
        # no unseeded fallback: rng is required, and it alone draws the random
        # low half of the id; the high half is the process-wide counter
        sc = desk_scenario()
        spec = fresh_spec(random.Random(1), sc)
        with pytest.raises(TypeError):
            issue_challenge(LoopbackChannel(DeviceEndpoint(sc, master_seed=31)), spec)
        responses = [issue_challenge(LoopbackChannel(DeviceEndpoint(sc, master_seed=31),
                                                     jitter_us=0.0),
                                     spec, rng=random.Random(5)).response for _ in range(2)]
        low = random.Random(5).getrandbits(32)
        assert [r.session_id & 0xFFFFFFFF for r in responses] == [low, low]
        assert responses[0].session_id != responses[1].session_id
        assert responses[0].accumulator == responses[1].accumulator

    def test_refusal_is_a_reject_verdict(self):
        sc = desk_scenario()
        chan = LoopbackChannel(DeviceEndpoint(sc, master_seed=30), jitter_us=0.0)
        hostile = ChallengeSpec(seeds=RandomSeeds((1, 2), FieldParams(13, 5)),
                                perm_seed=1, passes=1, region_id=sc.region_id)
        timed = issue_challenge(chan, hostile, rng=random.Random(5))
        assert timed.response.status == STATUS_REFUSED and timed.response.accumulator == 0
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
        class StaleChannel:
            """An honest device whose responses carry the previous session's id."""

            def __init__(self, endpoint):
                self.inner = LoopbackChannel(endpoint, jitter_us=0.4, jitter_seed=16)
                self.last_id = None

            def request(self, challenge_frame):
                session_id = FrameDecoder().feed(challenge_frame)[0].session_id
                stale = session_id if self.last_id is None else self.last_id
                self.last_id = session_id
                return [(t, replace(reply, session_id=stale)
                         if isinstance(reply, ResponseMessage) else reply)
                        for t, reply in self.inner.request(challenge_frame)]

        chan = StaleChannel(DeviceEndpoint(self.sc, master_seed=15))
        first = fresh_spec(self.rng, self.sc)
        issue_challenge(chan, first, rng=self.rng)  # primes the stale id
        with pytest.raises(SessionMismatch):
            issue_challenge(chan, fresh_spec(self.rng, self.sc), rng=self.rng)

    def test_second_restored_is_malformed(self):
        class LateRestore(DeviceEndpoint):
            """Acknowledges the restore again just before it responds, to open
            the timed window where it chooses."""

            def handle_challenge(self, msg):
                restored, (delay_us, response) = super().handle_challenge(msg)
                return [restored, (delay_us - 1, restored[1]), (1, response)]

        chan = LoopbackChannel(LateRestore(self.sc, master_seed=19))
        with pytest.raises(MalformedFrame, match="second RESTORED"):
            issue_challenge(chan, fresh_spec(self.rng, self.sc), rng=self.rng)
        assert self._session(DeviceEndpoint(self.sc, master_seed=19)).outcome == "ACCEPT"

    def test_wrong_result_rejected_by_value(self):
        verdict = self._session(DeviceEndpoint(attack_scenario(self.sc, "corrupt"),
                                               master_seed=17))
        assert verdict.outcome == "REJECT" and "accumulator" in verdict.reason

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
        ep = DeviceEndpoint(attack_scenario(self.sc, "corrupt"), master_seed=20)
        verdict = self._session(ep)
        assert verdict.outcome == "REJECT"
        assert verdict.detector is None

    def test_attack_kinds_rejected(self):
        for kind in ("dram", "iomem", "mmc"):
            ep = DeviceEndpoint(attack_scenario(self.sc, kind), master_seed=21)
            verdict = self._session(ep)
            assert verdict.outcome == "REJECT" and "timing" in verdict.reason, kind

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

    def test_trickling_client_does_not_block_server(self, monkeypatch, caplog):
        # a client that sends one byte of a valid frame inside every read
        # timeout is dropped once its frame is CONN_TIMEOUT_S late, and the
        # serialized server goes on to the next client
        monkeypatch.setattr(protocol, "CONN_TIMEOUT_S", 0.3)
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=34)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        rng = sub_rng(13, "t")
        data = encode_challenge(ChallengeMessage(1, fresh_spec(rng, sc)))
        stop = threading.Event()
        sent = []

        def trickle(sock):
            try:
                for byte in data:
                    if stop.wait(0.1):
                        return
                    sock.sendall(bytes([byte]))
                    sent.append(byte)
            except OSError:
                pass  # the server closed the connection

        try:
            with socket.create_connection((host, port), timeout=5.0) as slow:
                trickler = threading.Thread(target=trickle, args=(slow,), daemon=True)
                trickler.start()
                time.sleep(0.15)  # the server is reading the trickle
                spec = fresh_spec(rng, sc)
                start = time.monotonic()
                with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                    timed = issue_challenge(TcpChannel(host, port, timeout_s=5.0), spec,
                                            rng=rng)
                waited = time.monotonic() - start
                stop.set()
                trickler.join(timeout=2.0)
            assert not trickler.is_alive()
            assert waited < 1.5, f"the second client waited {waited:.2f} s"
            assert 0 < len(sent) < len(data)
            assert "TimeoutError" in caplog.text
            assert timed.response.accumulator == ep.expected_result(spec).accumulator
        finally:
            stop.set()
            server.close()

    def test_client_of_many_cheap_sessions_does_not_block_server(self, monkeypatch, caplog):
        # a client that sends one complete, cheap challenge inside every read
        # timeout is dropped once its connection is CONN_BUDGET_S old, and the
        # serialized server goes on to the next client
        monkeypatch.setattr(protocol, "CONN_TIMEOUT_S", 0.3)
        monkeypatch.setattr(protocol, "CONN_BUDGET_S", 1.0)
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=37)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        rng = sub_rng(15, "t")
        frames = [encode_challenge(ChallengeMessage(i, fresh_spec(rng, sc))) for i in range(1, 41)]
        stop = threading.Event()
        answered = []

        def keep_busy(sock):
            decoder = FrameDecoder()
            try:
                for data in frames:
                    if stop.wait(0.2):
                        return
                    sock.sendall(data)
                    msgs = []
                    while not any(isinstance(m, ResponseMessage) for m in msgs):
                        chunk = sock.recv(4096)
                        if not chunk:
                            return  # the server closed the connection
                        msgs += decoder.feed(chunk)
                    answered.append(msgs[-1])
            except OSError:
                pass  # the server reset the connection

        try:
            with socket.create_connection((host, port), timeout=5.0) as busy:
                client = threading.Thread(target=keep_busy, args=(busy,), daemon=True)
                client.start()
                time.sleep(0.5)  # the server is serving the busy client
                spec = fresh_spec(rng, sc)
                start = time.monotonic()
                with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                    timed = issue_challenge(TcpChannel(host, port, timeout_s=3.0), spec,
                                            rng=rng)
                waited = time.monotonic() - start
                stop.set()
                client.join(timeout=2.0)
            assert not client.is_alive()
            assert waited < 2.0, f"the second client waited {waited:.2f} s"
            assert 2 <= len(answered) < len(frames)
            assert "TimeoutError" in caplog.text
            assert timed.response.accumulator == ep.expected_result(spec).accumulator
        finally:
            stop.set()
            server.close()

    def test_pipelined_frames_answered_in_order(self):
        # 50 challenges, every third one over budget, in one sendall
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=35)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        rng = sub_rng(14, "t")
        specs = {}
        for session_id in range(1, 51):
            spec = fresh_spec(rng, sc)
            if session_id % 6 == 3:
                spec = replace(spec, passes=(1 << 32) - 1)
            elif session_id % 6 == 0:
                spec = random_spec(sc.prime, 256, sc.passes, rng, sc.region_id)
            specs[session_id] = spec
        try:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(b"".join(encode_challenge(ChallengeMessage(i, spec))
                                      for i, spec in specs.items()))
                decoder = FrameDecoder()
                replies = []
                while sum(isinstance(m, ResponseMessage) for m in replies) < len(specs):
                    data = sock.recv(4096)
                    assert data, "device closed the connection"
                    replies.extend(decoder.feed(data))
        finally:
            server.close()
        want = []
        for session_id, spec in specs.items():
            if session_id % 3 == 0:
                want.append(ResponseMessage(session_id, 0, STATUS_REFUSED))
            else:
                want += [RestoredMessage(session_id),
                         ResponseMessage(session_id, ep.expected_result(spec).accumulator,
                                         STATUS_OK)]
        assert replies == want

    def test_huge_region_id_is_a_region_mismatch(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=36)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        rng = sub_rng(15, "t")
        huge = replace(fresh_spec(rng, sc), region_id="r" * 65535)
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                decoder = FrameDecoder()
                sock.sendall(encode_challenge(ChallengeMessage(1, huge)))
                assert read_through_response(sock, decoder) == [
                    ResponseMessage(1, 0, STATUS_REGION_MISMATCH)]
                spec = fresh_spec(rng, sc)
                sock.sendall(encode_challenge(ChallengeMessage(2, spec)))
                restored, response = read_through_response(sock, decoder)
            assert restored == RestoredMessage(2)
            assert response == ResponseMessage(2, ep.expected_result(spec).accumulator,
                                               STATUS_OK)
        finally:
            server.close()

    def test_region_not_utf8_drops_only_its_connection(self, caplog):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=37)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        rng = sub_rng(16, "t")
        good = encode_challenge(ChallengeMessage(1, fresh_spec(rng, sc)))
        region = sc.region_id.encode()
        body = good[8:-4 - len(region)] + b"\xff" * len(region)
        hostile = good[:8] + body + zlib.crc32(body).to_bytes(4, "little")
        try:
            with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                with socket.create_connection((host, port), timeout=5.0) as sock:
                    sock.sendall(hostile)
                    assert sock.recv(1) == b""  # dropped, with no reply
                spec = fresh_spec(rng, sc)
                timed = issue_challenge(TcpChannel(host, port, timeout_s=5.0), spec, rng=rng)
            assert "MalformedFrame: undecodable body" in caplog.text
            assert timed.response.accumulator == ep.expected_result(spec).accumulator
        finally:
            server.close()

    def test_non_challenge_frame_is_logged_and_skipped(self, caplog):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=38)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        host, port = server.getsockname()
        spec = fresh_spec(sub_rng(17, "t"), sc)
        try:
            with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                with socket.create_connection((host, port), timeout=5.0) as sock:
                    sock.sendall(encode_restored(RestoredMessage(0xABC))
                                 + encode_challenge(ChallengeMessage(2, spec)))
                    restored, response = read_through_response(sock, FrameDecoder())
            assert "skipped a RestoredMessage frame of session 0xabc" in caplog.text
            assert restored == RestoredMessage(2)
            assert response == ResponseMessage(2, ep.expected_result(spec).accumulator,
                                               STATUS_OK)
        finally:
            server.close()

    def test_closing_the_socket_stops_the_server(self):
        ep = DeviceEndpoint(desk_scenario(), master_seed=32)
        server, thread = serve_device(ep, port=0, time_scale=0.0)
        server.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), -0.5])
    def test_time_scale_must_be_finite_and_nonnegative(self, scale):
        # refused before a server thread starts: inf used to drop every session
        ep = DeviceEndpoint(desk_scenario(), master_seed=32)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="time_scale must be a finite number >= 0"):
            serve_device(ep, port=0, time_scale=scale)
        assert set(threading.enumerate()) <= before

    def test_response_is_timed_at_the_read_that_completes_it(self):
        # a RESPONSE's first 17 bytes (magic, length, type, session id) are
        # known before the scan ends: sent at once, they must not stop the clock
        def split_response(conn, challenge):
            sid = challenge.session_id
            conn.sendall(encode_restored(RestoredMessage(sid)))
            response = encode_response(ResponseMessage(sid, 0, STATUS_OK))
            conn.sendall(response[:17])
            time.sleep(0.3)
            conn.sendall(response[17:])

        host, port = stub_device(split_response)
        rng = sub_rng(18, "t")
        timed = issue_challenge(TcpChannel(host, port, timeout_s=5.0), fresh_spec(rng), rng=rng)
        assert timed.duration_us >= 300_000

    def test_response_without_restored_is_malformed_at_once(self):
        def early_response(conn, challenge):
            conn.sendall(encode_response(ResponseMessage(challenge.session_id, 0, STATUS_OK)))
            conn.recv(1)  # hold the connection until the verifier hangs up

        host, port = stub_device(early_response)
        rng = sub_rng(19, "t")
        start = time.monotonic()
        with pytest.raises(MalformedFrame, match="before RESTORED"):
            issue_challenge(TcpChannel(host, port, timeout_s=5.0), fresh_spec(rng), rng=rng)
        assert time.monotonic() - start < 1.0

    def test_second_restored_is_malformed_at_once(self):
        def restored_twice(conn, challenge):
            conn.sendall(encode_restored(RestoredMessage(challenge.session_id)) * 2)
            conn.recv(1)

        host, port = stub_device(restored_twice)
        rng = sub_rng(20, "t")
        start = time.monotonic()
        with pytest.raises(MalformedFrame, match="second RESTORED"):
            issue_challenge(TcpChannel(host, port, timeout_s=5.0), fresh_spec(rng), rng=rng)
        assert time.monotonic() - start < 1.0

    def test_trickled_frame_times_out(self):
        # each byte comes well inside the read timeout, so only a deadline on
        # the whole frame stops a device from holding the verifier
        def trickle(conn, challenge):
            conn.sendall(protocol.MAGIC + struct.pack("<I", protocol.MAX_FRAME_BODY))
            for _ in range(30):
                time.sleep(0.1)
                conn.sendall(b"\0")

        host, port = stub_device(trickle)
        rng = sub_rng(21, "t")
        start = time.monotonic()
        with pytest.raises(ChannelTimeout) as caught:
            issue_challenge(TcpChannel(host, port, timeout_s=0.3), fresh_spec(rng), rng=rng)
        assert time.monotonic() - start < 1.0
        message = str(caught.value)
        assert f"{host}:{port}" in message and "frame incomplete 0.3 s" in message
        assert "cannot reach" not in message

    def test_unreachable_target(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        chan = TcpChannel("127.0.0.1", dead_port, timeout_s=0.5)
        with pytest.raises(ChannelTimeout):
            chan.request(encode_challenge(ChallengeMessage(1, fresh_spec())))


class TestServedPacing:
    """serve_device releases each reply no earlier than its modeled schedule."""

    @staticmethod
    def gaps(monkeypatch, sessions, time_scale=1.0):
        """(released gap, modeled delay) in us of each desk-small session over
        TCP: the gap between the instants the server released RESTORED and
        RESPONSE, and the RESPONSE delay a twin endpoint on its seed prices.

        The bound is on the server's release instants: the verifier's own
        stamps also carry its wake-up lag, which on a busy host puts a few in
        a hundred measured durations below the modeled delay."""
        released = []
        wait_until = protocol._wait_until

        def recorded(due_ns):
            wait_until(due_ns)
            released.append(time.monotonic_ns())

        monkeypatch.setattr(protocol, "_wait_until", recorded)
        sc = desk_scenario()
        server, _ = serve_device(DeviceEndpoint(sc, master_seed=41), port=0,
                                 time_scale=time_scale)
        twin = DeviceEndpoint(sc, master_seed=41)
        chan = TcpChannel(*server.getsockname(), timeout_s=5.0)
        rng = sub_rng(41, "t")
        out = []
        try:
            for _ in range(sessions):
                spec = fresh_spec(rng, sc)
                issue_challenge(chan, spec, rng=rng)
                modeled, _ = twin.handle_challenge(ChallengeMessage(1, spec))[-1]
                out.append(modeled)
        finally:
            server.close()
        return [((resp - rest) / 1000, modeled) for rest, resp, modeled
                in zip(released[::2], released[1::2], out)]

    def test_no_reply_comes_before_its_modeled_delay(self, monkeypatch):
        gaps = self.gaps(monkeypatch, 20)
        assert len(gaps) == 20
        assert all(gap >= modeled for gap, modeled in gaps), gaps

    def test_slow_scan_does_not_shorten_the_timed_window(self, monkeypatch):
        # restore and scan overrun RESTORE_US, so RESTORED goes out late; the
        # RESPONSE is paced from then, not from the CHALLENGE's arrival
        evaluate = protocol.evaluate

        def slow(words, spec):
            time.sleep(2 * protocol.RESTORE_US / 1e6)
            return evaluate(words, spec)

        monkeypatch.setattr(protocol, "evaluate", slow)
        gaps = self.gaps(monkeypatch, 10)
        assert len(gaps) == 10
        assert all(gap >= modeled for gap, modeled in gaps), gaps

    def test_time_scale_zero_answers_without_waiting(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(protocol.time, "sleep", sleeps.append)
        assert self.gaps(monkeypatch, 5, time_scale=0.0) == []  # never waited
        assert sleeps == []


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
        assert durations[0] == round(sc.base_cost_us(sc.passes))


class TestSharedSnapshot:
    def test_endpoints_share_one_snapshot(self):
        sc = desk_scenario()
        a = DeviceEndpoint(sc, master_seed=1)
        b = DeviceEndpoint(attack_scenario(sc, "dram"), master_seed=2)
        assert a.checkpoint is b.checkpoint
        assert not np.shares_memory(a.words, b.words)
        assert not np.shares_memory(a.words, a.checkpoint.words)
        assert a.words.flags.writeable and a.words.dtype == np.uint64
        assert a.checkpoint.words.dtype == np.uint64
        assert a.checkpoint.words.tolist() == scan_words(a.checkpoint)

    def test_scan_array_is_read_only(self):
        ep = DeviceEndpoint(desk_scenario(), master_seed=3)
        scan = ep.checkpoint.words
        assert scan.flags.writeable is False
        with pytest.raises(ValueError):
            scan[0] = 1
        with pytest.raises(ValueError):
            scan.flags.writeable = True

    def test_verifier_endpoint_holds_no_device_memory(self):
        sc = desk_scenario()
        verifier = DeviceEndpoint(sc, master_seed=7)
        spec = fresh_spec(sub_rng(7, "t"), sc)
        verifier.expected_result(spec)
        assert "words" not in vars(verifier)
        device = DeviceEndpoint(sc, master_seed=7)
        device.handle_challenge(ChallengeMessage(1, spec))
        assert vars(device)["words"].base is None  # its own copy, made when it served

    def test_replay_leaves_snapshot_untouched(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=4)
        other = DeviceEndpoint(sc, master_seed=5)
        cp = ep.checkpoint
        recorded = scan_words(cp)
        ep.words[0] ^= 1
        ep.words[-1] ^= 1
        assert ep.words[0] != cp.words[0]
        checkpoint_replay(cp, ep.words)
        assert ep.words.tolist() == recorded
        assert scan_words(cp) == recorded
        spec = fresh_spec(sub_rng(9, "t"), sc)
        assert ep.expected_result(spec) == other.expected_result(spec)

    def test_device_scans_the_state_it_restored(self, monkeypatch, desk_profile):
        sc, profile = desk_profile

        def session(ep, spec):
            chan = LoopbackChannel(ep, jitter_us=0.4, jitter_seed=13)
            timed = issue_challenge(chan, spec, rng=random.Random(2))
            return timed, verify_response(ep.expected_result(spec), timed, profile)

        ep = DeviceEndpoint(sc, master_seed=19)
        spec = fresh_spec(sub_rng(5, "sessions"), sc)
        ep.words[7] ^= 1 << 63
        timed, verdict = session(ep, spec)  # replay undoes the flip
        assert timed.response.accumulator == ep.expected_result(spec).accumulator
        assert verdict.outcome == "ACCEPT"

        monkeypatch.setattr(protocol, "checkpoint_replay", lambda cp, words: words)
        ep.words[7] ^= 1 << 63
        timed, verdict = session(ep, spec)
        assert timed.response.accumulator != ep.expected_result(spec).accumulator
        assert verdict.outcome == "REJECT" and "accumulator" in verdict.reason

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
        engine._memo.clear()  # an earlier test may have evaluated this challenge
        spec = fresh_spec(sub_rng(10, "t"), sc)
        expected = ep.expected_result(spec)
        _, reply = ep.handle_challenge(ChallengeMessage(1, spec))[1]
        assert calls == [spec]  # the replayed device's scan is the verifier's
        assert FrameDecoder().feed(reply)[0].accumulator == expected.accumulator
        assert expected == multipass(MemoryImage(scan_words(ep.checkpoint)), spec)

        # a device that skips the replay scans its tampered state afresh
        monkeypatch.setattr(protocol, "checkpoint_replay", lambda cp, words: words)
        ep.words[7] ^= 1 << 63
        _, reply = ep.handle_challenge(ChallengeMessage(2, spec))[1]
        assert calls == [spec, spec]
        tampered = MemoryImage(ep.words.tolist())
        assert FrameDecoder().feed(reply)[0].accumulator == multipass(tampered, spec).accumulator
        assert multipass(tampered, spec) != expected


def test_timed_response_ordering_enforced():
    from timecheck.protocol import TimedResponse

    with pytest.raises(ValueError):
        TimedResponse(ResponseMessage(1, 2, STATUS_OK), t_start_us=10, t_end_us=9)


def _loopback(sc, seed):
    return LoopbackChannel(DeviceEndpoint(sc, master_seed=seed), jitter_seed=seed)


def test_calibration_session_draws_spec_then_session_id():
    # one generator as both streams: the spec's draws, then the session id's
    sc = desk_scenario()
    rng = random.Random(0xCA1)
    session = protocol.run_session(_loopback(sc, 5), sc, rng, rng)
    manual_rng = random.Random(0xCA1)
    spec = fresh_spec(manual_rng, sc)
    timed = issue_challenge(_loopback(sc, 5), spec, rng=manual_rng)
    assert session.verdict is None and not session.spoiled and session.refusal is None
    assert session.spec_digest == spec.digest()
    got = session.timed
    # the random low half of the session id; a process-wide counter fills the high half
    assert got.response.session_id & 0xFFFFFFFF == timed.response.session_id & 0xFFFFFFFF
    assert got.response.accumulator == timed.response.accumulator
    assert (got.t_start_us, got.t_end_us) == (timed.t_start_us, timed.t_end_us)
    assert rng.getstate() == manual_rng.getstate()


def test_judged_session_calls_the_protocol_functions_once(monkeypatch):
    # through the module globals, so wrappers around them see every session
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("issue_challenge", "verify_response"):
        monkeypatch.setattr(protocol, name, counted(name, getattr(protocol, name)))
    monkeypatch.setattr(DeviceEndpoint, "expected_result",
                        counted("expected_result", DeviceEndpoint.expected_result))
    sc = desk_scenario()
    profile = stats.calibrate([12_000.0 + i for i in range(30)])
    session = protocol.run_session(_loopback(sc, 6), sc, random.Random(1), random.Random(2),
                                   DeviceEndpoint(sc), profile, "zscore")
    assert calls == ["expected_result", "issue_challenge", "verify_response"]
    assert session.verdict.detector.method == "zscore"


def test_spoiled_session_is_retried_not_judged():
    sc = desk_scenario()
    spiky = replace(sc, noise=replace(sc.noise, nmi_prob=1.0, nmi_us=50_000.0))
    profile = stats.calibrate([12_000.0 + i for i in range(30)])
    calibration = protocol.run_session(_loopback(spiky, 7), sc, random.Random(3),
                                       random.Random(4))
    judged = protocol.run_session(_loopback(spiky, 7), sc, random.Random(3),
                                  random.Random(4), DeviceEndpoint(sc), profile)
    for session in (calibration, judged):
        assert session.spoiled and session.timed.duration_us > 50_000
    assert calibration.verdict is None
    assert judged.verdict.outcome == "RETRY" and judged.verdict.detector is None
