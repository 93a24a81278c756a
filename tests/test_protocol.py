"""Tests for framing, channels, hostile stubs, and session verification."""

import errno
import gc
import hashlib
import itertools
import logging
import random
import re
import socket
import struct
import threading
import time
import warnings
import zlib
from contextlib import ExitStack, contextmanager, suppress
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


@contextmanager
def stub_device(script):
    """(host, port) of a device, for one with block, that accepts one connection,
    reads a challenge and runs script(conn, challenge). Leaving the block connects
    and hangs up once, which ends a device still waiting for its connection, and
    joins the device's thread."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def run():
            # OSError: the verifier hung up; StopIteration: a connection closed before
            # sending its challenge, as the one made on leaving the block does
            with suppress(OSError, StopIteration), listener.accept()[0] as conn:
                _, challenge = next(read_frames(conn, 5.0))
                script(conn, challenge)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            yield listener.getsockname()
        finally:
            socket.create_connection(listener.getsockname()).close()
            thread.join(timeout=10.0)


class TestFraming:
    @pytest.mark.parametrize("region, needle", [
        ("\ud800", "not UTF-8"), ("r" * 65536, "65536 bytes in UTF-8, over 65535"),
    ], ids=["lone-surrogate", "over-65535-bytes"])
    def test_challenge_refuses_a_region_the_frame_cannot_carry(self, region, needle):
        # these used to raise UnicodeEncodeError and struct.error
        spec = replace(fresh_spec(), region_id=region)
        with pytest.raises(ValueError, match=needle):
            encode_challenge(ChallengeMessage(1, spec))

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
        # and RESTORED (9 bytes) and RESPONSE (18 bytes) bodies a byte short or long
        challenge = encode_challenge(ChallengeMessage(7, fresh_spec()))[8:-4]
        restored = encode_restored(RestoredMessage(7))[8:-4]
        response = encode_response(ResponseMessage(7, 2, STATUS_OK))[8:-4]
        for body, message in ((challenge + b"\x00", "1 trailing bytes in challenge body"),
                              (restored[:-1], "bad RESTORED length"),
                              (restored + b"\x00", "bad RESTORED length"),
                              (response[:-1], "bad RESPONSE length"),
                              (response + b"\x00", "bad RESPONSE length")):
            with pytest.raises(MalformedFrame, match=f"^{message}$"):
                decode_body(body)

    @pytest.mark.parametrize("region, cut, message", [
        ("sram", 1, "challenge body 1 bytes short"),
        ("sram", 3, "challenge body 3 bytes short"),
        ("région", 5, "challenge body 5 bytes short"),
        # k = 2: 57 bytes before the label, and a k-less body needs k = 1's 49
        ("sram", 5, "challenge body of 56 bytes, at least 57 needed"),
        ("sram", 14, "challenge body of 47 bytes, at least 57 needed"),
        ("sram", 58, "challenge body of 3 bytes, at least 49 needed"),
    ], ids=["minus-1", "minus-3", "inside-a-two-byte-character", "minus-5", "minus-14",
            "three-bytes"])
    def test_decode_body_cut_inside_its_label_is_short(self, region, cut, message):
        # these used to read "trailing bytes", "undecodable body" and
        # struct's "unpack_from requires a buffer of at least ..."
        spec = replace(fresh_spec(), region_id=region)
        body = encode_challenge(ChallengeMessage(7, spec))[8:-4 - cut]
        with pytest.raises(MalformedFrame, match=f"^{message}$"):
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

    @settings(max_examples=40, deadline=None)
    @given(challenge_messages(k=st.integers(1, 70)))
    def test_every_cut_of_a_challenge_body_names_its_shortfall(self, msg):
        # the layout, stated apart from the codec: 11 bytes of type, session id
        # and k, 8 per seed, 30 of x, p, perm seed, passes and label length,
        # then the label; k is 1 until it is read
        body = encode_challenge(msg)[8:-4]
        for n in range(1, len(body)):
            needed = 11 + 8 * (msg.spec.seeds.k if n >= 11 else 1) + 30
            message = (f"challenge body {len(body) - n} bytes short" if n >= needed
                       else f"challenge body of {n} bytes, at least {needed} needed")
            with pytest.raises(MalformedFrame, match=f"^{message}$"):
                decode_body(body[:n])


def pinned_challenge(k, region):
    """A fixed CHALLENGE of k seeds; its perm seed is negative, so the frame
    carries it masked to 64 bits."""
    seeds = RandomSeeds([(i + 1) * 0x9E3779B97F4A7C15 % M61 for i in range(k)],
                        FieldParams(M61, 0x1D2C3B4A5968778))
    spec = ChallengeSpec(seeds=seeds, perm_seed=-0x5A5A5A5A, passes=500, region_id=region)
    return ChallengeMessage(0x0123456789ABCDEF, spec)


RESPONSES = {status: ResponseMessage(0xFEDCBA9876543210, 0x1122334455667788, status)
             for status in (STATUS_OK, STATUS_NMI_RETRY, STATUS_REGION_MISMATCH, STATUS_REFUSED)}


# SHA-256 of fixed frames as the codec wrote them before its layouts were
# declared once: a round trip cannot see an encoder and a decoder that change
# together.
@pytest.mark.parametrize("msg, sha256", [
    (pinned_challenge(1, "sram"),
     "2ed9bf29c4a6924689484d1d8df39a75b2960dd22680952f7a3d53eb712bd514"),
    (pinned_challenge(4, "région"),
     "966e19418d2390da7697dc7256695447144b185e03d8c0775bdc24e79db4a91d"),
    (pinned_challenge(64, ""),
     "22c8ad674df06cde12028e48b2fb622a4c04e7a20374c3c3328656f6b8f084b6"),
    (RestoredMessage(0xFEDCBA9876543210),
     "831f2252762a725639d06f0c713ffb8f30b11ed79c5cf439d9e1c8868c9b9bef"),
    (RESPONSES[STATUS_OK],
     "5a94b302a86d18d36cf785e2fbaa641367aa01e4213b1a8b01f985dc09f89d5d"),
    (RESPONSES[STATUS_NMI_RETRY],
     "ce72b7b8fcb4d9ebf3cc467267920969e10b8b773f276a7a230bf648697ece6a"),
    (RESPONSES[STATUS_REGION_MISMATCH],
     "e29ad3504ddbee4a5bca4abc2c741c8be1a6869647bd2bd38c8900aad1f046f4"),
    (RESPONSES[STATUS_REFUSED],
     "79ae739a7cfa755bc9c327e1194539be28af34f536e2100ef2cb104f689cd6c3"),
], ids=["challenge-k1-sram", "challenge-k4-region-accented", "challenge-k64-no-label",
        "restored", "response-ok", "response-nmi-retry", "response-region-mismatch",
        "response-refused"])
def test_wire_bytes_are_pinned(msg, sha256):
    assert hashlib.sha256(ENCODE[type(msg)](msg)).hexdigest() == sha256


class TestSessionIds:
    def test_equal_streams_send_identical_challenge_frames(self):
        # no unseeded fallback and no process-wide state: rng is required, and
        # the id is its next getrandbits(32) after the spec, so equal streams
        # send equal bytes whatever sessions ran before in the process
        sc = desk_scenario()
        with pytest.raises(TypeError):
            issue_challenge(LoopbackChannel(DeviceEndpoint(sc, master_seed=31)),
                            fresh_spec(random.Random(1), sc))

        class Recording(LoopbackChannel):
            @contextmanager
            def session(self):
                with super().session() as (send, replies):
                    yield (lambda frame: self.sent.append(frame) or send(frame)), replies

        def sent_frames(seed):
            rng = random.Random(seed)
            spec = fresh_spec(rng, sc)
            chan = Recording(DeviceEndpoint(sc, master_seed=31))
            chan.sent = []
            timed = issue_challenge(chan, spec, rng=rng)
            assert timed.response.session_id == FrameDecoder().feed(chan.sent[0])[0].session_id
            return spec, chan.sent

        spec, first = sent_frames(5)
        sent_frames(6)  # another session between two equal streams
        assert sent_frames(5)[1] == first and len(first) == 1
        rng = random.Random(5)
        fresh_spec(rng, sc)
        assert FrameDecoder().feed(first[0]) == [ChallengeMessage(rng.getrandbits(32), spec)]

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
        chan = LoopbackChannel(ep)
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
            with chan.session() as (send, replies):
                send(frame)
                stamps += [t for t, _ in replies()]
            durations.append(issue_challenge(chan, spec, rng=rng).duration_us)
        assert stamps == sorted(stamps)
        assert min(durations) == 0 and max(durations) <= 2 * jitter

    @pytest.mark.parametrize("jitter", [0.0, 0.4])
    def test_stamps_stay_exact_past_2_53_us(self, jitter):
        # a float clock rounded every stamp past 2^53 us: this one read 12,288
        class LateDevice:
            def handle_challenge(self, msg):
                return [(1 << 60, encode_restored(RestoredMessage(msg.session_id))),
                        (12_345, encode_response(ResponseMessage(msg.session_id, 0, STATUS_OK)))]

        rng = sub_rng(5, "t")
        chan = LoopbackChannel(LateDevice(), jitter_us=jitter, jitter_seed=6)
        assert issue_challenge(chan, fresh_spec(rng), rng=rng).duration_us == 12_345

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1.0])
    def test_jitter_must_be_finite_and_nonnegative(self, jitter):
        ep = DeviceEndpoint(desk_scenario(), master_seed=8)
        with pytest.raises(ValueError, match="jitter_us must be a finite number >= 0"):
            LoopbackChannel(ep, jitter_us=jitter)

    def test_region_mismatch_status(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=10)
        chan = LoopbackChannel(ep)
        rng = sub_rng(3, "t")
        spec = random_spec(sc.prime, sc.k, sc.passes, rng, region_id="full")
        timed = issue_challenge(chan, spec, rng=rng)
        assert timed.response.status == STATUS_REGION_MISMATCH

    def test_region_mismatch_for_another_session_rejected(self):
        # a stale or forged refusal must not become this session's verdict
        class ReplayChannel:
            def __init__(self, status):
                self.status = status

            @contextmanager
            def session(self):
                yield (lambda frame: 0), lambda: iter([(100, ResponseMessage(0xBAD, 0, self.status))])

        for status in (STATUS_REGION_MISMATCH, STATUS_REFUSED):
            with pytest.raises(SessionMismatch):
                issue_challenge(ReplayChannel(status), fresh_spec(), rng=random.Random(5))

    def test_refusal_is_a_reject_verdict(self):
        sc = desk_scenario()
        chan = LoopbackChannel(DeviceEndpoint(sc, master_seed=30))
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
    cal = LoopbackChannel(DeviceEndpoint(sc, master_seed=11))
    durations = [issue_challenge(cal, fresh_spec(rng, sc), rng=rng).duration_us
                 for _ in range(40)]
    return sc, stats.calibrate(durations)


class TestHostileStubs:
    @pytest.fixture(autouse=True)
    def _setup(self, desk_profile):
        self.sc, self.profile = desk_profile
        self.rng = sub_rng(5, "sessions")

    def _session(self, endpoint):
        chan = LoopbackChannel(endpoint)
        spec = fresh_spec(self.rng, self.sc)
        timed = issue_challenge(chan, spec, rng=self.rng)
        honest = DeviceEndpoint(self.sc, master_seed=14)
        return verify_response(honest.expected_result(spec), timed, self.profile)

    def test_stale_session_replay_detected(self):
        class StaleChannel:
            """An honest device whose responses carry the previous session's id."""

            def __init__(self, endpoint):
                self.inner = LoopbackChannel(endpoint)
                self.last_id = None

            @contextmanager
            def session(self):
                with self.inner.session() as (send, replies):
                    def stale_send(frame):
                        session_id = FrameDecoder().feed(frame)[0].session_id
                        self.stale = session_id if self.last_id is None else self.last_id
                        self.last_id = session_id
                        return send(frame)

                    yield stale_send, lambda: ((t, replace(reply, session_id=self.stale)
                                                if isinstance(reply, ResponseMessage) else reply)
                                               for t, reply in replies())

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

    def test_unknown_status_rejected(self):
        # the right accumulator at a normal time, under a status the protocol
        # does not define: the decoder passes any u8 through
        ep = DeviceEndpoint(self.sc, master_seed=19)
        chan = LoopbackChannel(ep)
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
        assert verdict.outcome == "REJECT" and "accumulator" in verdict.reason
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
        chan = LoopbackChannel(ep)
        spec = fresh_spec(self.rng, self.sc)
        timed = issue_challenge(chan, spec, rng=self.rng)
        honest = DeviceEndpoint(self.sc, master_seed=24)
        verdict = verify_response(honest.expected_result(spec), timed, self.profile)
        assert verdict.outcome == "RETRY"


class TestTcpTransport:
    def test_round_trip_over_sockets(self):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=25)
        with serve_device(ep, port=0, time_scale=0.0) as server:
            chan = TcpChannel(*server.getsockname(), timeout_s=5.0)
            rng = sub_rng(5, "t")
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(chan, spec, rng=rng)
        assert timed.response.status == STATUS_OK
        honest = DeviceEndpoint(sc, master_seed=26)
        assert timed.response.accumulator == honest.expected_result(spec).accumulator

    def test_round_trip_over_ipv6(self):
        # a host holding a colon is served over IPv6 and named in brackets
        sc = desk_scenario()
        with serve_device(DeviceEndpoint(sc, master_seed=25), "::1", 0, time_scale=0.0) as server:
            host, port = server.getsockname()[:2]
            assert (server.family, host) == (socket.AF_INET6, "::1")
            chan = TcpChannel("::1", port, timeout_s=5.0)
            assert str(chan) == f"[::1]:{port}"
            rng = sub_rng(5, "t")
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(chan, spec, rng=rng)
        assert timed.response.status == STATUS_OK
        expected = DeviceEndpoint(sc).expected_result(spec)
        assert timed.response.accumulator == expected.accumulator

    def test_channel_names_its_target(self):
        # the host:port of tcp_target's form: an IPv4 name is as it always was
        assert str(TcpChannel("127.0.0.1", 9000)) == "127.0.0.1:9000"
        assert str(TcpChannel("localhost", 9000)) == "localhost:9000"
        assert str(TcpChannel("::1", 9000)) == "[::1]:9000"
        for host in ("127.0.0.1", "localhost", "::1", "fe80::1%eth0"):
            target = protocol.tcp_target(host, 9000)
            assert target == f"tcp://{TcpChannel(host, 9000)}"
            assert protocol.tcp_address(target) == (host, 9000)
        # and only what it writes: no other spelling of a port, host or scheme
        for target in ("tcp://h:09000", "tcp://h\t:9000", "tcp://h:9000\n", "TCP://h:9000",
                       "tcp://[h]:9000", "tcp://[::1]x:9000", "tcp://[::1]", "tcp://h:9000#x"):
            assert protocol.tcp_address(target) is None, target

    def test_server_survives_spec_out_of_field(self, caplog):
        # p=13 cannot index 2,048 words: the device refuses this challenge at
        # once, logs why, and answers a good challenge on the same connection
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=27)
        with (serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=5.0) as sock):
            decoder = FrameDecoder()
            hostile = ChallengeSpec(seeds=RandomSeeds((1, 2), FieldParams(13, 5)),
                                    perm_seed=1, passes=1, region_id=sc.region_id)
            with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                sock.sendall(encode_challenge(ChallengeMessage(7, hostile)))
                refused = read_through_response(sock, decoder)
            assert refused == [ResponseMessage(7, 0, STATUS_REFUSED)]
            assert "SpecOutOfField" in caplog.text
            spec = fresh_spec(sub_rng(6, "t"), sc)
            sock.sendall(encode_challenge(ChallengeMessage(8, spec)))
            restored, response = read_through_response(sock, decoder)
        assert restored == RestoredMessage(8)
        assert response.session_id == 8 and response.status == STATUS_OK
        honest = DeviceEndpoint(sc, master_seed=28)
        assert response.accumulator == honest.expected_result(spec).accumulator

    def test_server_refuses_oversized_challenges(self, caplog):
        # passes = 2^32-1 would allocate hundreds of GiB and k = 256 would take
        # about a minute of setup: both are refused before replay, at once, and
        # the same connection then serves a good challenge
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=30)
        rng = sub_rng(10, "t")
        hostile = {1: replace(fresh_spec(rng, sc), passes=(1 << 32) - 1),
                   2: random_spec(sc.prime, 256, sc.passes, rng, sc.region_id)}
        with (serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=5.0) as sock):
            decoder = FrameDecoder()
            for session_id, spec in hostile.items():
                start = time.monotonic()
                with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                    sock.sendall(encode_challenge(ChallengeMessage(session_id, spec)))
                    refused = read_through_response(sock, decoder)
                assert time.monotonic() - start < 1.0
                assert refused == [ResponseMessage(session_id, 0, STATUS_REFUSED)]
                assert f"session {session_id:#x}: k=" in caplog.text
            spec = fresh_spec(rng, sc)
            sock.sendall(encode_challenge(ChallengeMessage(3, spec)))
            restored, response = read_through_response(sock, decoder)
        assert restored == RestoredMessage(3)
        assert response.status == STATUS_OK
        assert response.accumulator == ep.expected_result(spec).accumulator

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
        rng = sub_rng(12, "t")
        with serve_device(ep, port=0, time_scale=0.0) as server:
            chan = TcpChannel(*server.getsockname(), timeout_s=5.0)
            with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                with pytest.raises(ChannelTimeout):
                    issue_challenge(chan, fresh_spec(rng, sc), rng=rng)
            assert "RuntimeError: injected defect" in caplog.text  # with its traceback
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(chan, spec, rng=rng)
        assert timed.response.accumulator == ep.expected_result(spec).accumulator

    def test_accept_error_is_logged_and_the_server_keeps_listening(self, monkeypatch, caplog):
        # Linux accept(2) passes a new connection's pending network error on, to be
        # retried; this one used to end the server thread, and the next session then
        # timed out in the listener's backlog
        accept, errors = socket.socket.accept, [OSError(errno.EPROTO, "Protocol error")]

        def fails_once(listener):
            if errors:
                raise errors.pop()
            return accept(listener)

        monkeypatch.setattr(socket.socket, "accept", fails_once)
        rng = sub_rng(48, "t")
        spec = fresh_spec(rng)
        with (caplog.at_level(logging.WARNING, logger="timecheck.protocol"),
              desk_channel("tcp", 48) as (chan, endpoint)):
            timed = issue_challenge(chan, spec, rng=rng)
        assert timed.response.accumulator == endpoint.expected_result(spec).accumulator
        assert f"accept failed: OSError: [Errno {errno.EPROTO}] Protocol error" in caplog.text

    def test_idle_client_does_not_block_server(self, monkeypatch, caplog):
        # an accepted connection that never sends is dropped after the read
        # timeout, and the serialized server goes on to the next client
        monkeypatch.setattr(protocol, "CONN_TIMEOUT_S", 0.2)
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=29)
        rng = sub_rng(8, "t")
        spec = fresh_spec(rng, sc)
        with (serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=5.0) as idle):
            with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                timed = issue_challenge(TcpChannel(*server.getsockname(), timeout_s=5.0), spec,
                                        rng=rng)
            assert "TimeoutError" in caplog.text
            assert idle.recv(1) == b""  # the server closed the idle connection
        assert timed.response.status == STATUS_OK
        assert timed.response.accumulator == ep.expected_result(spec).accumulator

    def test_trickling_client_does_not_block_server(self, monkeypatch, caplog):
        # a client that sends one byte of a valid frame inside every read
        # timeout is dropped once its frame is CONN_TIMEOUT_S late, and the
        # serialized server goes on to the next client
        monkeypatch.setattr(protocol, "CONN_TIMEOUT_S", 0.3)
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=34)
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

        with (serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=5.0) as slow):
            trickler = threading.Thread(target=trickle, args=(slow,), daemon=True)
            trickler.start()
            try:
                time.sleep(0.15)  # the server is reading the trickle
                spec = fresh_spec(rng, sc)
                start = time.monotonic()
                with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                    timed = issue_challenge(TcpChannel(*server.getsockname(), timeout_s=5.0),
                                            spec, rng=rng)
                waited = time.monotonic() - start
            finally:
                stop.set()
                trickler.join(timeout=2.0)
        assert waited < 1.5, f"the second client waited {waited:.2f} s"
        assert 0 < len(sent) < len(data)
        assert "TimeoutError" in caplog.text
        assert timed.response.accumulator == ep.expected_result(spec).accumulator

    def test_client_of_many_cheap_sessions_does_not_block_server(self, monkeypatch, caplog):
        # a client that sends one complete, cheap challenge inside every read
        # timeout is dropped once its connection is CONN_BUDGET_S old, and the
        # serialized server goes on to the next client
        monkeypatch.setattr(protocol, "CONN_TIMEOUT_S", 0.3)
        monkeypatch.setattr(protocol, "CONN_BUDGET_S", 1.0)
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=37)
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

        with (serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=5.0) as busy):
            client = threading.Thread(target=keep_busy, args=(busy,), daemon=True)
            client.start()
            try:
                time.sleep(0.5)  # the server is serving the busy client
                spec = fresh_spec(rng, sc)
                start = time.monotonic()
                with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
                    timed = issue_challenge(TcpChannel(*server.getsockname(), timeout_s=3.0),
                                            spec, rng=rng)
                waited = time.monotonic() - start
            finally:
                stop.set()
                client.join(timeout=2.0)
        assert waited < 2.0, f"the second client waited {waited:.2f} s"
        assert 2 <= len(answered) < len(frames)
        assert "TimeoutError" in caplog.text
        assert timed.response.accumulator == ep.expected_result(spec).accumulator

    def test_pipelined_frames_answered_in_order(self):
        # 50 challenges, every third one over budget, in one sendall
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=35)
        rng = sub_rng(14, "t")
        specs = {}
        for session_id in range(1, 51):
            spec = fresh_spec(rng, sc)
            if session_id % 6 == 3:
                spec = replace(spec, passes=(1 << 32) - 1)
            elif session_id % 6 == 0:
                spec = random_spec(sc.prime, 256, sc.passes, rng, sc.region_id)
            specs[session_id] = spec
        with (serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=10.0) as sock):
            sock.sendall(b"".join(encode_challenge(ChallengeMessage(i, spec))
                                  for i, spec in specs.items()))
            decoder = FrameDecoder()
            replies = []
            while sum(isinstance(m, ResponseMessage) for m in replies) < len(specs):
                data = sock.recv(4096)
                assert data, "device closed the connection"
                replies.extend(decoder.feed(data))
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
        rng = sub_rng(15, "t")
        huge = replace(fresh_spec(rng, sc), region_id="r" * 65535)
        with (serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=5.0) as sock):
            decoder = FrameDecoder()
            sock.sendall(encode_challenge(ChallengeMessage(1, huge)))
            assert read_through_response(sock, decoder) == [
                ResponseMessage(1, 0, STATUS_REGION_MISMATCH)]
            spec = fresh_spec(rng, sc)
            sock.sendall(encode_challenge(ChallengeMessage(2, spec)))
            restored, response = read_through_response(sock, decoder)
        assert restored == RestoredMessage(2)
        assert response == ResponseMessage(2, ep.expected_result(spec).accumulator, STATUS_OK)

    def test_region_not_utf8_drops_only_its_connection(self, caplog):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=37)
        rng = sub_rng(16, "t")
        good = encode_challenge(ChallengeMessage(1, fresh_spec(rng, sc)))
        region = sc.region_id.encode()
        body = good[8:-4 - len(region)] + b"\xff" * len(region)
        hostile = good[:8] + body + zlib.crc32(body).to_bytes(4, "little")
        with (caplog.at_level(logging.WARNING, logger="timecheck.protocol"),
              serve_device(ep, port=0, time_scale=0.0) as server):
            with socket.create_connection(server.getsockname(), timeout=5.0) as sock:
                sock.sendall(hostile)
                assert sock.recv(1) == b""  # dropped, with no reply
            spec = fresh_spec(rng, sc)
            timed = issue_challenge(TcpChannel(*server.getsockname(), timeout_s=5.0), spec,
                                    rng=rng)
        assert "MalformedFrame: undecodable body" in caplog.text
        assert timed.response.accumulator == ep.expected_result(spec).accumulator

    def test_non_challenge_frame_is_logged_and_skipped(self, caplog):
        sc = desk_scenario()
        ep = DeviceEndpoint(sc, master_seed=38)
        spec = fresh_spec(sub_rng(17, "t"), sc)
        with (caplog.at_level(logging.WARNING, logger="timecheck.protocol"),
              serve_device(ep, port=0, time_scale=0.0) as server,
              socket.create_connection(server.getsockname(), timeout=5.0) as sock):
            sock.sendall(encode_restored(RestoredMessage(0xABC))
                         + encode_challenge(ChallengeMessage(2, spec)))
            restored, response = read_through_response(sock, FrameDecoder())
        assert "skipped a RestoredMessage frame of session 0xabc" in caplog.text
        assert restored == RestoredMessage(2)
        assert response == ResponseMessage(2, ep.expected_result(spec).accumulator, STATUS_OK)

    def test_loopback_and_server_skip_a_non_challenge_frame_alike(self, caplog):
        # the skip rule is the endpoint's, so both transports answer one byte
        # stream the same: nothing to the RESTORED, a session to the CHALLENGE
        sc = desk_scenario()
        spec = fresh_spec(sub_rng(22, "t"), sc)
        stream = (encode_restored(RestoredMessage(0xABC))
                  + encode_challenge(ChallengeMessage(2, spec)))
        answers, warnings = [], []
        with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
            chan = LoopbackChannel(DeviceEndpoint(sc, master_seed=39))
            with chan.session() as (send, replies):
                send(stream)
                answers.append([msg for _, msg in replies()])
            warnings.append([record.getMessage() for record in caplog.records])
            caplog.clear()
            device = DeviceEndpoint(sc, master_seed=39)
            with (serve_device(device, port=0, time_scale=0.0) as server,
                  socket.create_connection(server.getsockname(), timeout=5.0) as sock):
                sock.sendall(stream)
                answers.append(read_through_response(sock, FrameDecoder()))
            warnings.append([record.getMessage() for record in caplog.records])
        accumulator = DeviceEndpoint(sc).expected_result(spec).accumulator
        assert answers == [[RestoredMessage(2), ResponseMessage(2, accumulator, STATUS_OK)]] * 2
        assert warnings == [["device skipped a RestoredMessage frame of session 0xabc"]] * 2

    @pytest.mark.parametrize("ends", ["returns", "raises"])
    def test_connection_ends_with_its_session(self, ends):
        # issue_challenge alone ends a session: the device reads EOF as soon
        # as it returns at the RESPONSE or raises on a second RESTORED
        hang_ups = []

        def script(conn, challenge):
            sid = challenge.session_id
            last = (encode_response(ResponseMessage(sid, 0, STATUS_OK)) if ends == "returns"
                    else encode_restored(RestoredMessage(sid)))
            conn.sendall(encode_restored(RestoredMessage(sid)) + last)
            try:
                hang_ups.append((conn.recv(1), time.monotonic()))
            except TimeoutError:
                hang_ups.append((None, time.monotonic()))

        rng = sub_rng(23, "t")
        with stub_device(script) as (host, port):
            chan = TcpChannel(host, port, timeout_s=5.0)
            if ends == "returns":
                issue_challenge(chan, fresh_spec(rng), rng=rng)
            else:  # the exception, and its traceback, are still held below
                with pytest.raises(MalformedFrame, match="second RESTORED") as caught:
                    issue_challenge(chan, fresh_spec(rng), rng=rng)
            ended = time.monotonic()
            while not hang_ups and time.monotonic() < ended + 6.0:
                time.sleep(0.01)
        [(data, at)] = hang_ups
        assert data == b"" and at - ended < 1.0
        assert ends == "returns" or caught.value.__traceback__ is not None

    @pytest.mark.parametrize("target", ["tcp", "loopback"])
    def test_hang_up_before_the_response_is_one_timeout(self, target):
        # a transport only moves frames: replies that stop after RESTORED end
        # in issue_challenge's ChannelTimeout over either channel
        def restored_only(session_id):
            return encode_restored(RestoredMessage(session_id))

        class HangsUp:
            def handle_challenge(self, msg):
                return [(500, restored_only(msg.session_id))]

        rng = sub_rng(24, "t")
        with ExitStack() as stack:
            if target == "tcp":
                host, port = stack.enter_context(stub_device(
                    lambda conn, challenge: conn.sendall(restored_only(challenge.session_id))))
                chan = TcpChannel(host, port, timeout_s=5.0)
                name = re.escape(f"{host}:{port}")
            else:
                chan = LoopbackChannel(HangsUp())
                name = "loopback"
            with pytest.raises(ChannelTimeout,
                               match=f"^{name}: device never sent a response frame$"):
                issue_challenge(chan, fresh_spec(rng), rng=rng)

    def test_closing_the_socket_stops_the_server(self):
        # leaving the block closes the listener, and the thread guard sees the server end
        with serve_device(DeviceEndpoint(desk_scenario(), master_seed=32)) as server:
            address = server.getsockname()
        assert server.fileno() == -1
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5.0)

    def test_busy_port_is_refused_naming_the_address_and_leaks_no_socket(self):
        ep = DeviceEndpoint(desk_scenario(), master_seed=32)
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(OSError) as refused:
                    with serve_device(ep, "127.0.0.1", port, time_scale=0.0):
                        pytest.fail("a second listener bound a port that one already holds")
                gc.collect()  # an unclosed listener warns when it is collected
        assert repr(("127.0.0.1", port)) in str(refused.value)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), -0.5])
    def test_time_scale_must_be_finite_and_nonnegative(self, scale):
        # refused as the block is entered: inf used to drop every session
        ep = DeviceEndpoint(desk_scenario(), master_seed=32)
        with pytest.raises(ValueError, match="time_scale must be a finite number >= 0"):
            with serve_device(ep, port=0, time_scale=scale):
                pytest.fail(f"served at time scale {scale}")

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

        rng = sub_rng(18, "t")
        with stub_device(split_response) as (host, port):
            timed = issue_challenge(TcpChannel(host, port, timeout_s=5.0), fresh_spec(rng),
                                    rng=rng)
        assert timed.duration_us >= 300_000

    def test_response_without_restored_is_malformed_at_once(self):
        def early_response(conn, challenge):
            conn.sendall(encode_response(ResponseMessage(challenge.session_id, 0, STATUS_OK)))
            conn.recv(1)  # hold the connection until the verifier hangs up

        rng = sub_rng(19, "t")
        with stub_device(early_response) as (host, port):
            start = time.monotonic()
            with pytest.raises(MalformedFrame, match="before RESTORED"):
                issue_challenge(TcpChannel(host, port, timeout_s=5.0), fresh_spec(rng), rng=rng)
            assert time.monotonic() - start < 1.0

    def test_second_restored_is_malformed_at_once(self):
        def restored_twice(conn, challenge):
            conn.sendall(encode_restored(RestoredMessage(challenge.session_id)) * 2)
            conn.recv(1)

        rng = sub_rng(20, "t")
        with stub_device(restored_twice) as (host, port):
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

        rng = sub_rng(21, "t")
        with stub_device(trickle) as (host, port):
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
            with chan.session():
                pytest.fail("a session opened to a port no one listens on")


def through_response(replies):
    """(arrival_us, message) of a session's replies up to and including a RESPONSE."""
    out = []
    for arrival_us, msg in replies():
        out.append((arrival_us, msg))
        if isinstance(msg, ResponseMessage):
            return out
    raise AssertionError(f"no RESPONSE among {out}")


@contextmanager
def desk_channel(kind, master_seed, time_scale=0.0):
    """(channel, endpoint) of a desk-small device over loopback or a served TCP device."""
    endpoint = DeviceEndpoint(desk_scenario(), master_seed=master_seed)
    if kind == "loopback":
        yield LoopbackChannel(endpoint), endpoint
        return
    with serve_device(endpoint, port=0, time_scale=time_scale) as server:
        yield TcpChannel(*server.getsockname(), timeout_s=5.0), endpoint


class TestChannelSession:
    """A session sends any number of frames, stamps each send, and reads the
    replies between sends."""

    def test_loopback_send_stamp_is_restore_us_before_restored(self):
        sc = desk_scenario()
        chan = LoopbackChannel(DeviceEndpoint(sc, master_seed=44))
        rng = sub_rng(44, "t")
        for session_id in (1, 2):  # the second session starts where the first left the clock
            with chan.session() as (send, replies):
                sent = send(encode_challenge(ChallengeMessage(session_id, fresh_spec(rng, sc))))
                (restored_at, restored), _ = through_response(replies)
            assert restored == RestoredMessage(session_id)
            assert restored_at - sent == protocol.RESTORE_US
        assert sent > 0

    def test_tcp_send_stamp_precedes_restored_by_restore_us(self):
        with desk_channel("tcp", 45, time_scale=1.0) as (chan, _):
            with chan.session() as (send, replies):
                sent = send(encode_challenge(ChallengeMessage(1, fresh_spec(sub_rng(45, "t")))))
                (restored_at, restored), _ = through_response(replies)
        assert restored == RestoredMessage(1)
        assert restored_at - sent >= protocol.RESTORE_US

    @pytest.mark.parametrize("kind", ["loopback", "tcp"])
    def test_second_challenge_in_one_session(self, kind):
        rng = sub_rng(46, "t")
        specs = {1: fresh_spec(rng), 2: fresh_spec(rng)}
        endpoint = DeviceEndpoint(desk_scenario(), master_seed=46)

        def serve_every_frame(conn, challenge):
            later = (msg for _, msg in read_frames(conn, 5.0))
            for msg in itertools.chain([challenge], later):
                for _, reply in endpoint.handle_challenge(msg):
                    conn.sendall(reply)

        with ExitStack() as stack:
            # over TCP a device that serves one connection: a second would wait, and time out
            chan = (LoopbackChannel(endpoint) if kind == "loopback" else
                    TcpChannel(*stack.enter_context(stub_device(serve_every_frame)),
                               timeout_s=2.0))
            with chan.session() as (send, replies):
                for session_id, spec in specs.items():
                    send(encode_challenge(ChallengeMessage(session_id, spec)))
                    got = [msg for _, msg in through_response(replies)]
                    accumulator = endpoint.expected_result(spec).accumulator
                    assert got == [RestoredMessage(session_id),
                                   ResponseMessage(session_id, accumulator, STATUS_OK)]

    @pytest.mark.parametrize("kind", ["loopback", "tcp"])
    def test_a_stream_cut_across_two_sends_reassembles(self, kind):
        spec = fresh_spec(sub_rng(47, "t"))
        stream = (encode_restored(RestoredMessage(0xABC))
                  + encode_challenge(ChallengeMessage(2, spec)))
        with desk_channel(kind, 47) as (chan, endpoint):
            def replies_to(*parts):
                with chan.session() as (send, replies):
                    for part in parts:
                        send(part)
                    return [msg for _, msg in through_response(replies)]

            whole = replies_to(stream)
            assert whole == [RestoredMessage(2),
                             ResponseMessage(2, endpoint.expected_result(spec).accumulator,
                                             STATUS_OK)]
            for cut in range(len(stream) + 1):
                assert replies_to(stream[:cut], stream[cut:]) == whole, cut


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

        def recorded(due_ns, stop):
            wait_until(due_ns, stop)
            released.append(time.monotonic_ns())

        monkeypatch.setattr(protocol, "_wait_until", recorded)
        twin = DeviceEndpoint(desk_scenario(), master_seed=41)
        rng = sub_rng(41, "t")
        out = []
        with desk_channel("tcp", 41, time_scale) as (chan, _):
            for _ in range(sessions):
                spec = fresh_spec(rng)
                issue_challenge(chan, spec, rng=rng)
                modeled, _ = twin.handle_challenge(ChallengeMessage(1, spec))[-1]
                out.append(modeled)
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
        assert self.gaps(monkeypatch, 5, time_scale=0.0) == []  # never waited

    def test_leaving_the_block_ends_a_paced_wait(self):
        # at time scale 1,000 the RESPONSE is due about 12 s after RESTORED
        before = set(threading.enumerate())
        with socket.socket() as sock:
            with serve_device(DeviceEndpoint(desk_scenario(), master_seed=42),
                              time_scale=1000.0) as server:
                [thread] = set(threading.enumerate()) - before
                sock.settimeout(5.0)
                sock.connect(server.getsockname())
                sock.sendall(encode_challenge(ChallengeMessage(1, fresh_spec())))
                assert next(read_frames(sock, 5.0))[1] == RestoredMessage(1)
                left = time.monotonic()
            assert time.monotonic() - left < 1.0
        assert not thread.is_alive()


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

    def test_session_past_the_duration_bound_is_refused(self, caplog):
        # at 1e15 us a session, session 9 stays below 2^53 us and session 10
        # does not: it is refused, and so is every later one
        sc = desk_scenario()
        sc = replace(sc, noise=replace(sc.noise, drift="linear", drift_us_per_trial=1e15))
        ep = DeviceEndpoint(sc, master_seed=32)
        rng = sub_rng(12, "t")
        durations = [self._duration(ep, fresh_spec(rng, sc)) for _ in range(10)]
        assert max(durations) < 2 ** 53
        with caplog.at_level(logging.WARNING, logger="timecheck.protocol"):
            for session_id in (10, 11):
                replies = ep.handle_challenge(ChallengeMessage(session_id, fresh_spec(rng, sc)))
                assert [FrameDecoder().feed(reply) for _, reply in replies] == [
                    [ResponseMessage(session_id, 0, STATUS_REFUSED)]]
        assert ("device refused session 0xa: a priced duration must stay below 2^53 us"
                in caplog.text)


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
            chan = LoopbackChannel(ep)
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
        monkeypatch.setattr(engine, "_last", None)  # an earlier test may have left this challenge
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
    return LoopbackChannel(DeviceEndpoint(sc, master_seed=seed))


def test_calibration_session_draws_spec_then_session_id():
    # one generator: the spec's draws, then the session id's
    sc = desk_scenario()
    rng = random.Random(0xCA1)
    session = protocol.run_session(_loopback(sc, 5), DeviceEndpoint(sc), rng)
    manual_rng = random.Random(0xCA1)
    spec = fresh_spec(manual_rng, sc)
    timed = issue_challenge(_loopback(sc, 5), spec, rng=manual_rng)
    # judged on its value, and not timed without a profile
    assert session.verdict.outcome == "ACCEPT" and session.verdict.detector is None
    assert "not timed" in session.verdict.reason
    assert session.spec_digest == spec.digest()
    got = session.timed
    assert got.response.session_id == timed.response.session_id
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
    session = protocol.run_session(_loopback(sc, 6), DeviceEndpoint(sc), random.Random(1),
                                   profile, "zscore")
    assert calls == ["expected_result", "issue_challenge", "verify_response"]
    assert session.verdict.detector.method == "zscore"


def test_spoiled_session_is_retried_not_judged():
    sc = desk_scenario()
    spiky = replace(sc, noise=replace(sc.noise, nmi_prob=1.0, nmi_us=50_000.0))
    profile = stats.calibrate([12_000.0 + i for i in range(30)])
    calibration = protocol.run_session(_loopback(spiky, 7), DeviceEndpoint(sc),
                                       random.Random(3))
    judged = protocol.run_session(_loopback(spiky, 7), DeviceEndpoint(sc), random.Random(3),
                                  profile)
    for session in (calibration, judged):
        assert session.timed.response.status == STATUS_NMI_RETRY
        assert session.timed.duration_us > 50_000
        assert session.verdict.outcome == "RETRY" and session.verdict.detector is None
