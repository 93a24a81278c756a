"""Challenge/response wire protocol between verifier and device under test.

Framing (little-endian throughout). Each layout is declared once, as the
struct.Struct named with it, and every encoder and decoder reads it:

    +------+----------+------------------+-----------+
    | TCH1 | len: u32 | body (len bytes) | crc32 u32 |   (_HEAD, body, _CRC)
    +------+----------+------------------+-----------+

The CRC covers the body only. Body starts with a one-byte message type:

    CHALLENGE (1): session_id u64, k u16 (_CHALLENGE_HEAD), r[k] u64 each
                   (_SEED), x u64, p u64, perm_seed u64, passes u32,
                   region_id u16-len (_CHALLENGE_TAIL) + utf-8
    RESTORED  (2): session_id u64 (_RESTORED)
    RESPONSE  (3): session_id u64, accumulator u64, status u8 (_RESPONSE)

The protocol is deliberately secret-free: challenges carry all randomness in
the clear, and only freshness matters. A session id names the challenge a
reply answers, within one channel session; it is the verifier's next draw
from the stream that drew the spec, so a seeded session's frames repeat.

Timestamps are taken by the verifier side only; the device never
self-reports time. Timing starts when the RESTORED acknowledgment arrives
(checkpoint restore cost is excluded) and stops at the read that completes
the RESPONSE frame, whose first 17 bytes are known before the scan ends.

Transports only move and stamp frames: a channel's session() gives send,
which returns a frame's send stamp, and replies, which yields (arrival_us,
message) per reply frame. The loopback byte stream re-parses every frame;
TCP's two ends read frames through read_frames. Only a session's two ends
know its rules: issue_challenge and DeviceEndpoint.handle_challenge.
issue_challenge alone ends a session, in ChannelTimeout if no RESPONSE comes.

run_session is the verifier's one session path, and judges every session:
a spec for the verifier's scenario and then a session id from one stream,
the expected result from that scenario's checkpoint, the timed exchange
(issue_challenge), then the verdict (verify_response; a calibration session
is not timed), in a Session record. A session an interrupt spike spoiled
(STATUS_NMI_RETRY) is never judged on its time, only retried as the device's
next session, and never enters a profile.
"""

import functools
import logging
import math
import random
import socket
import struct
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from urllib.parse import urlsplit

from .checkpoint import checkpoint_replay, region_bytes
from .coeffs import RandomSeeds
from .device import Scenario, device_snapshot, duration_bound_fault, price
from .engine import ChallengeResult, ChallengeSpec, evaluate, random_spec
from .errors import ChannelTimeout, MalformedFrame, SessionMismatch, TimecheckError
from .field import FieldParams
from .seeding import sub_rng
from .stats import detect

MAGIC = b"TCH1"
MAX_FRAME_BODY = 1 << 20

MSG_CHALLENGE = 1
MSG_RESTORED = 2
MSG_RESPONSE = 3

STATUS_OK = 0
STATUS_NMI_RETRY = 1
STATUS_REGION_MISMATCH = 2
STATUS_REFUSED = 3
# statuses a device answers at once, without a RESTORED acknowledgment
_REFUSALS = {STATUS_REGION_MISMATCH: "region mismatch",
             STATUS_REFUSED: "challenge cannot be evaluated"}

_HEAD = struct.Struct("<4sI")               # magic, body length
_CRC = struct.Struct("<I")                  # CRC-32 of the body
_CHALLENGE_HEAD = struct.Struct("<BQH")     # type, session id, k
_SEED = struct.Struct("<Q")                 # each of the k seeds r[i]
_CHALLENGE_TAIL = struct.Struct("<QQQIH")   # x, p, perm seed, passes, label length
_RESTORED = struct.Struct("<BQ")            # type, session id
_RESPONSE = struct.Struct("<BQQB")          # type, session id, accumulator, status

# The read limit (read_frames) of a device-server connection, TcpChannel's default
# and the longest it waits to connect: an idle or trickling peer, or an unreachable
# one, holds neither the serialized server nor the verifier.
CONN_TIMEOUT_S = 10.0
# How long the device server reads from one connection, so that a client
# sending cheap challenges cannot keep the serialized server for good.
# TcpChannel opens one connection per session and never meets it.
CONN_BUDGET_S = 60.0
# How often the device server checks whether its block was left; its wait after a failed accept.
ACCEPT_POLL_S = 0.1
# The largest challenge a device evaluates: k seed values, and passes * d
# scanned words (2^25 is 2.7x the paper's 500-pass SRAM scan of 12.3 M words).
# One frame can carry k up to 65,535 and passes up to 2^32-1, enough to stall
# the serialized server for days or exhaust its memory.
MAX_K = 64
MAX_SCAN_WORDS = 1 << 25
# Modeled time, in microseconds, from a challenge to the device's RESTORED
# frame. The verifier's clock starts at that frame, so it never enters a duration.
RESTORE_US = 500
# A paced device server sleeps until this long before a reply is due and spins
# on the clock for the rest: a sleep can wake late by the host's timer slack.
SPIN_NS = 300_000

log = logging.getLogger(__name__)


def budget_refusal(k: int, scanned: int):
    """Why a device refuses a challenge of k seeds and scanned words, or None."""
    if k > MAX_K or scanned > MAX_SCAN_WORDS:
        return (f"k={k} and {scanned} scanned words exceed "
                f"the budget of {MAX_K} and {MAX_SCAN_WORDS}")


@dataclass(frozen=True)
class ChallengeMessage:
    session_id: int
    spec: ChallengeSpec  # RandomSeeds checks that every seed lies in the field


@dataclass(frozen=True)
class ResponseMessage:
    session_id: int
    accumulator: int
    status: int = STATUS_OK


@dataclass(frozen=True)
class RestoredMessage:
    session_id: int


@dataclass(frozen=True)
class TimedResponse:
    """Verifier-side timing record of one session."""

    response: ResponseMessage
    t_start_us: int
    t_end_us: int

    def __post_init__(self):
        if self.t_end_us < self.t_start_us:
            raise ValueError("response cannot precede the start timestamp")

    @property
    def duration_us(self) -> int:
        return self.t_end_us - self.t_start_us


# --- frame encode / decode ---------------------------------------------------

def frame(body: bytes) -> bytes:
    return _HEAD.pack(MAGIC, len(body)) + body + _CRC.pack(zlib.crc32(body))


def encode_challenge(msg: ChallengeMessage) -> bytes:
    spec = msg.spec
    region = region_bytes(spec.region_id)
    r = spec.seeds.r
    return frame(_CHALLENGE_HEAD.pack(MSG_CHALLENGE, msg.session_id, len(r))
                 + b"".join(map(_SEED.pack, r))
                 + _CHALLENGE_TAIL.pack(spec.params.x, spec.params.p,
                                        spec.perm_seed & ((1 << 64) - 1), spec.passes,
                                        len(region))
                 + region)


def encode_restored(msg: RestoredMessage) -> bytes:
    return frame(_RESTORED.pack(MSG_RESTORED, msg.session_id))


def encode_response(msg: ResponseMessage) -> bytes:
    return frame(_RESPONSE.pack(MSG_RESPONSE, msg.session_id, msg.accumulator, msg.status))


def decode_body(body: bytes):
    """Body bytes -> typed message. Raises MalformedFrame on any shape error."""
    try:
        kind = body[0]
        if kind == MSG_CHALLENGE:
            # k is 1 until the head is read
            k = _CHALLENGE_HEAD.unpack_from(body)[2] if len(body) >= _CHALLENGE_HEAD.size else 1
            tail_at = _CHALLENGE_HEAD.size + k * _SEED.size
            if len(body) < (label_at := tail_at + _CHALLENGE_TAIL.size):
                raise MalformedFrame(f"challenge body of {len(body)} bytes, "
                                     f"at least {label_at} needed")
            _, session_id, _ = _CHALLENGE_HEAD.unpack_from(body)
            r = [seed for (seed,) in _SEED.iter_unpack(body[_CHALLENGE_HEAD.size:tail_at])]
            x, p, perm_seed, passes, region_len = _CHALLENGE_TAIL.unpack_from(body, tail_at)
            if short := label_at + region_len - len(body):
                raise MalformedFrame(f"challenge body {short} bytes short" if short > 0
                                     else f"{-short} trailing bytes in challenge body")
            region = body[label_at:].decode()
            spec = ChallengeSpec(
                seeds=RandomSeeds(r, FieldParams(p, x)),
                perm_seed=perm_seed, passes=passes, region_id=region)
            return ChallengeMessage(session_id, spec)
        if kind == MSG_RESTORED:
            if len(body) != _RESTORED.size:
                raise MalformedFrame("bad RESTORED length")
            return RestoredMessage(*_RESTORED.unpack(body)[1:])
        if kind == MSG_RESPONSE:
            if len(body) != _RESPONSE.size:
                raise MalformedFrame("bad RESPONSE length")
            return ResponseMessage(*_RESPONSE.unpack(body)[1:])
    except MalformedFrame:
        raise
    except Exception as exc:
        raise MalformedFrame(f"undecodable body: {exc}") from exc
    raise MalformedFrame(f"unknown message type {body[0]}")


class FrameDecoder:
    """Incremental deframer for byte-stream transports."""

    def __init__(self):
        self._buf = bytearray()

    @property
    def pending(self) -> bool:
        """Whether bytes of an incomplete frame are held."""
        return bool(self._buf)

    def feed(self, data: bytes):
        """Append raw bytes; yield decoded messages for each complete frame."""
        self._buf += data
        out = []
        while len(self._buf) >= _HEAD.size:
            magic, length = _HEAD.unpack_from(self._buf)
            if magic != MAGIC:
                raise MalformedFrame("bad frame magic")
            if length > MAX_FRAME_BODY:
                raise MalformedFrame(f"frame body of {length} bytes exceeds cap")
            crc_at = _HEAD.size + length
            if len(self._buf) < crc_at + _CRC.size:
                break
            body = bytes(self._buf[_HEAD.size:crc_at])
            (crc,) = _CRC.unpack_from(self._buf, crc_at)
            if crc != zlib.crc32(body):
                raise MalformedFrame("frame CRC mismatch")
            del self._buf[:crc_at + _CRC.size]
            out.append(decode_body(body))
        return out


def read_frames(sock, limit_s: float, budget_s: float = math.inf):
    """Yield (arrival_us, message) per frame read from sock, stamped at the
    read that completes the frame; the peer's close ends the iteration.

    Raises TimeoutError on no bytes for limit_s between frames, on a frame
    still incomplete limit_s after the read that brought its first byte (time
    the caller spends between frames does not count), and on a read begun
    budget_s after the first."""
    decoder = FrameDecoder()
    closes_at = time.monotonic() + budget_s
    deadline = time.monotonic() + limit_s  # of the next byte, or of the pending frame
    while True:
        now = time.monotonic()
        if now >= min(deadline, closes_at):
            raise TimeoutError(f"reading for {budget_s} s" if closes_at <= deadline else
                               f"frame incomplete {limit_s} s after its first byte"
                               if decoder.pending else f"no bytes for {limit_s} s")
        sock.settimeout(min(deadline, closes_at) - now)
        try:
            data = sock.recv(4096)
        except TimeoutError:
            continue  # the check above names the limit that ran out
        if not data:
            return
        arrival_us = time.monotonic_ns() // 1000
        sock.settimeout(limit_s)  # for the caller's sends between frames
        began = not decoder.pending  # a frame began in this read
        msgs = decoder.feed(data)
        for msg in msgs:
            yield arrival_us, msg
        if msgs or began:
            deadline = time.monotonic() + limit_s


# --- simulated device endpoint -------------------------------------------------

class DeviceEndpoint:
    """Simulated device: replays its trusted checkpoint, scans what it restored, responds.

    Every endpoint of the same seeded image shares one read-only Checkpoint.
    Its own writable words are a copy made on first use, which every session
    restores from the checkpoint with one copy and then scans; the verifier's
    expected_result scans the checkpoint itself and allocates none. For every
    prime an evaluation over words equal to the last ones evaluated in this
    process, under an equal spec, is a lookup (engine.evaluate), so a
    simulated device in the verifier's process scans a replayed challenge once.

    The endpoint answers as the scenario's device: honestly, or with the
    wrong value or extra time of the scenario's adversary. Whatever brought
    it, a frame other than a CHALLENGE is logged and answered with nothing.

    A challenge for another region, one over MAX_K or MAX_SCAN_WORDS, one
    this session could price at or past 2^53 us (a linear drift grows with
    the session index), or one whose evaluation raises a TimecheckError (say
    a prime too small for the image), is answered at once with a refusal
    status and no RESTORED frame; a refusal for any reason but the region is
    logged.
    """

    def __init__(self, scenario: Scenario, master_seed: int = 0):
        self.scenario = scenario
        self.master_seed = master_seed
        self.checkpoint = device_snapshot(scenario.image_seed, scenario.image_words,
                                          scenario.region_id, scenario.register_count)
        self._session_index = 0

    @functools.cached_property
    def words(self):
        """Live device memory: a writable copy of the checkpoint, made on first use."""
        return self.checkpoint.words.copy()

    def handle_challenge(self, msg):
        """-> [(delay_us, reply_frame), ...] with simulated on-device delays."""
        if not isinstance(msg, ChallengeMessage):
            log.warning("device skipped a %s frame of session %#x",
                        type(msg).__name__, msg.session_id)
            return []
        scenario = self.scenario
        spec = msg.spec
        if spec.region_id != scenario.region_id:
            reply = ResponseMessage(msg.session_id, 0, STATUS_REGION_MISMATCH)
            return [(0, encode_response(reply))]
        refusal = (budget_refusal(spec.seeds.k, spec.passes * self.checkpoint.words.size)
                   or duration_bound_fault(scenario, spec.passes, self._session_index))
        if refusal:
            return self._refuse(msg, refusal)

        checkpoint_replay(self.checkpoint, self.words)
        try:
            result = evaluate(self.words, spec)
        except TimecheckError as exc:
            return self._refuse(msg, f"{type(exc).__name__}: {exc}")
        restored = encode_restored(RestoredMessage(msg.session_id))

        # price the challenge actually received; the session index drives drift
        trial_id = self._session_index
        self._session_index += 1
        noise_rng = sub_rng(self.master_seed, "device-noise", trial_id)
        duration, nmi = price(scenario, msg.spec.passes, noise_rng, trial_id)

        accumulator = scenario.adversary.answer(result.accumulator, msg.spec.params.p)
        status = STATUS_NMI_RETRY if nmi else STATUS_OK
        reply = ResponseMessage(msg.session_id, accumulator, status)
        # delays leave the device at the timer's microsecond granularity
        return [(RESTORE_US, restored),
                (max(0, int(round(duration))), encode_response(reply))]

    @staticmethod
    def _refuse(msg: ChallengeMessage, reason: str):
        log.warning("device refused session %#x: %s", msg.session_id, reason)
        return [(0, encode_response(ResponseMessage(msg.session_id, 0, STATUS_REFUSED)))]

    def expected_result(self, spec: ChallengeSpec) -> ChallengeResult:
        """What an honest scan of the (public) checkpoint must produce."""
        return evaluate(self.checkpoint.words, spec)


# --- channels -------------------------------------------------------------------

class LoopbackChannel:
    """Byte-stream transport: frames are serialized and re-parsed.

    session() yields (send, replies), as TcpChannel's does. send hands each
    message it decodes to the endpoint, through one decoder per session as
    serve_device keeps one per connection, and returns the int device clock.
    replies() stamps each reply frame as it is read and feeds it whole to one
    decoder that lives as long as the channel, so framing bugs cannot hide.
    With the default jitter_us=0 a duration is the device's own: the scenario's
    NoiseModel is its only noise. Otherwise each arrival stamp carries uniform
    +/-jitter_us rounded to whole microseconds, so a duration is at most
    2 * round(jitter_us) off the device's at any clock size. A byte stream
    delivers frames in order, so the arrival stamps never decrease.
    """

    def __init__(self, endpoint: DeviceEndpoint, jitter_us: float = 0.0,
                 jitter_seed: int = 0):
        if not 0 <= jitter_us < math.inf:
            raise ValueError(f"jitter_us must be a finite number >= 0, got {jitter_us}")
        self.endpoint = endpoint
        self.jitter_us = jitter_us
        self._rng = sub_rng(jitter_seed, "channel-jitter")
        self._clock_us = 0
        self._arrival_us = -round(jitter_us)  # the lowest stamp
        self._decoder = FrameDecoder()

    def __str__(self):
        return "loopback"

    @contextmanager
    def session(self):
        device, frames = FrameDecoder(), deque()

        def send(frame: bytes) -> int:
            for msg in device.feed(frame):
                frames.extend(self.endpoint.handle_challenge(msg))
            return self._clock_us

        def replies():
            while frames:
                delay_us, reply = frames.popleft()
                self._clock_us += delay_us
                jitter = round(self._rng.uniform(-self.jitter_us, self.jitter_us))
                self._arrival_us = max(self._arrival_us, self._clock_us + jitter)
                for msg in self._decoder.feed(reply):
                    yield self._arrival_us, msg

        yield send, replies


def tcp_address(target: str):
    """(host, port) of a target as tcp_target writes it, port in 1-65535; else None."""
    with suppress(ValueError):  # urlsplit's bad [host], or a port not ASCII digits in 0-65535
        parts = urlsplit(target)
        host, port = parts.netloc.rpartition(":")[0].strip("[]"), parts.port
        if port and host and "@" not in host and tcp_target(host, port) == target:
            return host, port


def tcp_target(host: str, port: int) -> str:
    """The target that names a TCP device; a host holding a colon (IPv6) is bracketed."""
    return f"tcp://[{host}]:{port}" if ":" in host else f"tcp://{host}:{port}"


class TcpChannel:
    """Plain TCP transport with real monotonic timestamps. session() opens one
    connection, closed however the session is left; send stamps the clock just
    before sendall, and replies yields every frame read_frames reads under
    timeout_s until the peer hangs up. An OSError in it is a ChannelTimeout.
    A RESPONSE follows RESTORED by the whole scan, which timeout_s must outlast;
    the connect waits CONN_TIMEOUT_S at most, as no scan precedes it."""

    def __init__(self, host: str, port: int, timeout_s: float = CONN_TIMEOUT_S):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def __str__(self):
        return tcp_target(self.host, self.port).removeprefix("tcp://")

    @contextmanager
    def session(self):
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=min(self.timeout_s, CONN_TIMEOUT_S)) as sock:
                def send(frame: bytes) -> int:
                    sent_us = time.monotonic_ns() // 1000
                    sock.sendall(frame)
                    return sent_us

                frames = read_frames(sock, self.timeout_s)
                yield send, lambda: frames
        except OSError as exc:
            raise ChannelTimeout(f"{self}: {type(exc).__name__}: {exc}") from exc


def _wait_until(due_ns: int, stop: threading.Event):
    """Return at due_ns on the monotonic clock, or once stop is set: sleep, then spin SPIN_NS."""
    sleep_ns = due_ns - SPIN_NS - time.monotonic_ns()
    if sleep_ns > 0 and stop.wait(sleep_ns / 1e9):
        return
    while time.monotonic_ns() < due_ns:
        pass


@contextmanager
def serve_device(endpoint: DeviceEndpoint, host: str = "127.0.0.1", port: int = 0,
                 time_scale: float = 0.0):
    """Single-listener TCP server for one device endpoint, for one with block.

    time_scale stretches simulated on-device delays into real time (1.0 =
    real time, 0.0 = respond immediately). Each session is paced to absolute
    deadlines on the monotonic clock, anchored at the CHALLENGE's arrival
    stamp: RESTORED is due RESTORE_US * time_scale after it, or at once when
    the restore and scan took longer, and RESPONSE is due its modeled delay *
    time_scale after RESTORED went out, so a slow host never shortens the
    timed window. The server sleeps until SPIN_NS before a deadline and
    spins on the clock for the rest. Every frame goes to the endpoint's
    handle_challenge, which alone decides what the device answers.

    Yields the listener; a bind that fails raises OSError naming the address.
    Leaving the block ends the session in progress, joins the server thread
    and closes the listener. Sessions are strictly serialized. A failed accept
    is logged and retried ACCEPT_POLL_S later. A challenge the device cannot
    or will not evaluate is refused with STATUS_REFUSED and logged, and its
    connection stays open. Any other error while serving a connection is
    logged and closes only that connection; the server keeps going. Such
    errors include bad framing and the timeouts of read_frames, which reads
    each connection under CONN_TIMEOUT_S and CONN_BUDGET_S.
    """
    if not 0 <= time_scale < math.inf:  # time.sleep(inf) raises, nan would never sleep
        raise ValueError(f"time_scale must be a finite number >= 0, got {time_scale}")
    family = socket.AF_INET6 if ":" in host else socket.AF_INET  # as tcp_target brackets it
    stop, conn = threading.Event(), None  # conn: the connection last accepted

    def run():
        nonlocal conn
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError as exc:  # a new connection's network error, EMFILE, ...
                log.warning("device server: accept failed: %s: %s", type(exc).__name__, exc)
                stop.wait(ACCEPT_POLL_S)
                continue
            with conn:
                try:
                    for arrival_us, msg in read_frames(conn, CONN_TIMEOUT_S, CONN_BUDGET_S):
                        due_ns = arrival_us * 1000
                        for delay_us, reply in endpoint.handle_challenge(msg):
                            if time_scale > 0:
                                due_ns += round(delay_us * time_scale * 1000)
                                _wait_until(due_ns, stop)
                                due_ns = max(due_ns, time.monotonic_ns())  # when it goes out
                            conn.sendall(reply)
                except (TimecheckError, OSError) as exc:
                    log.warning("device server: dropped connection: %s: %s",
                                type(exc).__name__, exc)
                except Exception:
                    # a defect, not a hostile peer: keep serving, keep the traceback
                    log.exception("device server: dropped connection")

    with socket.create_server((host, port), family=family, backlog=1) as server:
        # on Linux a close from another thread wakes neither a blocked accept() nor recv()
        server.settimeout(ACCEPT_POLL_S)
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            stop.set()
            while thread.is_alive():  # again if it accepted a connection meanwhile
                with suppress(AttributeError, OSError):  # no connection yet, or closed
                    conn.shutdown(socket.SHUT_RDWR)  # its read returns end of stream
                thread.join(ACCEPT_POLL_S)


# --- verifier-side operations ----------------------------------------------------

def issue_challenge(channel, spec: ChallengeSpec, rng: random.Random) -> TimedResponse:
    """Send one challenge, return the externally timed response.

    t_start is stamped when the device's RESTORED acknowledgment arrives (so
    checkpoint restore cost is excluded) and t_end at the read that completes
    the response frame (its first 17 bytes are known before the scan ends).
    The session id is rng.getrandbits(32), required and never unseeded: it
    names the challenge a reply answers, within this one channel session. A
    second RESTORED is a MalformedFrame, so the device cannot move the
    window's opening. It alone ends a session: the exchange runs in one
    channel session, which ends when it returns or raises, so a TCP
    connection never outlives it.
    """
    session_id = rng.getrandbits(32)
    t_start = None
    with channel.session() as (send, replies):
        send(encode_challenge(ChallengeMessage(session_id, spec)))
        for arrival_us, reply in replies():
            if not isinstance(reply, (RestoredMessage, ResponseMessage)):
                raise MalformedFrame(f"unexpected message {type(reply).__name__}")
            if reply.session_id != session_id:
                raise SessionMismatch(f"{type(reply).__name__} for session "
                                      f"{reply.session_id:#x}, expected {session_id:#x}")
            if isinstance(reply, RestoredMessage):
                if t_start is not None:
                    raise MalformedFrame("second RESTORED acknowledgment in one session")
                t_start = arrival_us
            elif reply.status in _REFUSALS:
                return TimedResponse(reply, arrival_us, arrival_us)
            elif t_start is None:
                raise MalformedFrame("response arrived before RESTORED acknowledgment")
            else:
                return TimedResponse(reply, t_start, arrival_us)
    raise ChannelTimeout(f"{channel}: device never sent a response frame")


@dataclass(frozen=True)
class SessionVerdict:
    outcome: str  # ACCEPT | REJECT | RETRY
    reason: str
    detector: object  # stats.Verdict for timing decisions, else None


def verify_response(expected: ChallengeResult, timed: TimedResponse, profile=None,
                    method: str = "percentile") -> SessionVerdict:
    """Value check first, then the configured timing detector.

    A refusal or a status the protocol does not define rejects before the
    value check, and a wrong accumulator whatever the timing says. An
    interrupt-spoiled measurement asks for a retry; with no profile a correct
    value is accepted untimed. All failures are verdicts, not exceptions.
    """
    resp = timed.response
    if resp.status in _REFUSALS:
        return SessionVerdict("REJECT", f"device refused: {_REFUSALS[resp.status]}", None)
    if resp.status not in (STATUS_OK, STATUS_NMI_RETRY):
        return SessionVerdict("REJECT", f"unknown status {resp.status}", None)
    if resp.accumulator != expected.accumulator:
        return SessionVerdict("REJECT", "accumulator mismatch", None)
    if resp.status == STATUS_NMI_RETRY:
        return SessionVerdict("RETRY", "interrupt spike spoiled the measurement", None)
    if profile is None:
        return SessionVerdict("ACCEPT", "value correct; not timed", None)
    verdict = detect(method, profile, float(timed.duration_us))
    if verdict.flagged:
        return SessionVerdict("REJECT", f"timing outlier ({method})", verdict)
    return SessionVerdict("ACCEPT", "value and timing within baseline", verdict)


@dataclass(frozen=True)
class Session:
    """One verifier session as recorded, with its verdict."""

    spec_digest: str
    timed: TimedResponse
    verdict: SessionVerdict


def run_session(channel, verifier: DeviceEndpoint, rng: random.Random, profile=None,
                method: str = "percentile") -> Session:
    """One judged session over channel, timed against profile when one is given.
    rng draws a spec for verifier.scenario, then the session id."""
    scenario = verifier.scenario
    spec = random_spec(scenario.prime, scenario.k, scenario.passes, rng, scenario.region_id)
    expected = verifier.expected_result(spec)
    timed = issue_challenge(channel, spec, rng=rng)
    return Session(spec.digest(), timed, verify_response(expected, timed, profile, method))
