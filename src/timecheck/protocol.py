"""Challenge/response wire protocol between verifier and device under test.

Framing (little-endian throughout):

    +------+----------+------------------+-----------+
    | TCH1 | len: u32 | body (len bytes) | crc32 u32 |
    +------+----------+------------------+-----------+

The CRC covers the body only. Body starts with a one-byte message type:

    CHALLENGE (1): session_id u64, k u16, r[k] u64 each, x u64, p u64,
                   perm_seed u64, passes u32, region_id u16-len + utf-8
    RESTORED  (2): session_id u64
    RESPONSE  (3): session_id u64, accumulator u64, status u8

The protocol is deliberately secret-free: challenges carry all randomness in
the clear, and only freshness matters. Session ids come from a monotonic
counter mixed with randomness, so two challenges never share one.

Timestamps are taken by the verifier side only; the device never
self-reports time. Timing starts when the RESTORED acknowledgment arrives
(checkpoint restore cost is excluded) and stops at the read that completes
the RESPONSE frame, whose first 17 bytes are known before the scan ends.

Transports: a loopback byte stream (frames really are serialized and
incrementally re-parsed; by default it adds no jitter, so a duration is
exactly the device's priced one), and plain TCP, whose two ends (TcpChannel
and serve_device) read every frame through read_frames.

run_session is the verifier's one session path, for calibration and for
challenge alike: a fresh spec, the expected result when judging, the timed
exchange (issue_challenge), then the verdict (verify_response). It returns a
Session record: spec digest, TimedResponse, and verdict (None when
calibrating). A session an interrupt spike spoiled (STATUS_NMI_RETRY) is
never judged on its time, only retried, and never enters a profile.
"""

import functools
import itertools
import logging
import math
import random
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass

from .checkpoint import checkpoint_replay, region_bytes
from .coeffs import RandomSeeds
from .device import Scenario, device_snapshot, price
from .engine import ChallengeResult, ChallengeSpec, evaluate, random_spec
from .errors import ChannelTimeout, MalformedFrame, SessionMismatch, TimecheckError
from .field import FieldParams
from .seeding import derive_seed
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

_U64 = struct.Struct("<Q")

# The read limit (read_frames) of a device-server connection, TcpChannel's default:
# an idle or trickling peer holds neither the serialized server nor the verifier.
CONN_TIMEOUT_S = 10.0
# How long the device server reads from one connection, so that a client
# sending cheap challenges cannot keep the serialized server for good.
# TcpChannel opens one connection per session and never meets it.
CONN_BUDGET_S = 60.0
# How often the device server's accept loop checks whether it was closed.
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
    return MAGIC + struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def encode_challenge(msg: ChallengeMessage) -> bytes:
    spec = msg.spec
    region = region_bytes(spec.region_id)
    body = bytearray()
    body.append(MSG_CHALLENGE)
    body += _U64.pack(msg.session_id)
    body += struct.pack("<H", len(spec.seeds.r))
    for r in spec.seeds.r:
        body += _U64.pack(r)
    body += struct.pack("<QQQIH", spec.params.x, spec.params.p,
                        spec.perm_seed & ((1 << 64) - 1), spec.passes, len(region))
    body += region
    return frame(bytes(body))


def encode_restored(msg: RestoredMessage) -> bytes:
    return frame(bytes([MSG_RESTORED]) + _U64.pack(msg.session_id))


def encode_response(msg: ResponseMessage) -> bytes:
    return frame(bytes([MSG_RESPONSE]) + struct.pack("<QQB", msg.session_id,
                                                     msg.accumulator, msg.status))


def decode_body(body: bytes):
    """Body bytes -> typed message. Raises MalformedFrame on any shape error."""
    try:
        kind = body[0]
        if kind == MSG_CHALLENGE:
            off = 1
            (session_id,) = _U64.unpack_from(body, off)
            off += 8
            (k,) = struct.unpack_from("<H", body, off)
            off += 2
            r = struct.unpack_from(f"<{k}Q", body, off)
            off += 8 * k
            x, p, perm_seed, passes, region_len = struct.unpack_from("<QQQIH", body, off)
            off += 30
            if short := off + region_len - len(body):
                raise MalformedFrame(f"challenge body {short} bytes short" if short > 0
                                     else f"{-short} trailing bytes in challenge body")
            region = body[off:].decode()
            spec = ChallengeSpec(
                seeds=RandomSeeds(r, FieldParams(p, x)),
                perm_seed=perm_seed, passes=passes, region_id=region)
            return ChallengeMessage(session_id, spec)
        if kind == MSG_RESTORED:
            if len(body) != 9:
                raise MalformedFrame("bad RESTORED length")
            return RestoredMessage(_U64.unpack_from(body, 1)[0])
        if kind == MSG_RESPONSE:
            if len(body) != 18:
                raise MalformedFrame("bad RESPONSE length")
            session_id, accumulator, status = struct.unpack_from("<QQB", body, 1)
            return ResponseMessage(session_id, accumulator, status)
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
        while True:
            if len(self._buf) < 8:
                break
            if self._buf[:4] != MAGIC:
                raise MalformedFrame("bad frame magic")
            (length,) = struct.unpack_from("<I", self._buf, 4)
            if length > MAX_FRAME_BODY:
                raise MalformedFrame(f"frame body of {length} bytes exceeds cap")
            end = 8 + length + 4
            if len(self._buf) < end:
                break
            body = bytes(self._buf[8:8 + length])
            (crc,) = struct.unpack_from("<I", self._buf, 8 + length)
            if crc != zlib.crc32(body):
                raise MalformedFrame("frame CRC mismatch")
            del self._buf[:end]
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


# --- session ids --------------------------------------------------------------

_session_counter = itertools.count(1)
_counter_lock = threading.Lock()


def new_session_id(rng: random.Random) -> int:
    """Monotonic counter in the high bits (uniqueness), randomness below."""
    with _counter_lock:
        count = next(_session_counter)
    return ((count & 0xFFFFFFFF) << 32) | rng.getrandbits(32)


# --- simulated device endpoint -------------------------------------------------

class DeviceEndpoint:
    """Simulated device: replays its trusted checkpoint, scans what it restored, responds.

    Every endpoint of the same seeded image shares one read-only Checkpoint.
    Its own writable words are a copy made on first use, which every session
    restores from the checkpoint with one copy and then scans; the verifier's
    expected_result scans the checkpoint itself and allocates none. For every
    prime an evaluation over words equal to one of the last two evaluated in
    this process, under an equal spec, is a lookup (engine.evaluate), so a
    simulated device in the verifier's process scans a replayed challenge once.

    The endpoint answers as the scenario's device: honestly, or with the
    wrong value or extra time of the scenario's adversary.

    A challenge for another region, one over MAX_K or MAX_SCAN_WORDS, or one
    whose evaluation raises a TimecheckError (say a prime too small for the
    image), is answered at once with a refusal status and no RESTORED frame;
    a refusal for any reason but the region is logged.
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

    def handle_challenge(self, msg: ChallengeMessage):
        """-> [(delay_us, reply_frame), ...] with simulated on-device delays."""
        scenario = self.scenario
        spec = msg.spec
        if spec.region_id != scenario.region_id:
            reply = ResponseMessage(msg.session_id, 0, STATUS_REGION_MISMATCH)
            return [(0.0, encode_response(reply))]
        refusal = budget_refusal(spec.seeds.k, spec.passes * self.checkpoint.words.size)
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
        noise_rng = random.Random(derive_seed(self.master_seed, "device-noise", trial_id))
        duration, nmi = price(scenario, msg.spec.passes, noise_rng, trial_id)

        accumulator = result.accumulator
        if scenario.adversary.kind == "corrupt_result":
            accumulator = (accumulator + 1) % msg.spec.params.p

        status = STATUS_NMI_RETRY if nmi else STATUS_OK
        reply = ResponseMessage(msg.session_id, accumulator, status)
        # delays leave the device at the timer's microsecond granularity
        return [(RESTORE_US, restored),
                (max(0, int(round(duration))), encode_response(reply))]

    @staticmethod
    def _refuse(msg: ChallengeMessage, reason: str):
        log.warning("device refused session %#x: %s", msg.session_id, reason)
        return [(0.0, encode_response(ResponseMessage(msg.session_id, 0, STATUS_REFUSED)))]

    def expected_result(self, spec: ChallengeSpec) -> ChallengeResult:
        """What an honest scan of the (public) checkpoint must produce."""
        return evaluate(self.checkpoint.words, spec)


# --- channels -------------------------------------------------------------------

class LoopbackChannel:
    """Byte-stream transport: frames are serialized and re-parsed.

    Each reply frame is fed whole to one incremental decoder that lives as
    long as the channel, so framing bugs cannot hide. With the default
    jitter_us=0 a measured duration is the device's own: the scenario's
    NoiseModel is its only noise. Otherwise arrival stamps carry uniform +/-jitter_us, at most
    2 * jitter_us off the device's duration. A byte stream delivers frames
    in order, so the stamps never decrease: a RESPONSE sent at once never
    reads earlier than the RESTORED before it.
    """

    def __init__(self, endpoint: DeviceEndpoint, jitter_us: float = 0.0,
                 jitter_seed: int = 0):
        if not 0 <= jitter_us < math.inf:
            raise ValueError(f"jitter_us must be a finite number >= 0, got {jitter_us}")
        self.endpoint = endpoint
        self.jitter_us = jitter_us
        self._rng = random.Random(derive_seed(jitter_seed, "channel-jitter"))
        self._clock_us = 0.0
        self._arrival_us = -math.inf
        self._decoder = FrameDecoder()

    def request(self, challenge_frame: bytes):
        msgs = FrameDecoder().feed(challenge_frame)
        if len(msgs) != 1 or not isinstance(msgs[0], ChallengeMessage):
            raise MalformedFrame("channel expects exactly one challenge frame")
        out = []
        for delay_us, reply in self.endpoint.handle_challenge(msgs[0]):
            self._clock_us += delay_us
            jittered = self._clock_us + self._rng.uniform(-self.jitter_us, self.jitter_us)
            self._arrival_us = max(self._arrival_us, jittered)
            for decoded in self._decoder.feed(reply):
                out.append((int(round(self._arrival_us)), decoded))
        return out


class TcpChannel:
    """Plain TCP transport with real monotonic timestamps. A session reads
    frames through read_frames under timeout_s, up to a RESPONSE or a second
    frame; issue_challenge judges them."""

    def __init__(self, host: str, port: int, timeout_s: float = CONN_TIMEOUT_S):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def request(self, challenge_frame: bytes):
        out = []
        try:
            with socket.create_connection((self.host, self.port), timeout=self.timeout_s) as sock:
                sock.sendall(challenge_frame)
                for arrival in read_frames(sock, self.timeout_s):
                    out.append(arrival)
                    if isinstance(arrival[1], ResponseMessage) or len(out) == 2:
                        return out
        except OSError as exc:
            raise ChannelTimeout(f"{self.host}:{self.port}: {type(exc).__name__}: {exc}") from exc
        raise ChannelTimeout(f"{self.host}:{self.port} closed the connection mid-session")


def _wait_until(due_ns: int):
    """Return at due_ns on the monotonic clock: sleep, then spin the last SPIN_NS."""
    sleep_ns = due_ns - SPIN_NS - time.monotonic_ns()
    if sleep_ns > 0:
        time.sleep(sleep_ns / 1e9)
    while time.monotonic_ns() < due_ns:
        pass


def serve_device(endpoint: DeviceEndpoint, host: str = "127.0.0.1", port: int = 0,
                 time_scale: float = 0.0):
    """Single-listener TCP server for one device endpoint.

    time_scale stretches simulated on-device delays into real time (1.0 =
    real time, 0.0 = respond immediately). Each session is paced to absolute
    deadlines on the monotonic clock, anchored at the CHALLENGE's arrival
    stamp: RESTORED is due RESTORE_US * time_scale after it, or at once when
    the restore and scan took longer, and RESPONSE is due its modeled delay *
    time_scale after RESTORED went out, so a slow host never shortens the
    timed window. The server sleeps until SPIN_NS before a deadline and
    spins on the clock for the rest.

    Returns (server_socket, thread). The server takes connections until the
    socket is closed: the thread then ends within ACCEPT_POLL_S, or once the
    connection it serves ends. Sessions are strictly serialized. A challenge
    the device cannot or will not evaluate is refused with STATUS_REFUSED and
    logged, and its connection stays open; so does one that sent a frame
    other than a CHALLENGE, which is logged and skipped. Any other error
    while serving a connection is logged and closes only that connection;
    the server keeps going. Such errors include bad framing and the timeouts
    of read_frames, which reads each connection under CONN_TIMEOUT_S and
    CONN_BUDGET_S.
    """
    if not 0 <= time_scale < math.inf:  # time.sleep(inf) raises, nan would never sleep
        raise ValueError(f"time_scale must be a finite number >= 0, got {time_scale}")
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    # on Linux a close from another thread does not wake a blocked accept()
    server.settimeout(ACCEPT_POLL_S)

    def run():
        while True:
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                try:
                    for arrival_us, msg in read_frames(conn, CONN_TIMEOUT_S, CONN_BUDGET_S):
                        if not isinstance(msg, ChallengeMessage):
                            log.warning("device server: skipped a %s frame of session %#x",
                                        type(msg).__name__, msg.session_id)
                            continue
                        due_ns = arrival_us * 1000
                        for delay_us, reply in endpoint.handle_challenge(msg):
                            if time_scale > 0:
                                due_ns += round(delay_us * time_scale * 1000)
                                _wait_until(due_ns)
                                due_ns = max(due_ns, time.monotonic_ns())  # when it goes out
                            conn.sendall(reply)
                except (TimecheckError, OSError) as exc:
                    log.warning("device server: dropped connection: %s: %s",
                                type(exc).__name__, exc)
                except Exception:
                    # a defect, not a hostile peer: keep serving, keep the traceback
                    log.exception("device server: dropped connection")

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return server, thread


# --- verifier-side operations ----------------------------------------------------

def issue_challenge(channel, spec: ChallengeSpec, rng: random.Random) -> TimedResponse:
    """Send one challenge, return the externally timed response.

    t_start is stamped when the device's RESTORED acknowledgment arrives (so
    checkpoint restore cost is excluded) and t_end at the read that completes
    the response frame (its first 17 bytes are known before the scan ends).
    The session id is drawn from rng (new_session_id). A second RESTORED is
    a MalformedFrame, so the device cannot move the window's opening.
    """
    session_id = new_session_id(rng)
    msg = ChallengeMessage(session_id, spec)
    replies = channel.request(encode_challenge(msg))
    t_start = None
    for arrival_us, reply in replies:
        if isinstance(reply, RestoredMessage):
            if reply.session_id != session_id:
                raise SessionMismatch(
                    f"RESTORED for session {reply.session_id:#x}, expected {session_id:#x}")
            if t_start is not None:
                raise MalformedFrame("second RESTORED acknowledgment in one session")
            t_start = arrival_us
        elif isinstance(reply, ResponseMessage):
            if reply.session_id != session_id:
                raise SessionMismatch(
                    f"response for session {reply.session_id:#x}, expected {session_id:#x}")
            if reply.status in _REFUSALS:
                return TimedResponse(reply, arrival_us, arrival_us)
            if t_start is None:
                raise MalformedFrame("response arrived before RESTORED acknowledgment")
            return TimedResponse(reply, t_start, arrival_us)
        else:
            raise MalformedFrame(f"unexpected message {type(reply).__name__}")
    raise ChannelTimeout("device never sent a response frame")


@dataclass(frozen=True)
class SessionVerdict:
    outcome: str  # ACCEPT | REJECT | RETRY
    reason: str
    detector: object  # stats.Verdict for timing decisions, else None


def verify_response(expected: ChallengeResult, timed: TimedResponse, profile,
                    method: str = "percentile") -> SessionVerdict:
    """Value check first, then the configured timing detector.

    A refusal or a status the protocol does not define rejects before the
    value check. A wrong accumulator rejects unconditionally, whatever the
    timing says. An interrupt-spoiled measurement asks for a retry. All
    failures are verdicts, not exceptions.
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
    verdict = detect(method, profile, float(timed.duration_us))
    if verdict.flagged:
        return SessionVerdict("REJECT", f"timing outlier ({method})", verdict)
    return SessionVerdict("ACCEPT", "value and timing within baseline", verdict)


@dataclass(frozen=True)
class Session:
    """One verifier session as recorded; verdict is None for a calibration session."""

    spec_digest: str
    timed: TimedResponse
    verdict: SessionVerdict = None

    @property
    def refusal(self):
        """Why the device refused the challenge, or None."""
        return _REFUSALS.get(self.timed.response.status)

    @property
    def spoiled(self) -> bool:
        """Whether an interrupt spike spoiled the measured duration."""
        return self.timed.response.status == STATUS_NMI_RETRY


def run_session(channel, scenario: Scenario, spec_rng: random.Random,
                session_rng: random.Random, verifier: DeviceEndpoint = None,
                profile=None, method: str = "percentile") -> Session:
    """One session over channel, judged only when given a verifier endpoint. The
    spec is drawn from spec_rng before the session id from session_rng."""
    spec = random_spec(scenario.prime, scenario.k, scenario.passes, spec_rng,
                       scenario.region_id)
    expected = None if verifier is None else verifier.expected_result(spec)
    timed = issue_challenge(channel, spec, rng=session_rng)
    verdict = None if verifier is None else verify_response(expected, timed, profile, method)
    return Session(spec.digest(), timed, verdict)
