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
(checkpoint restore cost is excluded) and stops at the first response byte.

Transports: a loopback byte stream with injected jitter (frames really are
serialized and incrementally re-parsed; with no jitter, durations are exact),
and plain TCP.
"""

import itertools
import logging
import random
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass

from .checkpoint import checkpoint_replay
from .coeffs import RandomSeeds
from .device import Measurement, Scenario, device_snapshot, price
from .engine import ChallengeResult, ChallengeSpec, evaluate
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

# Read timeout of an accepted device-server connection, TcpChannel's default:
# an idle client must not hold the serialized server.
CONN_TIMEOUT_S = 10.0
# How often the device server's accept loop checks whether it was closed.
ACCEPT_POLL_S = 0.1
# The largest challenge a device evaluates: k seed values, and passes * d
# scanned words (2^25 is 2.7x the paper's 500-pass SRAM scan of 12.3 M words).
# One frame can carry k up to 65,535 and passes up to 2^32-1, enough to stall
# the serialized server for days or exhaust its memory.
MAX_K = 64
MAX_SCAN_WORDS = 1 << 25

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChallengeMessage:
    session_id: int
    spec: ChallengeSpec

    def __post_init__(self):
        p = self.spec.params.p
        if not all(0 <= r < p for r in self.spec.seeds.r):
            raise ValueError("seed values outside the field")


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
    region = spec.region_id.encode()
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
            region = body[off:off + region_len].decode()
            if off + region_len != len(body):
                raise MalformedFrame("trailing bytes in challenge body")
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
    """Simulated device: replays its trusted checkpoint, scans, responds.

    Every endpoint of the same seeded image shares one DeviceSnapshot (the
    recorded checkpoint and its read-only scan array); each keeps its own
    live state, which every session restores from the checkpoint.

    behavior selects hostile stubs for verifier tests:
      honest         normal operation
      wrong_result   flips the accumulator, takes baseline time
      stale_session  replays the previous session id in its response
      delayed        honest value, extra_delay_us slower

    A challenge for another region, one over MAX_K or MAX_SCAN_WORDS, or one
    whose evaluation raises a TimecheckError (say a prime too small for the
    image), is answered at once with a refusal status and no RESTORED frame;
    a refusal for any reason but the region is logged.
    """

    def __init__(self, scenario: Scenario, master_seed: int = 0,
                 behavior: str = "honest", restore_us: float = 500.0,
                 extra_delay_us: float = 0.0):
        if behavior not in ("honest", "wrong_result", "stale_session", "delayed"):
            raise ValueError(f"unknown behavior {behavior!r}")
        self.scenario = scenario
        self.behavior = behavior
        self.restore_us = restore_us
        self.extra_delay_us = extra_delay_us
        self.master_seed = master_seed
        self.snapshot = device_snapshot(scenario.image_seed, scenario.image_words,
                                        scenario.region_id, scenario.register_count)
        self.checkpoint = self.snapshot.checkpoint
        self.state = self.snapshot.live_state()
        self._session_index = 0
        self._last_session_id = 0

    def handle_challenge(self, msg: ChallengeMessage):
        """-> [(delay_us, reply_frame), ...] with simulated on-device delays."""
        scenario = self.scenario
        spec = msg.spec
        if spec.region_id != scenario.region_id:
            reply = ResponseMessage(msg.session_id, 0, STATUS_REGION_MISMATCH)
            return [(0.0, encode_response(reply))]
        scanned = spec.passes * self.snapshot.scan.size
        if spec.seeds.k > MAX_K or scanned > MAX_SCAN_WORDS:
            return self._refuse(msg, f"k={spec.seeds.k} and {scanned} scanned words exceed "
                                     f"the budget of {MAX_K} and {MAX_SCAN_WORDS}")

        checkpoint_replay(self.checkpoint, self.state)
        try:
            result = evaluate(self.snapshot.scan, spec)
        except TimecheckError as exc:
            return self._refuse(msg, f"{type(exc).__name__}: {exc}")
        restored = encode_restored(RestoredMessage(msg.session_id))

        # price the challenge actually received; the session index drives drift
        trial_id = self._session_index
        self._session_index += 1
        noise_rng = random.Random(derive_seed(self.master_seed, "device-noise", trial_id))
        duration, nmi = price(scenario, msg.spec.passes, noise_rng, trial_id)

        accumulator = result.accumulator
        if scenario.adversary.kind == "corrupt_result" or self.behavior == "wrong_result":
            accumulator = (accumulator + 1) % msg.spec.params.p
        if self.behavior == "delayed":
            duration += self.extra_delay_us

        session_id = msg.session_id
        if self.behavior == "stale_session" and self._last_session_id:
            session_id = self._last_session_id
        self._last_session_id = msg.session_id

        status = STATUS_NMI_RETRY if nmi else STATUS_OK
        reply = ResponseMessage(session_id, accumulator, status)
        # delays leave the device at the timer's microsecond granularity
        return [(int(round(self.restore_us)), restored),
                (max(0, int(round(duration))), encode_response(reply))]

    @staticmethod
    def _refuse(msg: ChallengeMessage, reason: str):
        log.warning("device refused session %#x: %s", msg.session_id, reason)
        return [(0.0, encode_response(ResponseMessage(msg.session_id, 0, STATUS_REFUSED)))]

    def expected_result(self, spec: ChallengeSpec) -> ChallengeResult:
        """What an honest scan of the (public) checkpoint must produce."""
        return evaluate(self.snapshot.scan, spec)


# --- channels -------------------------------------------------------------------

class LoopbackChannel:
    """Byte-stream transport: frames are serialized, chunked, and re-parsed.

    Reply bytes travel through a single incremental decoder in small chunks,
    so framing bugs cannot hide; arrival stamps carry uniform +/-jitter, so a
    measured duration deviates from the device's true duration by at most
    2 * jitter_us. With jitter_us=0 a measured duration is the device's own.
    """

    def __init__(self, endpoint: DeviceEndpoint, jitter_us: float = 3.0,
                 jitter_seed: int = 0, chunk: int = 7):
        self.endpoint = endpoint
        self.jitter_us = jitter_us
        self.chunk = max(1, chunk)
        self._rng = random.Random(derive_seed(jitter_seed, "channel-jitter"))
        self._clock_us = 0.0
        self._decoder = FrameDecoder()

    def request(self, challenge_frame: bytes):
        msgs = FrameDecoder().feed(challenge_frame)
        if len(msgs) != 1 or not isinstance(msgs[0], ChallengeMessage):
            raise MalformedFrame("channel expects exactly one challenge frame")
        out = []
        for delay_us, reply in self.endpoint.handle_challenge(msgs[0]):
            self._clock_us += delay_us
            arrival = self._clock_us + self._rng.uniform(-self.jitter_us, self.jitter_us)
            for start in range(0, len(reply), self.chunk):
                for decoded in self._decoder.feed(reply[start:start + self.chunk]):
                    out.append((int(round(arrival)), decoded))
        return out


class TcpChannel:
    """Plain TCP transport with real monotonic timestamps."""

    def __init__(self, host: str, port: int, timeout_s: float = CONN_TIMEOUT_S):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def request(self, challenge_frame: bytes):
        out = []
        decoder = FrameDecoder()
        try:
            with socket.create_connection((self.host, self.port), timeout=self.timeout_s) as sock:
                sock.sendall(challenge_frame)
                pending = 2
                while pending > 0:
                    data = sock.recv(4096)
                    if not data:
                        raise ChannelTimeout("connection closed mid-session")
                    now = time.monotonic_ns() // 1000
                    for decoded in decoder.feed(data):
                        out.append((now, decoded))
                        pending -= 1
                        if isinstance(decoded, ResponseMessage) and decoded.status in _REFUSALS:
                            pending = 0
        except OSError as exc:
            raise ChannelTimeout(f"cannot reach {self.host}:{self.port}: {exc}") from exc
        return out


def serve_device(endpoint: DeviceEndpoint, host: str = "127.0.0.1", port: int = 0,
                 time_scale: float = 0.0, max_sessions: int = None):
    """Single-listener TCP server for one device endpoint.

    time_scale stretches simulated on-device delays into real sleeps
    (1.0 = real time, 0.0 = respond immediately). Returns (server_socket,
    thread); close the socket to stop: the thread ends within ACCEPT_POLL_S,
    or once the connection it serves ends. Sessions are strictly serialized. A
    challenge the device cannot or will not evaluate is refused with
    STATUS_REFUSED and logged, and its connection stays open. Any other error
    while serving a connection (bad framing, no bytes for CONN_TIMEOUT_S) is
    logged and closes only that connection; the server keeps going.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    # on Linux a close from another thread does not wake a blocked accept()
    server.settimeout(ACCEPT_POLL_S)

    def run():
        served = 0
        while max_sessions is None or served < max_sessions:
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                conn.settimeout(CONN_TIMEOUT_S)
                decoder = FrameDecoder()
                try:
                    while True:
                        data = conn.recv(4096)
                        if not data:
                            break
                        for msg in decoder.feed(data):
                            if not isinstance(msg, ChallengeMessage):
                                continue
                            for delay_us, reply in endpoint.handle_challenge(msg):
                                if time_scale > 0:
                                    time.sleep(delay_us * time_scale / 1e6)
                                conn.sendall(reply)
                            served += 1
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

def issue_challenge(channel, spec: ChallengeSpec, session_id: int = None,
                    rng: random.Random = None) -> TimedResponse:
    """Send one challenge, return the externally timed response.

    t_start is stamped when the device's RESTORED acknowledgment arrives (so
    checkpoint restore cost is excluded) and t_end at the first byte of the
    response frame.
    """
    if session_id is None:
        session_id = new_session_id(rng if rng is not None else random.Random())
    msg = ChallengeMessage(session_id, spec)
    replies = channel.request(encode_challenge(msg))
    if not replies:
        raise ChannelTimeout("no reply frames")

    t_start = None
    for arrival_us, reply in replies:
        if isinstance(reply, RestoredMessage):
            if reply.session_id != session_id:
                raise SessionMismatch(
                    f"RESTORED for session {reply.session_id:#x}, expected {session_id:#x}")
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

    @property
    def accepted(self) -> bool:
        return self.outcome == "ACCEPT"


def verify_response(expected: ChallengeResult, timed: TimedResponse, profile,
                    method: str = "percentile", **detector_kwargs) -> SessionVerdict:
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
    verdict = detect(method, profile, float(timed.duration_us), **detector_kwargs)
    if verdict.flagged:
        return SessionVerdict("REJECT", f"timing outlier ({method})", verdict)
    return SessionVerdict("ACCEPT", "value and timing within baseline", verdict)


def measurement_from_timed(timed: TimedResponse, trial_id: int, scenario: str,
                           spec: ChallengeSpec) -> Measurement:
    return Measurement(trial_id=trial_id, scenario=scenario,
                       duration_us=max(1, timed.duration_us),
                       spec_digest=spec.digest(),
                       nmi=timed.response.status == STATUS_NMI_RETRY)
