"""Property oracles for a session's rules at both ends.

The verifier end: generated reply sequences go through issue_challenge over a
plain LoopbackChannel, and a reference model written here gives the one
outcome each must have. The device end: a state machine sends arbitrary
frames on one connection to a served device, which must still serve an
honest session on a fresh connection.
"""

import itertools
import random
import socket
from contextlib import ExitStack

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from timecheck import protocol
from timecheck.device import desk_scenario
from timecheck.engine import random_spec
from timecheck.errors import ChannelTimeout, MalformedFrame, SessionMismatch
from timecheck.protocol import (
    STATUS_REFUSED,
    STATUS_REGION_MISMATCH,
    ChallengeMessage,
    DeviceEndpoint,
    LoopbackChannel,
    ResponseMessage,
    RestoredMessage,
    TcpChannel,
    TimedResponse,
    encode_challenge,
    encode_response,
    encode_restored,
    issue_challenge,
    serve_device,
)
from timecheck.seeding import sub_rng

DESK = desk_scenario()
u64 = st.integers(0, (1 << 64) - 1)


def desk_spec(rng, **changes):
    passes, k = changes.get("passes", DESK.passes), changes.get("k", DESK.k)
    return random_spec(DESK.prime, k, passes, rng, changes.get("region_id", DESK.region_id))


# --- verifier end -----------------------------------------------------------------

# One reply a device sends after the challenge: the delay before it, its kind,
# its session id (None, two draws in three: the session's own), its status
# (one of the four defined, half the time) and accumulator. A list of them ends
# wherever the device hangs up.
replies = st.lists(st.tuples(st.integers(0, 1 << 40),
                             st.sampled_from(("RESTORED", "RESPONSE", "CHALLENGE")),
                             st.one_of(st.none(), st.none(), u64),
                             st.one_of(st.integers(0, 3), st.integers(0, 255)), u64),
                   max_size=6)


class ScriptedDevice:
    """Answers the one challenge it gets with its script, as frames."""

    def __init__(self, script):
        self.script = script
        self.sent = []  # (stamp on the loopback clock, message), as sent

    def handle_challenge(self, msg):
        out = []
        for (delay_us, kind, session_id, status, accumulator), stamp in zip(
                self.script, itertools.accumulate(d for d, *_ in self.script)):
            session_id = msg.session_id if session_id is None else session_id
            reply = {"RESTORED": RestoredMessage(session_id),
                     "RESPONSE": ResponseMessage(session_id, accumulator, status),
                     "CHALLENGE": ChallengeMessage(session_id, msg.spec)}[kind]
            self.sent.append((stamp, reply))
            out.append((delay_us, {RestoredMessage: encode_restored,
                                   ResponseMessage: encode_response,
                                   ChallengeMessage: encode_challenge}[type(reply)](reply)))
        self.session_id = msg.session_id
        return out


def reference(sent, session_id):
    """The one outcome of a session whose device sent these (stamp, message)
    replies: a TimedResponse, or the type of the error that ends it."""
    opened = None
    for stamp, msg in sent:
        if not isinstance(msg, (RestoredMessage, ResponseMessage)):
            return MalformedFrame
        if msg.session_id != session_id:
            return SessionMismatch
        if isinstance(msg, RestoredMessage):
            if opened is not None:
                return MalformedFrame  # the window opens once
            opened = stamp
        elif msg.status in (STATUS_REGION_MISMATCH, STATUS_REFUSED):
            return TimedResponse(msg, stamp, stamp)  # a refusal, timed at itself
        elif opened is None:
            return MalformedFrame  # nothing was timed
        else:
            return TimedResponse(msg, opened, stamp)
    return ChannelTimeout  # the device hung up before a RESPONSE


@settings(max_examples=300, deadline=None)
@given(replies, st.integers(0, (1 << 32) - 1))
def test_issue_challenge_follows_the_reference_model(script, seed):
    device = ScriptedDevice(script)
    spec = desk_spec(random.Random(seed))
    try:
        got = issue_challenge(LoopbackChannel(device), spec, random.Random(seed))
    except (MalformedFrame, SessionMismatch, ChannelTimeout) as exc:
        got = type(exc)
    assert got == reference(device.sent, device.session_id)


# --- device end ---------------------------------------------------------------------

class ServedDevice(RuleBasedStateMachine):
    """Frames of every kind on one connection to a device served at time scale
    0; a frame cut short is always followed by a hang-up, since a held cut
    frame keeps the serialized server for CONN_TIMEOUT_S."""

    @initialize()
    def start(self):
        self.endpoint = DeviceEndpoint(DESK, master_seed=43)
        self.served = ExitStack()
        self.server = self.served.enter_context(serve_device(self.endpoint, time_scale=0.0))
        self.rng = sub_rng(43, "served-device")
        self.conn = None

    def send(self, data: bytes):
        if self.conn is None:
            self.conn = socket.create_connection(self.server.getsockname(), timeout=5.0)
        try:
            self.conn.sendall(data)
        except OSError:
            self.hang_up()  # the server dropped the connection first

    @rule(session_id=u64)
    def challenge(self, session_id):
        self.send(encode_challenge(ChallengeMessage(session_id, desk_spec(self.rng))))

    @rule(session_id=u64, status=st.integers(0, 255), accumulator=u64)
    def restored_or_response(self, session_id, status, accumulator):
        self.send(encode_restored(RestoredMessage(session_id))
                  + encode_response(ResponseMessage(session_id, accumulator, status)))

    @rule(session_id=u64, changes=st.sampled_from([
        {"k": protocol.MAX_K + 1},
        {"passes": protocol.MAX_SCAN_WORDS // (DESK.image_words + DESK.register_count) + 1},
        {"region_id": "full"}]))
    def refused_challenge(self, session_id, changes):
        self.send(encode_challenge(ChallengeMessage(session_id, desk_spec(self.rng, **changes))))

    @rule(session_id=u64)
    def bad_crc(self, session_id):
        good = encode_challenge(ChallengeMessage(session_id, desk_spec(self.rng)))
        self.send(good[:-1] + bytes([good[-1] ^ 1]))
        self.hang_up()  # the server drops the connection

    @rule(session_id=u64, data=st.data())
    def cut_frame(self, session_id, data):
        good = encode_challenge(ChallengeMessage(session_id, desk_spec(self.rng)))
        self.send(good[:data.draw(st.integers(1, len(good) - 1))])
        self.hang_up()

    @rule()
    def hang_up(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    @precondition(lambda self: self.conn is None)
    @invariant()
    def serves_an_honest_session(self):
        spec = desk_spec(self.rng)
        timed = issue_challenge(TcpChannel(*self.server.getsockname(), timeout_s=5.0),
                                spec, self.rng)
        assert timed.response.accumulator == self.endpoint.expected_result(spec).accumulator

    def teardown(self):
        self.hang_up()
        self.served.close()


ServedDevice.TestCase.settings = settings(max_examples=15, stateful_step_count=12,
                                          deadline=None)
TestServedDevice = ServedDevice.TestCase
