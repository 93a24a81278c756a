"""In-memory spans and counters around timecheck's public functions.

The benchmark never edits the package. It wraps module attributes from the
outside, in every `timecheck.*` namespace that holds them: `from .engine
import multipass` binds the function again inside `timecheck.protocol` and
`timecheck.device`, so wrapping only `timecheck.engine.multipass` would miss
every call the protocol makes. Methods are wrapped once on their class.

Two kinds of instrumentation:

* spans, for functions called a handful of times per operation. Each span
  records name, start, end, parent span and the benchmark's session id.
  Self time is a span's duration minus the durations of its direct
  children (the client is single-threaded, so children never overlap).
* counters, for functions called per word or per trial. They keep a call
  count and accumulated inclusive time, never a per-call record.

Spans stay in memory until `write_jsonl` is called at the end of a run.
"""

import json
import sys
import time
from collections import Counter

_now = time.perf_counter_ns

# name -> (defining module, attribute, class or None, kind)
# kind: "span" or "counter". Names are the metric prefixes.
TARGETS = {
    "engine.multipass": ("timecheck.engine", "multipass", None, "span"),
    "engine.random_spec": ("timecheck.engine", "random_spec", None, "counter"),
    "engine.digest": ("timecheck.engine", "digest", "ChallengeSpec", "counter"),
    "permutation.get": ("timecheck.permutation", "get", "PermutationGenerator", "counter"),
    "field.is_prime": ("timecheck.field", "is_prime", None, "counter"),
    "seeding.sub_rng": ("timecheck.seeding", "sub_rng", None, "counter"),
    "checkpoint.checkpoint_record": ("timecheck.checkpoint", "checkpoint_record", None, "span"),
    "checkpoint.checkpoint_replay": ("timecheck.checkpoint", "checkpoint_replay", None, "span"),
    "checkpoint.scan_words": ("timecheck.checkpoint", "scan_words", None, "span"),
    "device.run_trials": ("timecheck.device", "run_trials", None, "span"),
    "device.make_device_state": ("timecheck.device", "make_device_state", None, "span"),
    "protocol.encode_challenge": ("timecheck.protocol", "encode_challenge", None, "span"),
    "protocol.encode_restored": ("timecheck.protocol", "encode_restored", None, "span"),
    "protocol.encode_response": ("timecheck.protocol", "encode_response", None, "span"),
    "protocol.feed": ("timecheck.protocol", "feed", "FrameDecoder", "span"),
    "protocol.handle_challenge": ("timecheck.protocol", "handle_challenge", "DeviceEndpoint", "span"),
    "protocol.expected_result": ("timecheck.protocol", "expected_result", "DeviceEndpoint", "span"),
    "protocol.issue_challenge": ("timecheck.protocol", "issue_challenge", None, "span"),
    "protocol.verify_response": ("timecheck.protocol", "verify_response", None, "span"),
    "stats.calibrate": ("timecheck.stats", "calibrate", None, "span"),
    "stats.confusion_report": ("timecheck.stats", "confusion_report", None, "span"),
    "stats.t_test": ("timecheck.stats", "t_test", None, "span"),
    "stats.ks_test": ("timecheck.stats", "ks_test", None, "span"),
    "stats.serial_correlation": ("timecheck.stats", "serial_correlation", None, "span"),
    "stats.detect": ("timecheck.stats", "detect", None, "span"),
    "cli.main": ("timecheck.cli", "main", None, "span"),
}

CODEC = ("protocol.encode_challenge", "protocol.encode_restored",
         "protocol.encode_response", "protocol.feed")


class Tracer:
    """Collects spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, session, error, tag]
        self.counters = {}       # name -> [calls, busy_ns]
        self.counts = Counter()  # derived work counts (words, trials, frames, bytes)
        self.errors = Counter()  # module -> exceptions that crossed its boundary
        self.session = None
        self._stack = []
        self._patches = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        module = name.split(".", 1)[0]
        spans = self.spans
        stack = self._stack
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.session, False, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = _now()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[5] = True
                tracer.errors[module] += 1
                raise
            finally:
                rec[2] = _now()
                stack.pop()
            if hook is not None:
                hook(tracer, rec, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        module = name.split(".", 1)[0]
        cell = self.counters.setdefault(name, [0, 0])
        errors = self.errors

        def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                cell[1] += _now() - t0
                cell[0] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # --- install / uninstall -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "timecheck" or n.startswith("timecheck."))]
        for name, (modname, attr, clsname, kind) in TARGETS.items():
            make = self._span if kind == "span" else self._counter
            owner_mod = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner_mod, clsname)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, make(name, original))
                continue
            original = getattr(owner_mod, attr)
            wrapped = make(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------------------

    def summary(self) -> dict:
        """name -> {"calls", "busy_ns", "self_ns"} over everything recorded."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, rec in enumerate(self.spans):
            s = out.setdefault(rec[0], {"calls": 0, "busy_ns": 0, "self_ns": 0})
            dur = rec[2] - rec[1]
            s["calls"] += 1
            s["busy_ns"] += dur
            s["self_ns"] += dur - child_ns[i]
        for name, (calls, busy) in self.counters.items():
            out[name] = {"calls": calls, "busy_ns": busy, "self_ns": busy}
        return out

    def socket_wait_ns(self) -> int:
        """Self time of issue_challenge spans that went over a TcpChannel.

        Its children are the client-side codec spans, so what is left is the
        time spent waiting on the socket (device compute, sleeps, network).
        """
        child_ns = Counter()
        for rec in self.spans:
            if rec[3] >= 0 and self.spans[rec[3]][6] == "tcp":
                child_ns[rec[3]] += rec[2] - rec[1]
        return sum(rec[2] - rec[1] - child_ns[i] for i, rec in enumerate(self.spans)
                   if rec[6] == "tcp")

    def write_jsonl(self, path):
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[0], "start_ns": rec[1] - base, "end_ns": rec[2] - base,
                    "parent": rec[3], "session": rec[4], "error": rec[5],
                }) + "\n")


# --- per-span hooks that turn a call into work counts --------------------------------

def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _multipass_hook(tracer, rec, args, kwargs, result):
    tracer.counts["engine.words_scanned"] += result.words_scanned


def _run_trials_hook(tracer, rec, args, kwargs, result):
    tracer.counts["device.trials_priced"] += len(result)


def _encode_hook(tracer, rec, args, kwargs, result):
    tracer.counts["protocol.codec.frames"] += 1
    tracer.counts["protocol.codec.bytes"] += len(result)


def _feed_hook(tracer, rec, args, kwargs, result):
    tracer.counts["protocol.codec.frames"] += len(result)
    tracer.counts["protocol.codec.bytes"] += len(_arg(args, kwargs, 1, "data"))


def _issue_hook(tracer, rec, args, kwargs, result):
    channel = _arg(args, kwargs, 0, "channel")
    if type(channel).__name__ == "TcpChannel":
        rec[6] = "tcp"


def _cli_main_hook(tracer, rec, args, kwargs, result):
    # the CLI turns TimecheckError and OSError into exit code 1
    if result == 1:
        rec[5] = True
        tracer.errors["cli"] += 1


_HOOKS = {
    "engine.multipass": _multipass_hook,
    "device.run_trials": _run_trials_hook,
    "protocol.encode_challenge": _encode_hook,
    "protocol.encode_restored": _encode_hook,
    "protocol.encode_response": _encode_hook,
    "protocol.feed": _feed_hook,
    "protocol.issue_challenge": _issue_hook,
    "cli.main": _cli_main_hook,
}
