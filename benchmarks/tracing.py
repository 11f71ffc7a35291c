"""Outside-in tracing: spans and counters recorded around calls into each layer.

Nothing under src/ knows about this module.  `instrumented(rec)` replaces
the names that `dpvqss.protocol` looks up at call time (it imports them
directly, so the protocol module's own bindings are the ones to wrap) and a
few class methods with recording wrappers, and puts every original back on
exit.  Spans stay in memory as [name, start_ns, end_ns, parent, trial]
until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Spans whose self time (duration minus child spans) is reported.
SELF_TIMED = ("protocol.run_protocol", "protocol.phase1", "protocol.phase2",
              "protocol.phase3")


class SpanRecorder:
    """In-memory span list plus named counters; `trial` tags new spans."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trial: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.trial])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def roots(self) -> list[int]:
        """Per span: the index of the outermost span it sits inside."""
        root: list[int] = []
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            root.append(idx if parent is None else root[parent])
        return root


class Patcher:
    """Replaces attributes and restores every original in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        """Set owner.attr to make(original); a class's raw function is used."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spanned(rec: SpanRecorder, name: str, after=None):
    """Wrapper factory: time each call as a span, then call after(args, result)."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper
    return make


def counted(rec: SpanRecorder, name: str, amount=None):
    """Wrapper factory: add amount(args) (default 1) to a counter per call."""
    counts = rec.counts

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)
        return wrapper
    return make


@contextmanager
def instrumented(rec: SpanRecorder):
    """Wrap each layer's entry points for the duration of the block."""
    from dpvqss import adversary, bitvec, entangle, protocol, qsim

    counts = rec.counts

    def decoded(args, result):
        counts["threshold.robust_decode.full_support"] += result[1] == args[1].n

    def decoys_inserted(args, plan):
        counts["entangle.decoys"] += len(plan.decoys)

    def decoys_verified(args, result):
        counts["entangle.decoys_measured"] += sum(
            d.state is not None for d in args[0].decoys
        )
        counts["entangle.decoy_mismatches"] += result[0]

    def measured(args, outcome):
        batch = args[0]
        if batch.taps:
            counts["entangle.tapped_tuples"] += batch.p

    patch = Patcher()
    wraps = [
        (protocol, "run_protocol", spanned(rec, "protocol.run_protocol")),
        (protocol, "phase1_distribute", spanned(rec, "protocol.phase1")),
        (protocol, "phase2_verify", spanned(rec, "protocol.phase2")),
        (protocol, "phase3_consolidate", spanned(rec, "protocol.phase3")),
        (protocol.RunReport, "to_json_line",
         spanned(rec, "protocol.serialize")),
        (protocol, "split", spanned(rec, "threshold.split")),
        (protocol, "robust_decode",
         spanned(rec, "threshold.robust_decode", decoded)),
        # Counted outside the span, so a decode that raises still counts.
        (protocol, "robust_decode",
         counted(rec, "threshold.robust_decode.calls")),
        (protocol, "distribute", counted(rec, "entangle.distribute.calls")),
        (protocol, "insert_decoys",
         spanned(rec, "entangle.insert_decoys", decoys_inserted)),
        (protocol, "transmit", spanned(rec, "entangle.transmit")),
        (protocol, "verify_decoys",
         spanned(rec, "entangle.verify_decoys", decoys_verified)),
        (entangle.EntangledBatch, "encode_and_measure",
         spanned(rec, "entangle.encode_and_measure", measured)),
        (protocol, "falsify", counted(rec, "adversary.falsify.calls")),
        (adversary, "falsify", counted(rec, "adversary.falsify.calls")),
        (qsim.StateVector, "__init__", counted(rec, "qsim.states")),
        (qsim.StateVector, "__init__",
         counted(rec, "qsim.amplitudes", lambda args: 1 << args[1])),
        (qsim.StateVector, "measure_qubit", counted(rec, "qsim.measurements")),
        (bitvec.BitVector, "__init__", counted(rec, "bitvec.vectors")),
    ]
    # The primitive gates only: composite ones (prepare_*, apply_h_register,
    # apply_phase_oracle, measure_hadamard_basis) call these.
    for gate in ("apply_h", "apply_x", "apply_z", "apply_cnot"):
        wraps.append((qsim.StateVector, gate, counted(rec, "qsim.gates")))
    try:
        for owner, attr, make in wraps:
            patch.replace(owner, attr, make)
        yield
    finally:
        patch.restore()


def summarize(rec: SpanRecorder, trials: int) -> tuple[dict, list[str]]:
    """Per-trial means of span times (ms) and counters, plus accounting errors.

    An error is recorded for a trial whose self times inside run_protocol do
    not add up to its run_protocol span, or that has a negative self time.
    """
    own = rec.self_times()
    root = rec.roots()
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    subtree_self: dict[int, int] = defaultdict(int)
    errors = []
    for idx, (name, start, end, _, trial) in enumerate(rec.spans):
        total_ns[name] += end - start
        self_ns[name] += own[idx]
        subtree_self[root[idx]] += own[idx]
        if own[idx] < 0:
            errors.append(f"trial {trial}: {name} has negative self time")
    for idx, (name, start, end, _, trial) in enumerate(rec.spans):
        if name == "protocol.run_protocol" and root[idx] == idx:
            if subtree_self[idx] != end - start:
                errors.append(
                    f"trial {trial}: self times sum to {subtree_self[idx]} ns, "
                    f"run_protocol took {end - start} ns"
                )

    out = {}
    for name in ("protocol.run_protocol", "protocol.phase1", "protocol.phase2",
                 "protocol.phase3", "protocol.serialize", "threshold.split",
                 "threshold.robust_decode", "entangle.encode_and_measure",
                 "entangle.insert_decoys", "entangle.transmit",
                 "entangle.verify_decoys"):
        out[f"{name}.ms"] = total_ns[name] / trials / 1e6
        if name in SELF_TIMED:
            out[f"{name}.self_ms"] = self_ns[name] / trials / 1e6
    c = rec.counts
    for name in ("protocol.messages", "threshold.robust_decode.calls",
                 "entangle.distribute.calls", "entangle.tapped_tuples",
                 "entangle.decoys", "qsim.states", "qsim.amplitudes",
                 "qsim.gates", "qsim.measurements", "bitvec.vectors",
                 "adversary.falsify.calls"):
        out[name] = c[name] / trials
    out["threshold.robust_decode.full_support_ratio"] = _ratio(
        c["threshold.robust_decode.full_support"],
        c["threshold.robust_decode.calls"])
    out["entangle.decoy_mismatch_ratio"] = _ratio(
        c["entangle.decoy_mismatches"], c["entangle.decoys_measured"])
    run_ms = out["protocol.run_protocol.ms"]
    out["threshold.robust_decode.share"] = _ratio(
        out["threshold.robust_decode.ms"], run_ms)
    out["entangle.encode_and_measure.share"] = _ratio(
        out["entangle.encode_and_measure.ms"], run_ms)
    out["entangle.transmit_verify.share"] = _ratio(
        out["entangle.transmit.ms"] + out["entangle.verify_decoys.ms"], run_ms)
    return out, errors


def _ratio(num, den) -> float:
    """num / den, reading 0 when nothing was attempted."""
    return num / den if den else 0.0
