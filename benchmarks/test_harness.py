"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py
"""

import json

import pytest

import worker
from tracing import Patcher, SpanRecorder, instrumented, summarize
from workloads import WORKLOADS


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_subtract_direct_children_only():
    # root [0, 100] > a [10, 40] > b [20, 30]; root > c [50, 70]
    rec = SpanRecorder(clock=FakeClock([0, 10, 20, 30, 40, 50, 70, 100]))
    root = rec.open("protocol.run_protocol")
    a = rec.open("protocol.phase1")
    b = rec.open("threshold.split")
    rec.close(b)
    rec.close(a)
    c = rec.open("protocol.phase3")
    rec.close(c)
    rec.close(root)
    assert rec.self_times() == [50, 20, 10, 20]
    assert rec.roots() == [0, 0, 0, 0]
    assert [s[3] for s in rec.spans] == [None, 0, 1, 0]
    layers, errors = summarize(rec, trials=1)
    assert errors == []
    assert layers["protocol.run_protocol.ms"] == pytest.approx(100e-6)
    assert layers["protocol.run_protocol.self_ms"] == pytest.approx(50e-6)
    assert layers["protocol.phase1.self_ms"] == pytest.approx(20e-6)
    assert layers["threshold.split.ms"] == pytest.approx(10e-6)


def test_summarize_flags_a_child_outside_its_parent():
    rec = SpanRecorder(clock=FakeClock([0, 10]))
    rec.trial = 7
    with rec.span("protocol.run_protocol"):
        pass
    # A child recorded as lasting longer than its parent.
    rec.spans.append(["protocol.phase1", 0, 25, 0, 7])
    _, errors = summarize(rec, trials=1)
    assert any("trial 7" in err and "negative" in err for err in errors)


def test_spans_must_close_innermost_first():
    rec = SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_patcher_restores_originals_even_after_an_error():
    class Target:
        def method(self):
            return "original"

    original = vars(Target)["method"]
    patch = Patcher()
    patch.replace(Target, "method", lambda fn: lambda self: "wrapped")
    patch.replace(Target, "method", lambda fn: lambda self: fn(self) + "!")
    assert Target().method() == "wrapped!"
    patch.restore()
    assert vars(Target)["method"] is original


def test_instrumented_wraps_then_restores_every_attribute():
    from dpvqss import bitvec, protocol, qsim

    watched = [
        (protocol, "run_protocol"), (protocol, "robust_decode"),
        (protocol, "falsify"), (protocol.RunReport, "to_json_line"),
        (qsim.StateVector, "__init__"), (bitvec.BitVector, "__init__"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    rec = SpanRecorder()
    with pytest.raises(KeyError):
        with instrumented(rec):
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr), orig in zip(watched, before))
            raise KeyError("leave the block early")
    assert [vars(owner)[attr] for owner, attr in watched] == before


def test_traced_honest_trial_accounts_for_every_layer():
    bench = worker.Bench(WORKLOADS["honest"], seed=3)
    rec = SpanRecorder()
    with instrumented(rec):
        rec.trial = 0
        report, line = bench.trial(0)
    assert bench.check((report, line)) is None
    layers, errors = summarize(rec, trials=1)
    assert errors == []
    assert layers["threshold.robust_decode.calls"] == 5
    assert layers["threshold.robust_decode.full_support_ratio"] == 1.0
    assert layers["qsim.states"] == 0
    assert layers["bitvec.vectors"] > 0
    assert layers["protocol.serialize.ms"] > 0
    # The traced line is the untraced line: wrappers change no behaviour.
    assert bench.trial(0)[1] == line


def test_failing_trials_are_counted_not_skipped():
    def trial_fn(trial):
        if trial == 3:
            raise ValueError("defect")
        return trial

    def check_fn(out):
        return "wrong outcome" if out == 5 else None

    res = worker.timed_loop(trial_fn, check_fn, first=0, seconds=0,
                            min_trials=10)
    assert res.attempted == 10
    assert len(res.failures) == 2
    assert len(res.latencies_ns) == 8
    assert "trial 3 raised ValueError" in res.failures[0]
    assert "trial 5: wrong outcome" in res.failures[1]


def test_paired_loops_run_every_trial_in_both_modes_in_turn():
    seen = []
    entered = []

    class Context:
        def __enter__(self):
            entered.append(len(seen))

        def __exit__(self, *exc):
            return False

    ticks = iter(range(0, 10**12, 10**6))  # every clock read is 1 ms later
    plain, traced = worker.paired_loops(
        (lambda t: seen.append(("plain", t)), lambda out: None, Context),
        (lambda t: seen.append(("traced", t)), lambda out: None, Context),
        first=5, seconds=1, clock=lambda: next(ticks),
    )
    plain_trials = [t for mode, t in seen if mode == "plain"]
    traced_trials = [t for mode, t in seen if mode == "traced"]
    assert plain_trials == traced_trials == list(range(5, 5 + len(plain_trials)))
    assert traced.attempted == plain.attempted >= worker.MIN_TRIALS
    # Equal blocks, each inside its side's context, in ABBA order.
    size = seen.index(("traced", 5))
    assert len(seen) % size == 0 and len(entered) == len(seen) // size
    leaders = [seen[i][0] for i in range(0, len(seen), size)]
    assert leaders[:6] == ["plain", "traced", "traced", "plain", "plain",
                           "traced"]


def test_outcome_checks_match_the_expected_verdicts():
    proceed = {"verdict": "proceed", "abort": None, "agents": {
        "0": {"loyal": True, "recovered_secret": True},
        "1": {"loyal": False, "recovered_secret": False},
    }}
    abort = {"verdict": "abort", "agents": {},
             "abort": {"phase": "phase1", "cause": "decoy_mismatch"}}
    assert WORKLOADS["honest"].outcome_error(proceed) is None
    assert WORKLOADS["honest"].outcome_error(abort) is not None
    assert WORKLOADS["eve_decoy"].outcome_error(abort) is None
    assert WORKLOADS["eve_tap"].outcome_error(abort) is not None
    lost = json.loads(json.dumps(proceed))
    lost["agents"]["0"]["recovered_secret"] = False
    assert WORKLOADS["liar"].outcome_error(lost) is not None


def test_p90_leaves_a_tenth_of_the_samples_above_it():
    values = list(range(1, 101))
    assert worker.p90(values) == 90
    assert sum(v > worker.p90(values) for v in values) == 10
