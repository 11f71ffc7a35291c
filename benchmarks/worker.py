"""Run one workload in a fresh process and print its figures as a JSON line.

    python3 benchmarks/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of:

- setup:   import dpvqss, parse the config and run the checked warm-up
           trials; report the set-up time and a digest of the warm-up lines.
- measure: setup, then the closed-loop timed run (one trial at a time, like
           `dpvqss run`), then the fidelity check against `dpvqss run`.
- trace:   setup, then the same trials untraced and traced in alternating
           blocks for SECONDS in all, and the per-layer figures.

run.py starts these processes; the set-up clock (START_NS) starts before
numpy and dpvqss are imported.
"""

import time

START_NS = time.perf_counter_ns()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from dpvqss import cli, metrics, protocol  # noqa: E402

from tracing import SpanRecorder, instrumented, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timed runs go on past their deadline until p90 has 10 samples beyond it.
MIN_TRIALS = 100
# Leading trials whose JSON lines must equal `dpvqss run` output byte for byte.
FIDELITY_TRIALS = 3
# Report dicts aggregated (five times, median kept) for metrics.empirical_stats.
AGGREGATED_REPORTS = 100
# Length of one untraced or traced block in the paired trace run.
BLOCK_S = 0.25


@dataclass
class LoopResult:
    latencies_ns: list[int] = field(default_factory=list)  # passing trials
    failures: list[str] = field(default_factory=list)
    busy_ns: int = 0  # summed duration of every trial, passing or not

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns) + len(self.failures)

    def run(self, trial_fn, check_fn, trial: int, clock) -> int:
        """Run and check one trial; returns the clock reading at its end.

        check_fn(output) returns None or the reason the trial missed its
        expected outcome.  A trial that raises or misses is a failure, never
        a skip, and its latency stays out of the percentiles.
        """
        t0 = clock()
        try:
            out = trial_fn(trial)
        except Exception as err:  # a defect in the program: count it, go on
            t1 = clock()
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            self.failures.append(
                f"trial {trial} raised {type(err).__name__}: {err}")
        else:
            t1 = clock()
            reason = check_fn(out)
            if reason is None:
                self.latencies_ns.append(t1 - t0)
            else:
                self.failures.append(f"trial {trial}: {reason}")
        self.busy_ns += t1 - t0
        return t1


def timed_loop(trial_fn, check_fn, first: int, seconds: float,
               min_trials: int = MIN_TRIALS, clock=time.perf_counter_ns):
    """Closed loop with one client: run trial_fn(i) for i = first, first+1, ...
    until `seconds` have passed and at least min_trials were attempted."""
    res = LoopResult()
    deadline = clock() + int(seconds * 1e9)
    trial = first
    while True:
        end = res.run(trial_fn, check_fn, trial, clock)
        trial += 1
        if end >= deadline and res.attempted >= min_trials:
            return res


def paired_loops(plain, traced, first: int, seconds: float,
                 clock=time.perf_counter_ns):
    """Run the same trials untraced and traced, in alternating blocks.

    `plain` and `traced` are (trial_fn, check_fn, context) triples; context()
    is entered around each of that side's blocks.  Host speed drifts over
    seconds, so the sides take turns (ABBA) on blocks sized by the first
    untraced BLOCK_S, and their rates see the same host.
    """
    sides = [(LoopResult(), *plain), (LoopResult(), *traced)]

    def run_block(side, trials):
        res, trial_fn, check_fn, context = side
        with context():
            for t in trials:
                res.run(trial_fn, check_fn, t, clock)

    deadline = clock() + int(seconds * 1e9)
    res, trial_fn, check_fn, context = sides[0]
    size = 0
    with context():
        block_end = clock() + int(BLOCK_S * 1e9)
        while size == 0 or clock() < block_end:
            res.run(trial_fn, check_fn, first + size, clock)
            size += 1
    run_block(sides[1], range(first, first + size))
    block = 1
    while clock() < deadline or sides[1][0].attempted < MIN_TRIALS:
        trials = range(first + block * size, first + (block + 1) * size)
        for side in (sides if block % 2 == 0 else sides[::-1]):
            run_block(side, trials)
        block += 1
    return sides[0][0], sides[1][0]


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


class Bench:
    """The trial path `dpvqss run` takes, for one workload and seed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.rc = cli.parse_config_text(workload.config)

    def trial(self, trial: int):
        """One trial as cli._run_trials runs it; returns (report, JSON line).

        run_protocol is looked up on the module at every call, so the traced
        run reaches the wrapper that tracing.instrumented installs there.
        """
        rng = np.random.default_rng([self.seed, 0, trial])
        cfg = self.rc.protocol
        report = protocol.run_protocol(
            cfg, protocol.random_secret(cfg, rng), self.rc.plan,
            rng=rng, seed=self.seed, trial=trial,
        )
        return report, report.to_json_line()

    def check(self, out) -> str | None:
        return self.workload.outcome_error(json.loads(out[1]))

    def warm_up(self):
        """Run and check the warm-up trials; returns (lines, failures)."""
        lines, failures = [], []
        for trial in range(self.workload.warmup):
            out = self.trial(trial)
            reason = self.check(out)
            if reason:
                failures.append(f"warm-up trial {trial}: {reason}")
            lines.append(out[1])
        return lines, failures

    def fidelity_error(self, lines) -> str | None:
        """Compare the leading warm-up lines with `dpvqss run --out` output."""
        count = min(FIDELITY_TRIALS, len(lines))
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
            cfg_path = os.path.join(tmp, "workload.cfg")
            out_path = os.path.join(tmp, "runs.jsonl")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(self.workload.config)
            code = cli.main(["run", cfg_path, "--seed", str(self.seed),
                                  "--trials", str(count), "--out", out_path])
            expected_code = 2 if self.workload.abort else 0
            if code != expected_code:
                return f"dpvqss run exited {code}, expected {expected_code}"
            with open(out_path, encoding="utf-8") as fh:
                cli_text = fh.read()
        if cli_text != "".join(line + "\n" for line in lines[:count]):
            return f"first {count} JSON lines differ from dpvqss run output"
        return None


def loop_figures(res: LoopResult) -> dict:
    lat = res.latencies_ns
    if not lat:
        return {"trials_per_s": 0.0, "trial_ms_p50": 0.0, "trial_ms_p90": 0.0,
                "beyond_p90": 0}
    high = p90(lat)
    return {
        "trials_per_s": len(lat) / (res.busy_ns / 1e9),
        "trial_ms_p50": statistics.median(lat) / 1e6,
        "trial_ms_p90": high / 1e6,
        "beyond_p90": sum(v > high for v in lat),
    }


def aggregation_ms(lines) -> float:
    """Median of five timings of one empirical_stats call, as `dpvqss report`."""
    reports = [json.loads(line) for line in lines]
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        metrics.empirical_stats(reports)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def write_spans(rec: SpanRecorder, workload: str):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, trial in rec.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "trial": trial}) + "\n")


def main(argv) -> dict:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = WORKLOADS[name]
    bench = Bench(workload, seed)
    warm_lines, warm_failures = bench.warm_up()
    setup_s = (time.perf_counter_ns() - START_NS) / 1e9
    result = {
        "setup_s": setup_s,
        "digest": hashlib.sha256("\n".join(warm_lines).encode()).hexdigest(),
        "errors": warm_failures,
    }
    if mode == "setup":
        return result

    first = workload.warmup
    if mode == "measure":
        res = timed_loop(bench.trial, bench.check, first, seconds)
        fidelity = bench.fidelity_error(warm_lines)
        result.update(loop_figures(res))
        result.update(
            attempted=res.attempted, failed=len(res.failures),
            samples=len(res.latencies_ns),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        result["errors"] += res.failures[:5] + ([fidelity] if fidelity else [])
        return result

    # mode == "trace": the same trials untraced and traced, interleaved.
    rec = SpanRecorder()
    kept: list[str] = []

    def traced_trial(trial):
        rec.trial = trial
        return bench.trial(trial)

    def traced_check(out):
        report, line = out
        rec.counts["protocol.messages"] += sum(
            r["messages"] for r in report.transcript.summary()
        )
        if len(kept) < AGGREGATED_REPORTS:
            kept.append(line)
        return bench.check(out)

    plain, traced = paired_loops(
        (bench.trial, bench.check, contextlib.nullcontext),
        (traced_trial, traced_check, lambda: instrumented(rec)),
        first, seconds,
    )
    layers, accounting = summarize(rec, traced.attempted)
    write_spans(rec, name)
    layers["metrics.empirical_stats.ms"] = (
        aggregation_ms(kept) if kept else 0.0  # every trial raised
    )
    untraced_rate = loop_figures(plain)["trials_per_s"]
    traced_rate = loop_figures(traced)["trials_per_s"]
    layers["trace.untraced_trials_per_s"] = untraced_rate
    layers["trace.trials_per_s"] = traced_rate
    layers["trace.overhead"] = (
        untraced_rate / traced_rate - 1 if traced_rate else 0.0
    )
    result.update(
        layers=layers,
        attempted=plain.attempted + traced.attempted,
        failed=len(plain.failures) + len(traced.failures),
        samples=len(traced.latencies_ns),
    )
    result["errors"] += (plain.failures + traced.failures)[:5] + accounting[:5]
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
