"""The benchmark's workloads and the outcome each trial must reach.

Every workload is the flat config text that `dpvqss run` accepts, so the
benchmark drives the same parser and protocol path a user does.  Each one
stresses a different layer (see README.md for the predictions):

- honest:    per-trial object overhead; the decoder exits early, no qsim.
- liar:      robust_decode searching all C(9, 5) subsets for 8 loyal agents.
- eve_tap:   dense 12-qubit per-tuple simulation in encode_and_measure.
- eve_decoy: thousands of one-qubit decoy simulations in transmit/verify.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # flat config text, as `dpvqss run CONFIG` reads it
    warmup: int  # trials run (and checked) before timing starts
    abort: tuple[str, str] | None  # expected (phase, cause); None = recover

    def outcome_error(self, report: dict) -> str | None:
        """Why one trial's JSON report misses the expected outcome, or None."""
        if self.abort is None:
            if report["verdict"] != "proceed":
                return f"expected proceed, got abort {report['abort']}"
            lost = [
                idx for idx, agent in report["agents"].items()
                if agent["loyal"] and not agent["recovered_secret"]
            ]
            if lost:
                return f"loyal agents {lost} did not recover the secret"
            return None
        abort = report["abort"]
        got = (abort["phase"], abort["cause"]) if abort else None
        if report["verdict"] != "abort" or got != self.abort:
            return f"expected abort {self.abort}, got {report['verdict']} {got}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "honest",
            "protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
            "protocol.w = 8\nprotocol.decoys = 16\n",
            warmup=50, abort=None,
        ),
        Workload(
            "liar",
            "protocol.n = 9\nprotocol.k = 5\nprotocol.m = 16\n"
            "adversary.rogues.agents = 8\n"
            "adversary.rogues.actions = lie_phase3_oracle,lie_phase3_report\n"
            "adversary.rogues.mode = random\n",
            warmup=4, abort=None,
        ),
        Workload(
            "eve_tap",
            "protocol.n = 5\nprotocol.k = 3\nprotocol.m = 8\n"
            "protocol.decoys = 0\n"
            "adversary.eve.kind = entangle_measure\n"
            "adversary.eve.phases = 1\nadversary.eve.channel = all\n",
            warmup=4, abort=("phase2", "verification_failed"),
        ),
        Workload(
            "eve_decoy",
            "protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
            "protocol.decoys = 16\n"
            "adversary.eve.kind = intercept_resend\n"
            "adversary.eve.basis = random\nadversary.eve.phases = 1,2,3\n",
            warmup=20, abort=("phase1", "decoy_mismatch"),
        ),
    )
}
