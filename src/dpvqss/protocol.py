"""The three protocol phases and the end-to-end run orchestrator.

Phase 1 (distribution): the source and the n agents share GHZ_(n+1) tuples
over n*m positions; the source phases the aggregated secret into her
register, everyone applies Hadamards and measures, and one parallel
classical round fans the per-segment outcomes out so that agent i can
solve for his own m-bit slice.

Phase 2 (verification): a fresh batch; every agent phases his received
slice (shifted into his segment) into his own circuit, the source
collects all reported outcomes in one parallel round and checks that the
XOR chain reproduces the original secret.  Any discrepancy aborts.

Phase 3 (consolidation): every unordered pair of agents runs an
independent Bell-pair exchange.  The n(n-1)/2 exchanges are one batch of
n(n-1)/2 * m positions, drawn at once, with a decoy check per pair; a
single parallel round carries all n(n-1) directed reports, after which
each agent robustly decodes his n collected shares, his view: one
`decode_views` call decodes the distinct views, sharing one interpolation,
and the report renders each distinct (agent, claim) token once.

The secret, registers, slices, reports and shares are plain ints from
the input bytes to the report: the aggregated secret and every register
are n*m bits wide, segment i being bits i*m .. i*m+m-1, and the secret,
each slice, each claimed share and each decoded secret is m bits wide, so
the phases cut and place segments with shifts and masks.  The transcript
records each quantum or classical round only as its phase, its kind and
how many messages it carried; every agent XORs what it receives as it
arrives.  All randomness flows through one
injected generator, so a (config, secret, plan, seed) tuple reproduces a
byte-identical report.

A run stops in one of two ways.  Either every phase returns what the
agents hold after it (phase 1 the slices, phase 2 nothing, phase 3 the
agents' results), or a decoy check or the phase-2 XOR check catches a
mismatch and the phase raises `Aborted`.  Each phase appends its rounds to
the transcript and its detection records to the list it is handed, so an
aborted run keeps every row up to the abort; `run_protocol` catches
`Aborted` once and keeps only its `AbortInfo`.  Which registers a round
sends, and so which channels Eve can tap, is `adversary.sent_channels`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import xor

import numpy as np

from . import __version__
from .adversary import (
    AdversaryPlan,
    HONEST_PLAN,
    RogueBehavior,
    falsify,
    leakage_audit,
    sent_channels,
)
from .bitvec import BitVector, random_bits
from .entangle import (
    decoy_mismatches,
    distribute,
    insert_decoys,  # noqa: F401  benchmarks/tracing.py wraps it here
    transmit,  # noqa: F401  benchmarks/tracing.py wraps it here
    verify_decoys,  # noqa: F401  benchmarks/tracing.py wraps it here
)
from .metrics import efficiency_report
from .threshold import (
    SplitConfig,
    decode_views,
    pack,
    robust_decode,  # noqa: F401  benchmarks/tracing.py wraps it here
    share_token,
    split,
)

RUN_SCHEMA = "dpvqss.run.v1"


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    k: int
    m: int
    w: int = 8
    decoys: int = 16
    source: str = "alice"

    def __post_init__(self):
        self.split_config  # reuse the k > n/2 etc. checks
        if self.m < 1:
            raise ValueError(f"need m >= 1, got m={self.m}")
        if self.source not in ("alice", "third_party"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.decoys < 0:
            raise ValueError("decoy count must be nonnegative")

    @cached_property
    def split_config(self) -> SplitConfig:
        return SplitConfig(self.k, self.n, self.w)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "m": self.m, "w": self.w,
            "decoys": self.decoys,
            "source": self.source,
        }


@dataclass
class Transcript:
    """Every round in order, as {"phase", "kind", "messages": count} rows."""

    rounds: list[dict] = field(default_factory=list)

    def add(self, phase: str, kind: str, count: int) -> dict:
        row = {"phase": phase, "kind": kind, "messages": count}
        self.rounds.append(row)
        return row

    def summary(self) -> list[dict]:
        return [dict(row) for row in self.rounds]


@dataclass
class AbortInfo:
    phase: str
    cause: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"phase": self.phase, "cause": self.cause, "detail": self.detail}


class Aborted(Exception):
    """A decoy check or the phase-2 XOR check caught a mismatch."""

    def __init__(self, info: AbortInfo):
        super().__init__(f"{info.phase}: {info.cause}")
        self.info = info


@dataclass
class AgentResult:
    index: int
    loyal: bool
    s_i: int | None = None  # the m-bit slice received in phase 1
    # The agent's view: claim j is the m-bit share it holds for agent j.
    claimed_shares: tuple[int, ...] = ()
    reconstructed: int | None = None  # the decoded m-bit secret
    support: int | None = None
    ambiguous: bool = False


@dataclass
class RunReport:
    config: ProtocolConfig
    plan: AdversaryPlan
    secret: int  # m bits; hex digits render w-bit elements, element 0 last
    verdict: str
    abort: AbortInfo | None
    agents: list[AgentResult]
    detection_events: list[dict]
    transcript: Transcript
    seed: int | None = None
    trial: int | None = None
    leakage: dict | None = None

    def to_json_line(self) -> str:
        """The report as one canonical JSON line: keys sorted, no spaces.

        What every report of (config, plan) repeats comes from `_frame`.
        The trial's own members are written into it: each agent entry from
        one f-string, each distinct view's tokens joined once, each
        distinct (agent, claim) token formatted once by `share_token`.
        Only the open-ended members go through the encoder.  Every object's
        members are written in sorted-key order by hand; a test compares
        the line with a dict-built reference byte for byte.
        """
        cfg = self.config
        adversary, config, metrics, order = _frame(cfg, self.plan)
        digits = cfg.m // 4
        tokens: dict[tuple[int, int], str] = {}
        views: dict[tuple[int, ...], str] = {}
        entries = []
        for i in order:
            a = self.agents[i]
            view = a.claimed_shares
            shown = views.get(view)
            if shown is None:
                parts = []
                for claim in enumerate(view):
                    token = tokens.get(claim)
                    if token is None:
                        token = tokens[claim] = f'"{share_token(*claim, cfg.m)}"'
                    parts.append(token)
                shown = views[view] = ",".join(parts)
            got, s_i = a.reconstructed, a.s_i
            decoded = "null" if got is None else f'"{got:0{digits}x}"'
            received = "null" if s_i is None else f'"{s_i:0{cfg.m}b}"'
            entries.append(
                f'"{i}":{{"ambiguous":{_BOOL[a.ambiguous]},'
                f'"claimed_shares":[{shown}],"loyal":{_BOOL[a.loyal]},'
                f'"reconstructed":{decoded},'
                f'"recovered_secret":{_BOOL[got == self.secret]},'
                f'"s_i":{received},"support":{_scalar(a.support)}}}'
            )
        abort = canonical_json(self.abort.to_dict()) if self.abort else "null"
        leakage = "null" if self.leakage is None else canonical_json(self.leakage)
        rounds = ",".join([
            f'{{"kind":"{row["kind"]}","messages":{row["messages"]},'
            f'"phase":"{row["phase"]}"}}' for row in self.transcript.rounds
        ])
        return (
            f'{{"abort":{abort},{adversary},'
            f'"agents":{{{",".join(entries)}}},{config},'
            f'"detection_events":{canonical_json(self.detection_events)},'
            f'"leakage":{leakage},{metrics},"rounds":[{rounds}],'
            f'"schema":"{RUN_SCHEMA}","secret":"{self.secret:0{digits}x}",'
            f'"seed":{_scalar(self.seed)},"trial":{_scalar(self.trial)},'
            f'"verdict":"{self.verdict}","version":"{__version__}"}}'
        )

    def to_dict(self) -> dict:
        """The report as a dict: `to_json_line` parsed."""
        return json.loads(self.to_json_line())


_BOOL = {False: "false", True: "true"}


def _scalar(value: int | None) -> str:
    return "null" if value is None else str(value)


# The one canonical encoder: sorted keys, no spaces.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=1024)
def _frame(cfg: ProtocolConfig, plan: AdversaryPlan):
    """The members every report of (cfg, plan) repeats, rendered once: the
    "adversary" member, the "config" and "config_hash" members, the
    "metrics" member, and the agents in the order sorted keys give them
    ("10" before "2").  The hash is of {"adversary", "config"} as
    canonical JSON."""
    adversary = canonical_json(plan_to_dict(plan))
    config = canonical_json(cfg.to_dict())
    blob = f'{{"adversary":{adversary},"config":{config}}}'
    return (
        f'"adversary":{adversary}',
        f'"config":{config},'
        f'"config_hash":"{hashlib.sha256(blob.encode()).hexdigest()[:16]}"',
        f'"metrics":{canonical_json(efficiency_report(cfg.n, cfg.m))}',
        tuple(sorted(range(cfg.n), key=str)),
    )


def plan_to_dict(plan: AdversaryPlan) -> dict:
    return {
        "eve": {
            "kind": plan.eve.kind,
            "basis": plan.eve.basis,
            "phases": list(plan.eve.phases),
            "channel": plan.eve.channel,
        },
        "rogues": {
            "agents": list(plan.rogues.agents),
            "actions": list(plan.rogues.actions),
            "mode": plan.rogues.mode,
            "fixed_value": plan.rogues.fixed_value,
        },
    }


def _run_quantum_round(cfg, plan, rng, transcript, detection, *, phase, r,
                       p, encoders, phase_bits, pairs=(None,)):
    """Distribute one batch for len(pairs) rounds of p positions, check each
    round's decoys, then draw every position at once.

    Round q holds bits q*p .. q*p+p-1 of every phase word and register.
    Each round started adds the registers it sends to the phase's quantum
    row.  The decoy check of every round is one Binomial(d*t, 1/4) draw,
    for d decoys on each of the t tapped channels, all made by one
    `decoy_mismatches` call; an untapped or decoy-free round draws nothing.
    The first round with a mismatch raises Aborted, labelled with its entry
    of `pairs`.  `_read_law` treats each position on its own, so the one
    draw follows the law of the separate rounds.  Returns the RoundOutcome.
    """
    transmitted = sent_channels(phase, cfg.n, cfg.source)
    taps = plan.eve.taps_for(phase, transmitted)
    batch = distribute(r, p * len(pairs), taps=taps, transmitted=transmitted,
                       encoders=encoders)
    counts = decoy_mismatches(cfg.decoys, len(taps), len(pairs), rng)
    row = transcript.add(f"phase{phase}", "quantum", 0)
    for pair, mismatches in zip(pairs, counts):
        row["messages"] += len(transmitted)
        if mismatches:
            where = {"pair": list(pair) if pair else None}
            detection.append({
                "phase": f"phase{phase}", "kind": "decoy_mismatch",
                "count": mismatches, **where,
            })
            raise Aborted(AbortInfo(f"phase{phase}", "decoy_mismatch",
                                    {"mismatches": mismatches, **where}))
    return batch.encode_and_measure(phase_bits, rng)


def phase1_distribute(cfg: ProtocolConfig, s: int, plan: AdversaryPlan,
                      rng, transcript: Transcript, detection: list[dict]):
    """Run the distribution circuit plus its one parallel classical round.

    `s` is the n*m-bit aggregated secret.  Returns the per-agent received
    m-bit slices.
    """
    n, m = cfg.n, cfg.m
    if not 0 <= s < 1 << (n * m):
        raise ValueError(f"secret {s:#x} does not fit in n*m = {n * m} bits")

    registers = _run_quantum_round(
        cfg, plan, rng, transcript, detection, phase=1, r=n + 1, p=n * m,
        encoders=(n,), phase_bits={n: s},
    ).registers

    # One parallel round of n * n messages: the source and every agent j
    # send segment i to agent i, who XORs them into his own segment i, so
    # honest slices are the segments of the XOR of every register.  A liar
    # j's lie to agent i replaces his segment i.
    mask = (1 << m) - 1
    total = reduce(xor, registers)
    if not plan.eve.is_active_in(1):
        assert total == s, "distribution round broke its XOR constraint"
    inputs = [total >> (i * m) & mask for i in range(n)]
    liars = _liars(plan.rogues, "lie_phase1_comms")
    for i in range(n):
        for j in liars:
            if j != i:
                seg = registers[j] >> (i * m) & mask
                inputs[i] ^= _lie_delta(plan.rogues, seg, m, rng)
    transcript.add("phase1", "classical", n * n)
    return inputs


def phase2_verify(cfg: ProtocolConfig, agent_inputs, s: int,
                  plan: AdversaryPlan, rng, transcript: Transcript,
                  detection: list[dict]) -> None:
    """Every agent phases his m-bit slice, shifted into his segment, into a
    fresh batch; the source checks the XOR chain against the n*m-bit secret.

    Raises Aborted on an XOR mismatch.
    """
    n, m = cfg.n, cfg.m
    if len(agent_inputs) != n:
        raise ValueError(f"need one input vector per agent, got {len(agent_inputs)}")

    registers = _run_quantum_round(
        cfg, plan, rng, transcript, detection, phase=2, r=n + 1, p=n * m,
        encoders=tuple(range(n)),
        phase_bits={i: agent_inputs[i] << (i * m) for i in range(n)},
    ).registers

    # One parallel round: every agent reports his outcome to the source.
    computed = reduce(xor, registers)
    for i in _liars(plan.rogues, "lie_phase2_report"):
        computed ^= _lie_delta(plan.rogues, registers[i], n * m, rng)
    transcript.add("phase2", "classical", n)
    if computed != s:
        shown = {"computed": format(computed, f"0{n * m}b"),
                 "expected": format(s, f"0{n * m}b")}
        detection.append({"phase": "phase2", "kind": "xor_mismatch", **shown})
        raise Aborted(AbortInfo("phase2", "verification_failed", shown))


def phase3_consolidate(cfg: ProtocolConfig, agent_inputs, plan: AdversaryPlan,
                       rng, transcript: Transcript, detection: list[dict]):
    """All n(n-1)/2 pairwise exchanges as one draw, one parallel round of
    n(n-1) reports, then one `decode_views` call on the distinct views.

    Returns the agent results.
    """
    n, m = cfg.n, cfg.m
    pairs = list(combinations(range(n), 2))

    # What each agent embeds: honest agents their received slice, phase-3
    # oracle liars a falsified vector (fresh per pair in random mode).
    # Pair q's two embeddings are bits q*m .. q*m+m-1 of the phase words.
    words = [0, 0]
    oracle_liars = _liars(plan.rogues, "lie_phase3_oracle")
    for q, pair in enumerate(pairs):
        for side, agent in enumerate(pair):
            vec = agent_inputs[agent]
            if agent in oracle_liars:
                vec ^= _lie_delta(plan.rogues, vec, m, rng)
            words[side] |= vec << (q * m)
    registers = _run_quantum_round(
        cfg, plan, rng, transcript, detection, phase=3, r=2, p=m,
        encoders=(0, 1), phase_bits={0: words[0], 1: words[1]}, pairs=pairs,
    ).registers

    # One parallel classical round carrying all n(n-1) directed reports.
    # views[i][j] is the share agent i claims for j: his outcome in the
    # exchange with j, XOR j's report of j's outcome, XOR his own embedding;
    # for j = i his own slice (a liar still privately knows what he
    # embedded).  With honest reports that is segment q of both outcomes
    # XORed, XOR his embedding; a liar's lie replaces his report.
    mask = (1 << m) - 1
    outcomes = registers[0] ^ registers[1]
    to_first, to_second = outcomes ^ words[0], outcomes ^ words[1]
    liars = _liars(plan.rogues, "lie_phase3_report")
    views = [list(agent_inputs) for _ in range(n)]
    for q, (i, j) in enumerate(pairs):
        shift = q * m
        views[i][j] = to_first >> shift & mask
        views[j][i] = to_second >> shift & mask
        if i in liars:
            out_i = registers[0] >> shift & mask
            views[j][i] ^= _lie_delta(plan.rogues, out_i, m, rng)
        if j in liars:
            out_j = registers[1] >> shift & mask
            views[i][j] ^= _lie_delta(plan.rogues, out_j, m, rng)
    transcript.add("phase3", "classical", n * (n - 1))

    views = [tuple(view) for view in views]
    decoded = decode_views(list(dict.fromkeys(views)), cfg.split_config, m)
    results = []
    for i, view in enumerate(views):
        secret, support = decoded[view]
        res = AgentResult(i, i not in plan.rogues.agents, s_i=agent_inputs[i],
                          claimed_shares=view, reconstructed=secret,
                          support=support, ambiguous=secret is None)
        if res.ambiguous:
            detection.append({"phase": "phase3", "kind": "ambiguous_decode",
                              "agent": i, "support": support})
        results.append(res)
    return results


def _liars(rogues: RogueBehavior, action: str) -> list[int]:
    """The agents who lie in `action`, in agent order."""
    return sorted(rogues.agents) if action in rogues.actions else []


def _lie_delta(rogues: RogueBehavior, payload: int, length: int, rng) -> int:
    """What a liar's lie XORs into his honest length-bit payload."""
    return payload ^ falsify(payload, length, rogues.mode, rogues.fixed_value, rng)


def run_protocol(cfg: ProtocolConfig, secret: bytes, plan: AdversaryPlan = HONEST_PLAN,
                 rng=None, seed: int | None = None,
                 trial: int | None = None, audit: bool = False) -> RunReport:
    """Split, distribute, verify, consolidate; deterministic given
    (config, secret, plan, seed).

    With audit=True the report carries a leakage block: exact
    total-variation distances of the eavesdropper's view between this run's
    secret and the all-zero reference secret.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    plan.validate(cfg)
    secret_length(cfg, secret)
    # Read big-endian, the bytes are the packed elements, element 0 last.
    secret_bits = int.from_bytes(secret, "big")

    # Agent i's share is segment i of the aggregated n*m-bit secret.
    s = pack(split(secret_bits, cfg.split_config, cfg.m, rng), cfg.m)

    transcript = Transcript()
    detection: list[dict] = []
    agents = [
        AgentResult(i, i not in plan.rogues.agents) for i in range(cfg.n)
    ]
    leakage = _leakage_block(cfg, plan, s) if audit else None
    abort = None
    try:
        inputs = phase1_distribute(cfg, s, plan, rng, transcript, detection)
        for agent, vec in zip(agents, inputs):
            agent.s_i = vec
        phase2_verify(cfg, inputs, s, plan, rng, transcript, detection)
        agents = phase3_consolidate(cfg, inputs, plan, rng, transcript,
                                    detection)
    except Aborted as err:
        # Keep the info only: a stored exception's traceback would hold
        # this frame, which holds the exception, until the cycle collector.
        abort = err.info
    return RunReport(
        config=cfg, plan=plan, secret=secret_bits,
        verdict="proceed" if abort is None else "abort", abort=abort,
        agents=agents, detection_events=detection, transcript=transcript,
        seed=seed, trial=trial, leakage=leakage,
    )


def _leakage_block(cfg: ProtocolConfig, plan: AdversaryPlan, s: int):
    """Exact view-distance audit of this run's secret against the zero secret."""
    block: dict = {"reference": "zero-secret"}
    for phase in (1, 2, 3):
        tv = leakage_audit(plan.eve, cfg, s, 0, phase=phase)
        block[f"phase{phase}_tv"] = f"{tv.numerator}/{tv.denominator}"
    return block


def secret_length(cfg: ProtocolConfig, secret: bytes | None = None) -> int:
    """The byte length of a secret under cfg, m / 8: w is 4 or 8, so a
    secret of whole bytes is a whole number of field elements.

    Raises ValueError unless 8 | m and `secret`, if given, has exactly that
    many bytes.
    """
    if cfg.m % 8:
        raise ValueError(f"secrets are whole bytes, so m must be a multiple "
                         f"of 8, got m={cfg.m}")
    n_bytes = cfg.m // 8
    if secret is not None and len(secret) != n_bytes:
        raise ValueError(
            f"secret has {len(secret)} bytes, but m={cfg.m}, w={cfg.w} "
            f"requires {n_bytes}"
        )
    return n_bytes


def random_secret(cfg: ProtocolConfig, rng) -> bytes:
    """A uniformly random secret of the byte length cfg requires."""
    n_bytes = secret_length(cfg)
    bits = 8 * n_bytes
    # The bench harness counts this BitVector; ROADMAP item 1 retires its count.
    return BitVector(random_bits(bits, rng), bits).value.to_bytes(n_bytes, "little")
