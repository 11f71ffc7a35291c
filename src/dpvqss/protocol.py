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
and the report renders each distinct view once, claim j as "j:hex".  What
only (config, plan) decides, each round's channels and taps, who lies where
and the pair layout (`_pair_layout`), is built once per pair (`_schedule`),
and so is the report's frame (`_frame`); a trial is draws and arithmetic
over them.  A phase reads its round's registers through their XOR, save those
its liars read, so an untapped round draws its words only to keep the stream.

The secret, registers, slices, reports and shares are plain ints from
the input bytes to the report: the aggregated secret and every register
are n*m bits wide, segment i being bits i*m .. i*m+m-1, and the secret,
each slice, each claimed share and each decoded secret is m bits wide.
`split` returns the aggregated secret itself, agent i's share in segment
i; `bitvec.join` and `bitvec.cut` join and cut segments.  The lies of one
lying action in a phase come from one `falsify` call.  A round draws its
decoy check before it builds its batch, so a round that aborts builds
none.  The transcript records each round only as its phase, its kind and
how many messages it carried; every agent XORs what it receives as it
arrives.  All randomness flows through one injected generator, so a
(config, secret, plan, seed) tuple reproduces a byte-identical report.

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
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import itemgetter, xor

import numpy as np

from . import __version__
from .adversary import (
    AdversaryPlan,
    HONEST_PLAN,
    RogueBehavior,
    falsify,
    hash_once,
    leakage_audit,
    sent_channels,
)
from .bitvec import BitVector, cut, join, random_bits
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
    robust_decode,  # noqa: F401  benchmarks/tracing.py wraps it here
    split,
)

RUN_SCHEMA = "dpvqss.run.v1"


@hash_once
@dataclass(frozen=True)
class ProtocolConfig:
    """Sizes, decoys, source; the hash is kept from first use, not pickled."""
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


@dataclass
class Transcript:
    """Every round in order, as {"phase", "kind", "messages": count} rows."""

    rounds: list[dict] = field(default_factory=list)

    def add(self, phase: str, kind: str, count: int) -> None:
        self.rounds.append({"phase": phase, "kind": kind, "messages": count})

    def summary(self) -> list[dict]:
        return [dict(row) for row in self.rounds]


@dataclass
class AbortInfo:
    phase: str
    cause: str
    detail: dict = field(default_factory=dict)


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

        What every report of (config, plan) repeats comes from `_frame`,
        each agent entry's key included; the encoder runs once per frame.
        The trial's own members are written into it by hand: each agent
        entry from one f-string, each distinct view through the view
        template with one `%`, and the abort, each detection event and
        the leakage block from the fixed shape of their cause or kind.
        Every object's members are written in sorted-key order; a test
        compares the line with a dict-built reference byte for byte.
        """
        m = self.config.m
        adversary, config, metrics, heads, template = _frame(self.config,
                                                             self.plan)
        hex_token, bits_spec = f'"%0{m // 4}x"', f"0{m}b"
        views = {(): ""}  # an aborted run's agents hold no claims
        entries = []
        for i, head in heads:
            a = self.agents[i]
            view = a.claimed_shares
            tokens = views.get(view)
            if tokens is None:
                tokens = views[view] = template % view
            got, s_i = a.reconstructed, a.s_i
            decoded = "null" if got is None else hex_token % got
            received = "null" if s_i is None else f'"{s_i:{bits_spec}}"'
            entries.append(
                f'{head}{_BOOL[a.ambiguous]},"claimed_shares":[{tokens}],'
                f'"loyal":{_BOOL[a.loyal]},"reconstructed":{decoded},'
                f'"recovered_secret":{_BOOL[got == self.secret]},'
                f'"s_i":{received},"support":{_scalar(a.support)}}}'
            )
        info = self.abort
        abort = "null" if info is None else (
            f'{{"cause":"{info.cause}","detail":'
            f'{_DETAILS[info.cause](info.detail)},"phase":"{info.phase}"}}')
        leakage = "null" if self.leakage is None else _LEAKAGE % self.leakage
        events = ",".join([_EVENTS[e["kind"]](e) for e in self.detection_events])
        rounds = ",".join([
            f'{{"kind":"{row["kind"]}","messages":{row["messages"]},'
            f'"phase":"{row["phase"]}"}}' for row in self.transcript.rounds
        ])
        return (
            f'{{"abort":{abort},{adversary},'
            f'"agents":{{{",".join(entries)}}},{config},'
            f'"detection_events":[{events}],'
            f'"leakage":{leakage},{metrics},"rounds":[{rounds}],'
            f'"schema":"{RUN_SCHEMA}","secret":{hex_token % self.secret},'
            f'"seed":{_scalar(self.seed)},"trial":{_scalar(self.trial)},'
            f'"verdict":"{self.verdict}","version":"{__version__}"}}'
        )

    def to_dict(self) -> dict:
        """The report as a dict: `to_json_line` parsed."""
        return json.loads(self.to_json_line())


_BOOL = {False: "false", True: "true"}


def _scalar(value: int | None) -> str:
    return "null" if value is None else str(value)


def _pair(pair: list[int] | None) -> str:
    return "null" if pair is None else f"[{pair[0]},{pair[1]}]"


# One shape per abort cause's detail, detection event kind and leakage
# block, keys sorted; the values are ints, pairs or strings needing no escape.
_DETAILS = {
    "decoy_mismatch": lambda d: (f'{{"mismatches":{d["mismatches"]},'
                                 f'"pair":{_pair(d["pair"])}}}'),
    "verification_failed": lambda d: (f'{{"computed":"{d["computed"]}",'
                                      f'"expected":"{d["expected"]}"}}'),
}
_EVENTS = {
    "decoy_mismatch": lambda e: (
        f'{{"count":{e["count"]},"kind":"decoy_mismatch",'
        f'"pair":{_pair(e["pair"])},"phase":"{e["phase"]}"}}'),
    "xor_mismatch": lambda e: (
        f'{{"computed":"{e["computed"]}","expected":"{e["expected"]}",'
        f'"kind":"xor_mismatch","phase":"{e["phase"]}"}}'),
    "ambiguous_decode": lambda e: (
        f'{{"agent":{e["agent"]},"kind":"ambiguous_decode",'
        f'"phase":"{e["phase"]}","support":{e["support"]}}}'),
}
_LEAKAGE = ('{"phase1_tv":"%(phase1_tv)s","phase2_tv":"%(phase2_tv)s",'
            '"phase3_tv":"%(phase3_tv)s","reference":"%(reference)s"}')


# The one canonical encoder: sorted keys, no spaces.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=1024)
def _frame(cfg: ProtocolConfig, plan: AdversaryPlan):
    """The members every report of (cfg, plan) repeats, rendered once: the
    "adversary" and "config" members (the plan's and the config's fields,
    tuples as lists), "config_hash", "metrics", the agents in sorted-key
    order ("10" before "2"), each with its entry's text up to "ambiguous",
    and the view template: claim j as "j:hex", m / 4 digits, all n claims
    rendered by one `%`.  The hash is of {"adversary", "config"}."""
    adversary = canonical_json(asdict(plan))
    config = canonical_json(asdict(cfg))
    blob = f'{{"adversary":{adversary},"config":{config}}}'
    return (
        f'"adversary":{adversary}',
        f'"config":{config},'
        f'"config_hash":"{hashlib.sha256(blob.encode()).hexdigest()[:16]}"',
        f'"metrics":{canonical_json(efficiency_report(cfg.n, cfg.m))}',
        tuple((i, f'"{i}":{{"ambiguous":')
              for i in sorted(range(cfg.n), key=str)),
        ",".join([f'"{j}:%0{cfg.m // 4}x"' for j in range(cfg.n)]),
    )


_Round = namedtuple("_Round", "label sent taps encoders read")
_Schedule = namedtuple("_Schedule", "phase1 phase2 phase3 phase1_lies "
                       "oracle report layout")


@lru_cache(maxsize=1024)
def _schedule(cfg: ProtocolConfig, plan: AdversaryPlan) -> _Schedule:
    """What every trial of (cfg, plan) repeats in its phases, built once,
    as tuples: each phase's `_Round`, `read` being the registers its liars
    read; phase 1's lies as (receiver, liar) and phase 3's as (pair, side),
    in the order they go out; and the pair layout."""
    n, rogues = cfg.n, plan.rogues
    liars = dict.fromkeys(rogues.actions, tuple(sorted(rogues.agents)))
    pairs, _, _ = layout = _pair_layout(n)
    # Phase-3 lies go out pair by pair, the first agent first.
    oracle, report = (tuple((q, side) for q, pair in enumerate(pairs)
                            for side in (0, 1) if pair[side] in agents)
                      for agents in (liars.get("lie_phase3_oracle", ()),
                                     liars.get("lie_phase3_report", ())))
    rounds = []
    for phase, encoders, read in (
            (1, (n,), liars.get("lie_phase1_comms", ())),
            (2, tuple(range(n)), liars.get("lie_phase2_report", ())),
            (3, (0, 1), tuple(sorted({side for _, side in report})))):
        sent = tuple(sent_channels(phase, n, cfg.source))
        taps = tuple(plan.eve.taps_for(phase, sent).items())
        rounds.append(_Round(f"phase{phase}", sent, taps, encoders, read))
    return _Schedule(
        *rounds,
        tuple((i, j) for i in range(n) for j in rounds[0].read if j != i),
        oracle, report, layout,
    )


def _run_quantum_round(cfg, rng, transcript, detection, round_, *, r, p,
                       phase_bits, pairs=(None,)):
    """Check the decoys of len(pairs) rounds of p positions, then distribute
    one batch for them and draw every position at once.

    Round q holds bits q*p .. q*p+p-1 of every phase word and register.
    Each round started adds the registers it sends to the phase's quantum
    row.  The decoy check of every round is one Binomial(d*t, 1/4) draw,
    for d decoys on each of the t tapped channels, all made by one
    `decoy_mismatches` call; an untapped or decoy-free round draws nothing.
    The first round with a mismatch raises Aborted, labelled with its entry
    of `pairs`, and builds no batch.  `_read_law` treats each position on
    its own, so the one draw follows the law of the separate rounds.
    Returns the XOR of the registers, and the registers in `round_.read`.
    """
    phase, transmitted, taps, encoders, read = round_
    counts = decoy_mismatches(cfg.decoys, len(taps), len(pairs), rng)
    # The first nonzero count is the first mismatch; every round up to it
    # started, and with none every round did.
    mismatches = next(filter(None, counts), 0)
    started = counts.index(mismatches) + 1 if mismatches else len(pairs)
    transcript.add(phase, "quantum", len(transmitted) * started)
    if mismatches:
        pair = pairs[started - 1]
        where = {"pair": list(pair) if pair else None}
        detection.append({
            "phase": phase, "kind": "decoy_mismatch",
            "count": mismatches, **where,
        })
        raise Aborted(AbortInfo(phase, "decoy_mismatch",
                                {"mismatches": mismatches, **where}))
    batch = distribute(r, p * len(pairs), taps, transmitted, encoders)
    outcome = batch.encode_and_measure(phase_bits, rng, read)
    return outcome.total, outcome.registers


def phase1_distribute(cfg: ProtocolConfig, s: int, plan: AdversaryPlan,
                      rng, transcript: Transcript, detection: list[dict]):
    """Run the distribution circuit plus its one parallel classical round.

    `s` is the n*m-bit aggregated secret.  Returns the per-agent received
    m-bit slices.
    """
    n, m = cfg.n, cfg.m
    if s < 0 or s >> (n * m):
        raise ValueError(f"secret {s:#x} does not fit in n*m = {n * m} bits")
    sched = _schedule(cfg, plan)

    total, registers = _run_quantum_round(
        cfg, rng, transcript, detection, sched.phase1, r=n + 1, p=n * m,
        phase_bits={n: s},
    )

    # One parallel round of n * n messages: the source and every agent j
    # send segment i to agent i, who XORs them into his own segment i, so
    # honest slices are the segments of the XOR of every register.  A liar
    # j's lie to agent i replaces his segment i; the lies go out agent by
    # agent, liars in order.
    inputs = cut(total, n, m)
    lies = sched.phase1_lies
    if lies:
        mask = (1 << m) - 1
        deltas = _lie_deltas(plan.rogues, [registers[j] >> i * m & mask
                                           for i, j in lies], m, rng)
        for (i, _), delta in zip(lies, deltas):
            inputs[i] ^= delta
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
    sched = _schedule(cfg, plan)

    computed, registers = _run_quantum_round(
        cfg, rng, transcript, detection, sched.phase2, r=n + 1, p=n * m,
        phase_bits={i: agent_inputs[i] << (i * m) for i in range(n)},
    )

    # One parallel round: every agent reports his outcome to the source.
    liars = sched.phase2.read
    if liars:
        computed ^= reduce(xor, _lie_deltas(
            plan.rogues, [registers[i] for i in liars], n * m, rng))
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
    sched = _schedule(cfg, plan)
    pairs, sides, view_getters = sched.layout
    count = len(pairs)
    rogues = plan.rogues

    # What each agent embeds: honest agents their received slice, phase-3
    # oracle liars a falsified vector (fresh per pair in random mode).
    # Pair q's two embeddings are segment q of the two phase words.
    embedded = [list(map(agent_inputs.__getitem__, side)) for side in sides]
    oracle = sched.oracle
    if oracle:
        deltas = _lie_deltas(rogues, [embedded[side][q] for q, side in oracle],
                             m, rng)
        for (q, side), delta in zip(oracle, deltas):
            embedded[side][q] ^= delta
    words = [join(side, m) for side in embedded]
    outcomes, registers = _run_quantum_round(
        cfg, rng, transcript, detection, sched.phase3, r=2, p=m,
        phase_bits={0: words[0], 1: words[1]}, pairs=pairs,
    )

    # One parallel classical round carrying all n(n-1) directed reports.
    # Agent i's claim for j is his outcome in the exchange with j, XOR j's
    # report of j's outcome, XOR his own embedding; for j = i his own slice
    # (a liar still privately knows what he embedded).  With honest reports
    # that is segment q of both outcomes XORed, XOR his embedding, so the
    # claims of the pairs' first agents are the segments of one word and
    # those of their second agents of another; a liar's lie replaces his
    # report, segment q of his register, and so changes the claim his
    # partner holds for him.
    claims = (cut(outcomes ^ words[0], count, m)
              + cut(outcomes ^ words[1], count, m) + list(agent_inputs))
    report = sched.report
    if report:
        mask = (1 << m) - 1
        deltas = _lie_deltas(rogues, [registers[side] >> q * m & mask
                                      for q, side in report], m, rng)
        for (q, side), delta in zip(report, deltas):
            claims[q + count * (1 - side)] ^= delta
    transcript.add("phase3", "classical", n * (n - 1))

    views = [view(claims) for view in view_getters]
    decoded = decode_views(list(dict.fromkeys(views)), cfg.split_config, m)
    results = []
    for i, view in enumerate(views):
        secret, support = decoded[view]
        res = AgentResult(i, i not in rogues.agents, agent_inputs[i], view,
                          secret, support, secret is None)
        if res.ambiguous:
            detection.append({"phase": "phase3", "kind": "ambiguous_decode",
                              "agent": i, "support": support})
        results.append(res)
    return results


@lru_cache(maxsize=16)
def _pair_layout(n: int):
    """Phase 3's pairs and where their segments go, built once per n.

    Pair q is the q-th of `combinations(range(n), 2)`.  The directed claims
    are listed as segment q of the first agents' claims (the first agent's
    claim for the second) for every q, then the same for the second agents,
    then every agent's own slice.  Returns the pairs, each side's agent per
    pair, and per agent an itemgetter that cuts its view (its claim for
    each agent, in agent order) from that list.
    """
    pairs = tuple(combinations(range(n), 2))
    count = len(pairs)
    at = [[2 * count + i] * n for i in range(n)]
    for q, (i, j) in enumerate(pairs):
        at[i][j] = q
        at[j][i] = count + q
    return pairs, tuple(zip(*pairs)), tuple(itemgetter(*row) for row in at)


def _lie_deltas(rogues: RogueBehavior, payloads: list[int], length: int,
                rng) -> list[int]:
    """What the lies of one lying action XOR into their honest length-bit
    payloads: one `falsify` call."""
    lies = falsify(payloads, length, rogues.mode, rogues.fixed_value, rng)
    return list(map(xor, payloads, lies))


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
    s = split(secret_bits, cfg.split_config, cfg.m, rng)

    transcript = Transcript()
    detection: list[dict] = []
    leakage = _leakage_block(cfg, plan, s) if audit else None
    abort = None
    inputs = [None] * cfg.n
    try:
        inputs = phase1_distribute(cfg, s, plan, rng, transcript, detection)
        phase2_verify(cfg, inputs, s, plan, rng, transcript, detection)
        agents = phase3_consolidate(cfg, inputs, plan, rng, transcript,
                                    detection)
    except Aborted as err:
        # Keep the info only: a stored exception's traceback would hold
        # this frame, which holds the exception, until the cycle collector.
        abort = err.info
        agents = [AgentResult(i, i not in plan.rogues.agents, s_i)
                  for i, s_i in enumerate(inputs)]
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
