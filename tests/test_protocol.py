import copy
import gc
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from dpvqss import protocol, threshold
from dpvqss.adversary import AdversaryPlan, EveStrategy, RogueBehavior
from dpvqss.bitvec import cut, join, random_bits
from dpvqss.protocol import (
    Aborted,
    ProtocolConfig,
    Transcript,
    phase1_distribute,
    phase2_verify,
    phase3_consolidate,
    random_secret,
    run_protocol,
    secret_length,
)
from dpvqss.threshold import (
    AmbiguousDecodeError,
    robust_decode,
    split,
)
from chi_square import binomial_fit_p
from report_reference import canonical_json, report_dict
from threshold_reference import reference_decode

HONEST = AdversaryPlan()
PAIRS_4 = list(combinations(range(4), 2))


def segments_of(s, n, m):
    return [(s >> (i * m)) & ((1 << m) - 1) for i in range(n)]


class TestSegments:
    # Numpy reads 8, 16, 32 and 64 bits, other whole bytes are sliced, and
    # widths that end mid-byte shift.
    @pytest.mark.parametrize("m", [4, 8, 12, 16, 24, 32, 40, 64, 128, 136])
    def test_cut_and_join_match_shifts(self, m):
        rng = np.random.default_rng([85, m])
        for count in (1, 3, 36):
            word = random_bits(count * m, rng)
            segments = cut(word, count, m)
            assert segments == segments_of(word, count, m)
            assert join(segments, m) == word


class TestConfig:
    def test_validation(self):
        ProtocolConfig(n=5, k=3, m=16)
        with pytest.raises(ValueError):
            ProtocolConfig(n=4, k=2, m=8)  # k <= n/2

    @pytest.mark.parametrize("m, w, n_bytes", [
        (8, 4, 1), (16, 4, 2), (8, 8, 1), (16, 8, 2),
        (12, 4, None), (4, 4, None), (3, 8, None), (12, 8, None),
    ])
    def test_secret_length_needs_whole_bytes(self, m, w, n_bytes):
        # w is 4 or 8, so whole field elements in whole bytes means 8 | m.
        cfg = ProtocolConfig(n=3, k=2, m=m, w=w)
        if n_bytes is None:
            with pytest.raises(ValueError, match="multiple of 8"):
                secret_length(cfg)
        else:
            assert secret_length(cfg) == n_bytes
            assert secret_length(cfg, bytes(n_bytes)) == n_bytes


class TestPhase1:
    def test_honest_sampler_recovers_segments(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        rng = np.random.default_rng(80)
        for _ in range(300):
            s = random_bits(cfg.n * cfg.m, rng)
            inputs = phase1_distribute(cfg, s, HONEST, rng, Transcript(), [])
            assert inputs == segments_of(s, cfg.n, cfg.m)

    def test_zero_secret(self):
        cfg = ProtocolConfig(n=3, k=2, m=4)
        rng = np.random.default_rng(82)
        inputs = phase1_distribute(cfg, 0, HONEST, rng, Transcript(), [])
        assert inputs == [0, 0, 0]

    def test_eve_intercept_caught_by_decoys(self):
        cfg = ProtocolConfig(n=3, k=2, m=4, decoys=16)
        plan = AdversaryPlan(eve=EveStrategy("intercept_resend", phases=(1,)))
        rng = np.random.default_rng(83)
        aborts = 0
        for _ in range(100):
            s = random_bits(12, rng)
            try:
                phase1_distribute(cfg, s, plan, rng, Transcript(), [])
            except Aborted:
                aborts += 1
        assert aborts >= 98

    def test_round_structure(self):
        cfg = ProtocolConfig(n=4, k=3, m=8)
        rng = np.random.default_rng(84)
        s = random_bits(32, rng)
        transcript = Transcript()
        phase1_distribute(cfg, s, HONEST, rng, transcript, [])
        kinds = [(r["kind"], r["messages"]) for r in transcript.summary()]
        assert kinds == [("quantum", 4), ("classical", 4 + 4 * 3)]


class TestPhase2:
    def make_inputs(self, cfg, rng):
        s = random_bits(cfg.n * cfg.m, rng)
        return s, segments_of(s, cfg.n, cfg.m)

    def test_honest_proceeds(self):
        rng = np.random.default_rng(85)
        for n, m in [(2, 1), (3, 4), (5, 16)]:
            cfg = ProtocolConfig(n=n, k=n // 2 + 1, m=m)
            for _ in range(50):
                s, inputs = self.make_inputs(cfg, rng)
                assert phase2_verify(cfg, inputs, s, HONEST, rng,
                                     Transcript(), []) is None

    def test_bit_flip_rogue_always_aborts(self):
        rng = np.random.default_rng(86)
        for n, m in [(2, 1), (3, 2), (5, 16)]:
            cfg = ProtocolConfig(n=n, k=n // 2 + 1, m=m)
            plan = AdversaryPlan(
                rogues=RogueBehavior((0,), ("lie_phase2_report",), mode="bit_flip")
            )
            for _ in range(60):
                s, inputs = self.make_inputs(cfg, rng)
                with pytest.raises(Aborted) as caught:
                    phase2_verify(cfg, inputs, s, plan, rng, Transcript(), [])
                assert caught.value.info.cause == "verification_failed"

    def test_random_vector_rogue_aborts(self):
        cfg = ProtocolConfig(n=4, k=3, m=4)  # n*m = 16
        plan = AdversaryPlan(
            rogues=RogueBehavior((3,), ("lie_phase2_report",), mode="random")
        )
        rng = np.random.default_rng(87)
        for _ in range(300):
            s, inputs = self.make_inputs(cfg, rng)
            with pytest.raises(Aborted):
                phase2_verify(cfg, inputs, s, plan, rng, Transcript(), [])

    def test_corrupted_input_detected(self):
        # A wrong slice received in phase 1 surfaces here.
        cfg = ProtocolConfig(n=3, k=2, m=8)
        rng = np.random.default_rng(88)
        s, inputs = self.make_inputs(cfg, rng)
        inputs[1] ^= 1
        with pytest.raises(Aborted):
            phase2_verify(cfg, inputs, s, HONEST, rng, Transcript(), [])

    def test_xor_cancelling_corruption_passes(self):
        # The aggregate check has a known blind spot: report corruptions
        # that XOR to zero across agents are invisible to it.
        from dpvqss.entangle import distribute

        cfg = ProtocolConfig(n=5, k=3, m=4)
        rng = np.random.default_rng(89)
        s, inputs = self.make_inputs(cfg, rng)
        batch = distribute(cfg.n + 1, cfg.n * cfg.m, {}, range(cfg.n),
                           range(cfg.n))
        phase_bits = {i: inputs[i] << (i * cfg.m) for i in range(cfg.n)}
        out = batch.encode_and_measure(phase_bits, rng, range(cfg.n + 1))
        mask = random_bits(cfg.n * cfg.m, rng)
        reported = [out.registers[i] for i in range(cfg.n)]
        reported[0] = reported[0] ^ mask
        reported[1] = reported[1] ^ mask  # cancels in the aggregate
        computed = out.registers[cfg.n]
        for payload in reported:
            computed = computed ^ payload
        assert computed == s

    def test_round_structure(self):
        cfg = ProtocolConfig(n=3, k=2, m=2)
        rng = np.random.default_rng(90)
        s, inputs = self.make_inputs(cfg, rng)
        transcript = Transcript()
        phase2_verify(cfg, inputs, s, HONEST, rng, transcript, [])
        kinds = [(r["kind"], r["messages"]) for r in transcript.summary()]
        assert kinds == [("quantum", 3), ("classical", 3)]


class TestPhase3:
    def split_inputs(self, cfg, rng):
        secret = int.from_bytes(random_secret(cfg, rng), "big")
        return secret, cut(split(secret, cfg.split_config, cfg.m, rng),
                           cfg.n, cfg.m)

    def test_all_honest_reconstruct(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        rng = np.random.default_rng(91)
        for _ in range(50):
            secret, inputs = self.split_inputs(cfg, rng)
            results = phase3_consolidate(cfg, inputs, HONEST, rng,
                                         Transcript(), [])
            for res in results:
                assert res.reconstructed == secret
                assert res.support == 5

    def test_rogue_fixed_share_tolerated(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        fake = "1" * 16
        plan = AdversaryPlan(
            rogues=RogueBehavior((4,), ("lie_phase3_oracle",), mode="fixed",
                                 fixed_value=fake)
        )
        rng = np.random.default_rng(92)
        for _ in range(50):
            secret, inputs = self.split_inputs(cfg, rng)
            results = phase3_consolidate(cfg, inputs, plan, rng,
                                         Transcript(), [])
            for res in results:
                if res.loyal:
                    assert res.reconstructed == secret
                    assert res.support >= 4

    def test_rogue_report_lies_tolerated(self):
        cfg = ProtocolConfig(n=5, k=3, m=8)
        plan = AdversaryPlan(
            rogues=RogueBehavior((0,), ("lie_phase3_report",), mode="random")
        )
        rng = np.random.default_rng(93)
        for _ in range(50):
            secret, inputs = self.split_inputs(cfg, rng)
            results = phase3_consolidate(cfg, inputs, plan, rng,
                                         Transcript(), [])
            for res in results:
                if res.loyal:
                    assert res.reconstructed == secret

    def test_untapped_claims_are_exact(self):
        cfg = ProtocolConfig(n=4, k=3, m=8, decoys=0)
        rng = np.random.default_rng(99)
        for _ in range(50):
            _, inputs = self.split_inputs(cfg, rng)
            results = phase3_consolidate(cfg, inputs, HONEST, rng,
                                         Transcript(), [])
            for res in results:
                assert list(res.claimed_shares) == inputs

    @pytest.mark.parametrize("kind, basis, channel, rate", [
        ("intercept_resend", "random", 0, 1 / 4),
        ("intercept_resend", "random", None, 3 / 8),
        ("intercept_resend", "computational", 0, 1 / 2),
        ("entangle_measure", "computational", 0, 1 / 2),
    ], ids=["random_one_channel", "random_both_channels", "z_intercept",
            "entangle_measure"])
    def test_tapped_claim_error_law(self, kind, basis, channel, rate):
        # A claimed bit from pair (i, j) is off where the pair's registers
        # break their XOR constraint: an X read keeps it, a Z read or an
        # entangling tap leaves it uniform.  Both agents see the same error.
        cfg = ProtocolConfig(n=4, k=3, m=8, decoys=0)
        plan = AdversaryPlan(
            eve=EveStrategy(kind, basis, phases=(3,), channel=channel)
        )
        rng = np.random.default_rng(100)
        trials = 400
        errors = np.zeros((len(PAIRS_4), cfg.m))
        for _ in range(trials):
            _, inputs = self.split_inputs(cfg, rng)
            results = phase3_consolidate(cfg, inputs, plan, rng,
                                         Transcript(), [])
            for q, (i, j) in enumerate(PAIRS_4):
                off = results[i].claimed_shares[j] ^ inputs[j]
                assert results[j].claimed_shares[i] ^ inputs[i] == off
                errors[q] += [off >> b & 1 for b in range(cfg.m)]
        # One binomial(trials, rate) count per (pair, position) cell.
        assert binomial_fit_p(errors, trials, rate) > 0.001

    @pytest.mark.parametrize("failing", [0, 3, 5])
    def test_first_failing_pair_aborts(self, monkeypatch, failing):
        # Pair `failing` is the first whose decoys mismatch: the abort names
        # it, later mismatches go unreported, and every pair started counts
        # its two registers.
        calls = []

        def scripted(d, tapped, rounds, rng):
            calls.append((d, tapped, rounds))
            return [0] * failing + [2] * (rounds - failing)

        monkeypatch.setattr(protocol, "decoy_mismatches", scripted)
        cfg = ProtocolConfig(n=4, k=3, m=8, decoys=2)
        plan = AdversaryPlan(eve=EveStrategy("measure_resend", phases=(3,)))
        rng = np.random.default_rng(101)
        _, inputs = self.split_inputs(cfg, rng)
        transcript, detection = Transcript(), []
        with pytest.raises(Aborted) as caught:
            phase3_consolidate(cfg, inputs, plan, rng, transcript, detection)
        pair = list(PAIRS_4[failing])
        assert caught.value.info.detail == {"mismatches": 2, "pair": pair}
        assert calls == [(2, 2, len(PAIRS_4))]
        assert transcript.summary() == [
            {"phase": "phase3", "kind": "quantum", "messages": 2 * (failing + 1)}
        ]
        assert detection == [{"phase": "phase3", "kind": "decoy_mismatch",
                              "count": 2, "pair": pair}]

    def test_tapped_abort_counts_pairs_started(self):
        cfg = ProtocolConfig(n=5, k=3, m=8, decoys=1)
        plan = AdversaryPlan(eve=EveStrategy("intercept_resend", phases=(3,)))
        pairs = list(combinations(range(5), 2))
        seen = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            _, inputs = self.split_inputs(cfg, rng)
            transcript, detection = Transcript(), []
            with pytest.raises(Aborted) as caught:
                phase3_consolidate(cfg, inputs, plan, rng, transcript,
                                   detection)
            pair = caught.value.info.detail["pair"]
            assert [e["pair"] for e in detection] == [pair]
            started = pairs.index(tuple(pair)) + 1
            assert transcript.summary()[0]["messages"] == 2 * started
            seen.add(started)
        assert len(seen) > 1

    def test_single_round_of_pair_messages(self):
        cfg = ProtocolConfig(n=4, k=3, m=8)
        rng = np.random.default_rng(94)
        _, inputs = self.split_inputs(cfg, rng)
        transcript = Transcript()
        phase3_consolidate(cfg, inputs, HONEST, rng, transcript, [])
        classical = [r for r in transcript.summary() if r["kind"] == "classical"]
        assert len(classical) == 1
        assert classical[0]["messages"] == 4 * 3


DECODE_GRID = {
    "one_liar": (ProtocolConfig(n=9, k=5, m=16), AdversaryPlan(
        rogues=RogueBehavior((8,), ("lie_phase3_oracle", "lie_phase3_report"))
    )),
    "colluding_fixed_liars": (ProtocolConfig(n=5, k=3, m=8), AdversaryPlan(
        rogues=RogueBehavior((3, 4), ("lie_phase3_oracle",), mode="fixed",
                             fixed_value="10110011")
    )),
    "report_lies_only": (ProtocolConfig(n=5, k=3, m=16), AdversaryPlan(
        rogues=RogueBehavior((0,), ("lie_phase3_report",))
    )),
}


class TestDecodeOncePerView:
    @staticmethod
    def counting(monkeypatch):
        calls = []
        decode = protocol.decode_views

        def counted(views, cfg, m):
            calls.append(list(views))
            return decode(views, cfg, m)

        monkeypatch.setattr(protocol, "decode_views", counted)
        return calls

    def test_honest_trial_decodes_once(self, monkeypatch):
        calls = self.counting(monkeypatch)
        cfg = ProtocolConfig(n=5, k=3, m=16)
        rng = np.random.default_rng(102)
        rep = run_protocol(cfg, random_secret(cfg, rng), HONEST, rng=rng)
        assert rep.verdict == "proceed"
        assert calls == [[rep.agents[0].claimed_shares]]

    @pytest.mark.parametrize("liar", [0, 14])
    def test_one_liar_at_n15_needs_no_berlekamp_welch(self, monkeypatch,
                                                      liar):
        # A liar at agent 0 spoils every view's first k claims.  At either
        # end, one interpolation from the first k positions alike in every
        # view decodes every view: no element goes through Berlekamp-Welch.
        solves = []
        solve = threshold._berlekamp_welch

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(threshold, "_berlekamp_welch", counted)
        cfg = ProtocolConfig(n=15, k=8, m=16)
        plan = AdversaryPlan(rogues=RogueBehavior(
            (liar,), ("lie_phase3_oracle", "lie_phase3_report")))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
            assert all(a.reconstructed == rep.secret
                       for a in rep.agents if a.loyal)
        assert solves == []

    @staticmethod
    def check_views(rep, plan):
        # A claim of an honest agent's share is that share; a claim of a
        # fixed liar's is the fixed lie; claims of a random liar's differ
        # from agent to agent.
        rogues = plan.rogues
        for a in rep.agents:
            for j, claim in enumerate(a.claimed_shares):
                if j == a.index or j not in rogues.agents:
                    assert claim == rep.agents[j].s_i
                elif rogues.mode == "fixed":
                    assert claim == int(rogues.fixed_value, 2)
        if rogues.mode == "random":
            for j in rogues.agents:
                claims = [a.claimed_shares[j] for a in rep.agents if a.index != j]
                assert len(set(claims)) == len(claims)

    @pytest.mark.parametrize("name", sorted(DECODE_GRID))
    def test_matches_decoding_each_view(self, monkeypatch, name):
        # The reference decodes every agent's own claimed shares.
        calls = self.counting(monkeypatch)
        cfg, plan = DECODE_GRID[name]
        ambiguous = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            del calls[:]
            rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
            # One call per trial, each distinct view once, in agent order.
            views = dict.fromkeys(a.claimed_shares for a in rep.agents)
            assert calls == [list(views)]
            self.check_views(rep, plan)
            events = []
            for a in rep.agents:
                expect = {"reconstructed": None, "support": None,
                          "ambiguous": False}
                try:
                    expect["reconstructed"], expect["support"] = robust_decode(
                        list(a.claimed_shares), cfg.split_config, cfg.m)
                except AmbiguousDecodeError as err:
                    expect.update(support=err.support, ambiguous=True)
                    events.append({"phase": "phase3",
                                   "kind": "ambiguous_decode",
                                   "agent": a.index, "support": err.support})
                got = {key: getattr(a, key) for key in expect}
                assert got == expect
            assert rep.detection_events == events
            ambiguous += bool(events)
        if name == "colluding_fixed_liars":
            assert ambiguous


class TestSchedule:
    def test_invalid_pair_raises_on_every_call(self):
        # The phases run a pair that run_protocol refuses, and the schedule
        # they build for it does not make run_protocol accept it.
        cfg = ProtocolConfig(n=5, k=3, m=8)
        plan = AdversaryPlan(rogues=RogueBehavior((0, 1, 2),
                                                  ("lie_phase3_report",)))
        rng = np.random.default_rng(103)
        _, inputs = TestPhase3().split_inputs(cfg, rng)
        phase3_consolidate(cfg, inputs, plan, rng, Transcript(), [])
        for _ in range(2):
            with pytest.raises(ValueError, match="at-least-k-loyal"):
                run_protocol(cfg, bytes(1), plan, rng=rng)
        sub_byte = ProtocolConfig(n=3, k=2, m=4)
        phase1_distribute(sub_byte, 0, HONEST, rng, Transcript(), [])
        for _ in range(2):
            with pytest.raises(ValueError, match="multiple of 8"):
                run_protocol(sub_byte, b"", HONEST, rng=rng)

    def test_plans_differing_in_rogues_or_eve_get_their_own(self):
        cfg = ProtocolConfig(n=5, k=3, m=8)
        rogue = AdversaryPlan(rogues=RogueBehavior((4,),
                                                   ("lie_phase3_report",)))
        eve = AdversaryPlan(eve=EveStrategy("intercept_resend", phases=(3,)))
        honest, lying, tapped = (protocol._schedule(cfg, plan)
                                 for plan in (HONEST, rogue, eve))
        assert lying.report and not honest.report and not tapped.report
        assert tapped.phase3.taps and not honest.phase3.taps
        assert not lying.phase3.taps
        assert len({honest, lying, tapped}) == 3
        # Equal pairs share one schedule.
        assert protocol._schedule(ProtocolConfig(n=5, k=3, m=8),
                                  AdversaryPlan()) is honest


class TestClaimTokens:
    @pytest.mark.parametrize("name", ["honest", *sorted(DECODE_GRID)])
    def test_tokens_render_claims_without_shares(self, monkeypatch, name):
        # Each distinct view renders once, with one `%` through the
        # frame's view template (once on an honest trial, not n times),
        # and every token is the agent index, ":" and the claim in m / 4
        # hex digits.
        cfg, plan = ((ProtocolConfig(n=5, k=3, m=16), HONEST)
                     if name == "honest" else DECODE_GRID[name])
        rendered = []

        class CountedTemplate(str):
            def __mod__(self, view):
                rendered.append(view)
                return str.__mod__(self, view)

        frame = protocol._frame

        def counted_frame(cfg, plan):
            *members, template = frame(cfg, plan)
            return (*members, CountedTemplate(template))

        monkeypatch.setattr(protocol, "_frame", counted_frame)
        ambiguous = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
            del rendered[:]
            agents = rep.to_dict()["agents"]
            views = {a.claimed_shares for a in rep.agents}
            assert sorted(rendered) == sorted(views)
            assert len(views) == 1 or name != "honest"
            for a in rep.agents:
                expect = [f"{j}:{claim:0{cfg.m // 4}x}"
                          for j, claim in enumerate(a.claimed_shares)]
                assert agents[str(a.index)]["claimed_shares"] == expect
            ambiguous += any(a.ambiguous for a in rep.agents)
        assert bool(ambiguous) == (name == "colluding_fixed_liars")


def _eve(kind, phases, basis="computational"):
    return AdversaryPlan(eve=EveStrategy(kind, basis, phases=phases))


# (config, plan, audit, the outcome every trial must show): each n in
# {3, 5, 11, 15} (from n = 11 the key "10" sorts before "2"), w in {4, 8},
# m in {8, 16, 128}, a decoy abort in each phase, a failed verification,
# the decode grid's ambiguous, fixed and random lies, and audited runs.
RENDER_GRID = {
    "n3_w4_m8": (ProtocolConfig(n=3, k=2, m=8, w=4), HONEST, False,
                 "proceed"),
    "n5_w8_m16": (ProtocolConfig(n=5, k=3, m=16), HONEST, False, "proceed"),
    "n11_w4_m16": (ProtocolConfig(n=11, k=6, m=16, w=4), HONEST, False,
                   "proceed"),
    "n15_w8_m128": (ProtocolConfig(n=15, k=8, m=128), HONEST, False,
                    "proceed"),
    "n15_w4_m8": (ProtocolConfig(n=15, k=8, m=8, w=4), HONEST, False,
                  "proceed"),
    "decoy_phase1": (ProtocolConfig(n=11, k=6, m=8),
                     _eve("intercept_resend", (1,)), False, "phase1"),
    "decoy_phase2": (ProtocolConfig(n=5, k=3, m=128),
                     _eve("measure_resend", (2,)), False, "phase2"),
    "decoy_phase3": (ProtocolConfig(n=15, k=8, m=16, decoys=1),
                     _eve("intercept_resend", (3,)), False, "pair"),
    "verification_failed": (ProtocolConfig(n=5, k=3, m=8), AdversaryPlan(
        rogues=RogueBehavior((1,), ("lie_phase2_report",), "bit_flip")
    ), False, "verification_failed"),
    **{name: (cfg, plan, False, "ambiguous" if name == "colluding_fixed_liars"
              else "proceed") for name, (cfg, plan) in DECODE_GRID.items()},
    "audited_random_basis": (ProtocolConfig(n=3, k=2, m=8, decoys=0),
                             _eve("intercept_resend", (1, 2, 3), "random"),
                             True, None),
    "audited_n5": (ProtocolConfig(n=5, k=3, m=16, w=4), HONEST, True,
                   "proceed"),
}


class TestRenderer:
    """`to_json_line` writes into a frame cached per (config, plan) what
    the dict reference builds member by member: same bytes, and
    `to_dict` parses the line."""

    @staticmethod
    def outcome(rep):
        if rep.abort is None:
            ambiguous = any(a.ambiguous for a in rep.agents)
            return "ambiguous" if ambiguous else "proceed"
        if rep.abort.detail.get("pair"):
            return "pair"
        if rep.abort.cause == "verification_failed":
            return rep.abort.cause
        return rep.abort.phase

    @pytest.mark.parametrize("name", sorted(RENDER_GRID))
    def test_line_matches_reference(self, name):
        cfg, plan, audit, expect = RENDER_GRID[name]
        outcomes = set()
        for trial in range(4):
            rng = np.random.default_rng([21, trial])
            seed, index = (None, None) if trial == 0 else (21, trial)
            rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng,
                               seed=seed, trial=index, audit=audit)
            line = rep.to_json_line()
            assert line == canonical_json(report_dict(rep))
            assert rep.to_dict() == json.loads(line) == report_dict(rep)
            outcomes.add(self.outcome(rep))
            if expect == "ambiguous":
                assert all(
                    (a.reconstructed, a.support)
                    == reference_decode(a.claimed_shares, cfg.split_config, cfg.m)
                    for a in rep.agents if a.loyal)
        if expect == "ambiguous":
            # Colluders past the radius tie the decode, unless four of the
            # five claims lie on one polynomial by chance (about 2% of
            # trials): each loyal agent decodes as the scalar search does,
            # and the case renders at least one tie.
            assert "ambiguous" in outcomes
        else:
            assert expect is None or outcomes == {expect}
        if audit:
            assert all(value is not None
                       for value in rep.to_dict()["leakage"].values())

    @pytest.mark.parametrize("name", sorted(RENDER_GRID))
    def test_trial_runs_no_encoder_once_framed(self, monkeypatch, name):
        # Every member of a trial's line is written by hand: the encoder
        # runs only to build a frame, which the first trial of a pair does.
        cfg, plan, audit, _ = RENDER_GRID[name]
        calls = []
        encode = protocol.canonical_json
        monkeypatch.setattr(protocol, "canonical_json",
                            lambda obj: calls.append(obj) or encode(obj))
        protocol._frame.cache_clear()
        for trial in range(2):
            rng = np.random.default_rng([21, trial])
            rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng,
                               seed=21, trial=trial, audit=audit)
            assert rep.to_json_line() == canonical_json(report_dict(rep))
            assert len(calls) == 3  # the frame's adversary, config, metrics


class TestHashOnce:
    def test_pickled_hash_is_dropped(self, tmp_path):
        # A config and plan hashed here, then pickled, equal and hash like
        # fresh twins in a process with another hash seed: their str fields
        # hash differently there, so a stored hash must not travel.
        cfg = ProtocolConfig(n=5, k=3, m=16, source="third_party")
        plan = AdversaryPlan(EveStrategy("intercept_resend", "random", (1, 3)),
                             RogueBehavior((1,), ("lie_phase2_report",)))
        hash(cfg), hash(plan)
        assert "_hash" in vars(cfg) and "_hash" in vars(plan)
        assert "_hash" not in vars(copy.copy(cfg))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import pickle, sys\n"
            "from dpvqss.adversary import AdversaryPlan, EveStrategy, "
            "RogueBehavior\n"
            "from dpvqss.protocol import ProtocolConfig\n"
            "got = pickle.loads(sys.stdin.buffer.read())\n"
            "twins = (ProtocolConfig(n=5, k=3, m=16, source='third_party'),\n"
            "         AdversaryPlan(EveStrategy('intercept_resend', 'random',"
            " (1, 3)), RogueBehavior((1,), ('lie_phase2_report',))))\n"
            "print(all(a == b and hash(a) == hash(b) "
            "for a, b in zip(got, twins)), hash('third_party'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             input=pickle.dumps((cfg, plan)),
                             capture_output=True, check=True,
                             env={**os.environ, "PYTHONHASHSEED": seed})
        same, str_hash = out.stdout.split()
        assert same == b"True"
        assert int(str_hash) != hash("third_party")


class TestLies:
    """Liars at low and high indices in every action.  The first 16 hex
    digits of the sha256 of 20 reports pin which messages are falsified,
    and in what order, at version 0.9.0; a trial calls `falsify` once per
    lying action in a phase, with the payloads of all its lies, and never
    for an honest message."""

    @pytest.mark.parametrize("agents, actions, mode, digest, batches", [
        ((0, 3), ("lie_phase1_comms",), "random", "eccfc7a0f0bd1dce", [8]),
        ((0, 4), ("lie_phase2_report",), "bit_flip", "4fa181cf6dcffc74", [2]),
        ((0, 4), ("lie_phase3_oracle", "lie_phase3_report"), "random",
         "148393e854c35b1e", [8, 8]),
        ((1, 3), ("lie_phase1_comms", "lie_phase2_report", "lie_phase3_oracle",
                  "lie_phase3_report"), "bit_flip", "accffdb9e6b481ee", None),
    ], ids=["phase1", "phase2", "phase3", "every"])
    def test_lies_pinned(self, monkeypatch, agents, actions, mode, digest,
                         batches):
        calls = []
        falsify = protocol.falsify

        def counted(*args):
            calls.append(args)
            return falsify(*args)

        monkeypatch.setattr(protocol, "falsify", counted)
        cfg = ProtocolConfig(n=5, k=3, m=8, w=4, decoys=0)
        plan = AdversaryPlan(rogues=RogueBehavior(agents, actions, mode))
        h = hashlib.sha256()
        for t in range(20):
            rng = np.random.default_rng([5, t])
            del calls[:]
            rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
            h.update(rep.to_json_line().encode())
            # One call per lying action that ran, each with every lie's
            # payload: 8, 2 and 16 lies per trial.
            sizes = [len(payloads) for payloads, *_ in calls]
            assert 0 < len(sizes) <= len(actions) and all(sizes)
            assert batches is None or sizes == batches
        assert h.hexdigest()[:16] == digest


class TestRunProtocol:
    def test_round_failing_its_decoys_builds_no_batch(self, monkeypatch):
        # Every trial's phase-1 decoys mismatch, so no batch is distributed.
        # `distribute` draws nothing, so the reports are those of building
        # the batch before the decoy check.
        calls = []
        distribute = protocol.distribute

        def counted(*args, **kwargs):
            calls.append(args)
            return distribute(*args, **kwargs)

        monkeypatch.setattr(protocol, "distribute", counted)
        cfg = ProtocolConfig(n=5, k=3, m=16, decoys=16)
        plan = _eve("intercept_resend", (1, 2, 3), "random")
        h = hashlib.sha256()
        for t in range(20):
            rng = np.random.default_rng([6, t])
            rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
            assert (rep.abort.phase, rep.abort.cause) == ("phase1",
                                                          "decoy_mismatch")
            h.update(rep.to_json_line().encode())
        assert calls == []
        assert h.hexdigest()[:16] == "7219949bc3103862"

    def test_honest_end_to_end(self):
        cfg = ProtocolConfig(n=5, k=3, m=32)
        rng = np.random.default_rng(95)
        secret = random_secret(cfg, rng)
        assert len(secret) == 4
        report = run_protocol(cfg, secret, HONEST, rng=np.random.default_rng(95))
        d = report.to_dict()
        assert d["verdict"] == "proceed"
        assert all(a["recovered_secret"] for a in d["agents"].values())

    def test_eve_entangle_phase2_aborts_verification(self):
        cfg = ProtocolConfig(n=4, k=3, m=8, decoys=0)  # n*m = 32
        plan = AdversaryPlan(eve=EveStrategy("entangle_measure", phases=(2,)))
        rng = np.random.default_rng(96)
        for seed in range(30):
            secret = random_secret(cfg, rng)
            rep = run_protocol(cfg, secret, plan,
                               rng=np.random.default_rng(seed), seed=seed)
            assert rep.verdict == "abort"
            assert rep.abort.phase == "phase2"

    @pytest.mark.parametrize(
        "kind, basis",
        [("entangle_measure", "computational"), ("pns", "computational"),
         ("intercept_resend", "random")],
        ids=["entangle_measure", "pns", "intercept_resend_random"],
    )
    def test_wide_entangling_taps_reach_a_verdict(self, kind, basis):
        # Taps on all 15 phase-1 channels: 31 qubits per tuple, far past the
        # dense 22-qubit bound.  Eve's ancillas join the XOR chain, or her
        # reads collapse the tuples, so the agents' slices are wrong and
        # verification aborts.  A random-basis interception reads each
        # position in its own basis pattern.
        cfg = ProtocolConfig(n=15, k=8, m=16, decoys=0)
        plan = AdversaryPlan(eve=EveStrategy(kind, basis, phases=(1,)))
        rng = np.random.default_rng(98)
        start = time.monotonic()
        rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
        assert time.monotonic() - start < 1.0
        assert rep.verdict == "abort"
        assert (rep.abort.phase, rep.abort.cause) == (
            "phase2", "verification_failed"
        )

    def test_seed_determinism_byte_identical(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        plan = AdversaryPlan(
            eve=EveStrategy("entangle_measure", phases=(3,)),
            rogues=RogueBehavior((1,), ("lie_phase3_report",)),
        )
        secret = bytes([1, 2])
        lines = {
            run_protocol(cfg, secret, plan, rng=np.random.default_rng(7),
                         seed=7).to_json_line()
            for _ in range(3)
        }
        assert len(lines) == 1

    def test_pns_matches_entangle_measure(self):
        cfg = ProtocolConfig(n=4, k=3, m=8, decoys=0)
        secret = bytes([9])
        reports = []
        for kind in ("pns", "entangle_measure"):
            plan = AdversaryPlan(eve=EveStrategy(kind, phases=(2,)))
            d = run_protocol(cfg, secret, plan,
                             rng=np.random.default_rng(11), seed=11).to_dict()
            d["adversary"]["eve"]["kind"] = "normalized"
            d["config_hash"] = "normalized"
            reports.append(d)
        assert reports[0] == reports[1]

    def test_rogue_phase1_lies_get_caught_in_phase2(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        plan = AdversaryPlan(
            rogues=RogueBehavior((2,), ("lie_phase1_comms",), mode="bit_flip")
        )
        rng = np.random.default_rng(97)
        for seed in range(20):
            secret = random_secret(cfg, rng)
            rep = run_protocol(cfg, secret, plan,
                               rng=np.random.default_rng(seed), seed=seed)
            assert rep.verdict == "abort"
            assert rep.abort.phase == "phase2"

    def test_combined_adversaries(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        plan = AdversaryPlan(
            eve=EveStrategy("entangle_measure", phases=(3,)),
            rogues=RogueBehavior((4,), ("lie_phase3_report",)),
        )
        secret = bytes([3, 7])
        rep = run_protocol(cfg, secret, plan, rng=np.random.default_rng(12))
        assert rep.verdict in ("proceed", "abort")

    def test_third_party_source(self):
        cfg = ProtocolConfig(n=3, k=2, m=8, source="third_party")
        secret = bytes([5])
        rep = run_protocol(cfg, secret, HONEST, rng=np.random.default_rng(13))
        assert rep.to_dict()["verdict"] == "proceed"

    def test_rogue_set_size_validated(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        plan = AdversaryPlan(
            rogues=RogueBehavior((0, 1, 2), ("lie_phase3_report",))
        )
        with pytest.raises(ValueError):
            run_protocol(cfg, bytes([1, 2]), plan, rng=np.random.default_rng(14))

    def test_secret_length_validated(self):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        with pytest.raises(ValueError):
            run_protocol(cfg, bytes([1, 2, 3]), HONEST,
                         rng=np.random.default_rng(15))

    def test_rounds_record_message_counts(self, monkeypatch):
        def rounds(cfg, plan, seed):
            d = run_protocol(cfg, bytes([0x5A]), plan,
                             rng=np.random.default_rng(seed)).to_dict()
            rows = [(r["phase"], r["kind"], r["messages"]) for r in d["rounds"]]
            return rows, d["abort"]

        honest = [("phase1", "quantum", 4), ("phase1", "classical", 16),
                  ("phase2", "quantum", 4), ("phase2", "classical", 4),
                  ("phase3", "quantum", 12), ("phase3", "classical", 12)]
        assert rounds(ProtocolConfig(n=4, k=3, m=8), HONEST, 19) == (honest, None)
        # A third-party source transmits its own register too.
        third = ProtocolConfig(n=4, k=3, m=8, source="third_party")
        rows, _ = rounds(third, HONEST, 19)
        assert rows == ([("phase1", "quantum", 5)] + honest[1:2]
                        + [("phase2", "quantum", 5)] + honest[3:])
        # A later pair aborts: every pair started, the aborted one too,
        # counts its two registers.  The fourth pair is the first whose
        # decoys mismatch; the untapped phases check one round each.
        monkeypatch.setattr(protocol, "decoy_mismatches",
                            lambda d, tapped, count, rng:
                            [0] * min(count, 3) + [1] * (count - 3))
        tapped = ProtocolConfig(n=4, k=3, m=8, decoys=1)
        plan = AdversaryPlan(eve=EveStrategy("measure_resend", phases=(3,)))
        rows, abort = rounds(tapped, plan, 13)
        started = PAIRS_4.index(tuple(abort["detail"]["pair"])) + 1
        assert started > 1
        assert rows == honest[:4] + [("phase3", "quantum", 2 * started)]

    @pytest.mark.parametrize("phase", [1, 3])
    def test_aborted_trial_leaves_no_reference_cycle(self, phase):
        # The report keeps the AbortInfo, not the exception: a kept
        # traceback would hold run_protocol's frame, which holds it.
        cfg = ProtocolConfig(n=3, k=2, m=8)
        plan = AdversaryPlan(eve=EveStrategy("intercept_resend", phases=(phase,)))
        run_protocol(cfg, bytes([5]), plan, rng=np.random.default_rng(1))
        gc.collect()
        gc.disable()
        try:
            rep = run_protocol(cfg, bytes([5]), plan, rng=np.random.default_rng(1))
            assert rep.abort.phase == f"phase{phase}"
            del rep
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_report_carries_abort_phase_and_cause(self):
        cfg = ProtocolConfig(n=3, k=2, m=8, decoys=16)
        plan = AdversaryPlan(eve=EveStrategy("measure_resend", phases=(1,)))
        rep = run_protocol(cfg, bytes([1]), plan, rng=np.random.default_rng(18))
        d = rep.to_dict()
        assert d["verdict"] == "abort"
        assert d["abort"]["phase"] == "phase1"
        assert d["abort"]["cause"] == "decoy_mismatch"
        assert d["detection_events"]
