"""Exact outcome laws of one round: the sampler's and the dense reference's.

Every round is an H/CNOT circuit, so both laws are exact.  `sampler_law`
runs a batch once for every possible draw; `dense_law` takes the Born
probabilities of the same round on dense statevectors.  Both key an outcome
as `outcome_key` does and map it to its probability, and `assert_laws_match`
compares them entry by entry over the union of their supports.
"""

import copy
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np

from dpvqss.entangle import distribute
from dpvqss.qsim import StateVector, dense_state


def scripted(words):
    """A generator stand-in whose raw draw is `words`."""
    def random_raw(count):
        assert count == len(words)
        return np.array(words, np.uint64)
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))


def outcome_key(outcome, p):
    """Pack a round's p-bit registers, then Eve's reads in channel order."""
    words = [*outcome.registers.values(),
             *(outcome.eve[ch] for ch in sorted(outcome.eve))]
    return sum(word << (i * p) for i, word in enumerate(words))


def sampler_law(r, p, taps, transmitted, phase_bits):
    """The law of `distribute(r, p, taps, transmitted, encoders)`'s outcome
    with every register read, the encoders being the keys of `phase_bits`.

    The batch draws `count` p-bit words, `count` from its own layout, so it
    is measured once per pattern of count * p bits, each weighing
    2^-(count * p).
    """
    encoders = tuple(phase_bits)
    count = distribute(r, p, taps, transmitted, encoders)._layout[1]
    weight = 2.0 ** -(count * p)
    law = Counter()
    for draw in product(range(1 << p), repeat=count):
        batch = distribute(r, p, taps, transmitted, encoders)
        out = batch.encode_and_measure(phase_bits, scripted(draw), range(r))
        law[outcome_key(out, p)] += weight
    return law


def dense_law(r, p, taps, phase_bits):
    """The dense reference's law of the same round, keyed as `sampler_law`.

    Untapped, it is `dense_state`'s Born law with the |-> targets summed
    out.  Tapped, the positions are independent tuples, so it is the
    product over positions of `dense_tuple_law`, a "random" read being the
    even mixture of its X and Z laws at that position.
    """
    if not taps:
        probs = np.abs(dense_state(r, p, phase_bits).amps) ** 2
        return Counter(dict(enumerate(probs.reshape(-1, 1 << (r * p)).sum(axis=0))))
    chans = sorted(taps)
    choices = [("x", "z") if taps[ch] == "random" else (taps[ch],) for ch in chans]
    mixed = 2.0 ** -sum(len(c) == 2 for c in choices)
    law = Counter({0: 1.0})
    for j in range(p):
        kicks = tuple(phase_bits.get(reg, 0) >> j & 1 for reg in range(r))
        position = Counter()
        for reads in product(*choices):
            for key, prob in dense_tuple_law(r, tuple(zip(chans, reads)), kicks).items():
                # Output bit i (register i, then Eve's read i - r) at word i.
                spread = sum((key >> i & 1) << (i * p + j)
                             for i in range(r + len(chans)))
                position[spread] += mixed * prob
        law = Counter({a | b: pa * pb for a, pa in law.items()
                       for b, pb in position.items()})
    return law


def assert_laws_match(sampler, dense):
    """Equal entry by entry, to 1e-12, over the union of both supports."""
    for key in set(sampler) | set(dense):
        assert abs(sampler[key] - dense[key]) <= 1e-12, (key, sampler[key], dense[key])


class _Forced:
    """Stands in for a generator so that measure_qubit returns `bit`."""

    def __init__(self, bit):
        self.bit = bit

    def random(self):
        return 0.0 if self.bit else 1.0


def dense_tuple_law(r, reads, z):
    """Exact joint law of one tapped GHZ_r tuple on a dense statevector.

    Mid-circuit measurements branch over both outcomes with their Born
    weights; the phase kicks `z` go through a |-> target.  Keys pack the r
    register bits, then one eavesdropper bit per entry of `reads`.
    """
    ent = [i for i, (_, read) in enumerate(reads) if read == "entangle"]
    target = r
    sv = StateVector(r + 1 + len(ent))
    sv.prepare_ghz(range(r))
    branches = [(1.0, sv, {})]
    for i, (ch, read) in enumerate(reads):
        if read == "entangle":
            for _, state, _ in branches:
                state.apply_cnot(ch, target + 1 + ent.index(i))
            continue
        grown = []
        for weight, state, eve in branches:
            if read == "x":
                state.apply_h(ch)
            p1 = state.probability_one(ch)
            for bit, prob in ((0, 1.0 - p1), (1, p1)):
                if prob < 1e-15:
                    continue
                branch = copy.deepcopy(state)
                branch.measure_qubit(ch, _Forced(bit))
                if read == "x":
                    branch.apply_h(ch)
                grown.append((weight * prob, branch, {**eve, i: bit}))
        branches = grown
    law = Counter()
    for weight, state, eve in branches:
        state.prepare_basis("-", target)
        for reg, bit in enumerate(z):
            if bit:
                state.apply_cnot(reg, target)
        for reg in range(r):
            state.apply_h(reg)
        for k in range(len(ent)):
            state.apply_h(target + 1 + k)
        probs = np.abs(state.amps) ** 2
        for idx in np.nonzero(probs > 1e-15)[0]:
            key = int(idx) & ((1 << r) - 1)
            for i in range(len(reads)):
                if i in ent:
                    bit = (int(idx) >> (target + 1 + ent.index(i))) & 1
                else:
                    bit = eve[i]
                key |= bit << (r + i)
            law[key] += weight * probs[idx]
    return law
