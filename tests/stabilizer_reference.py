"""Reference outcome laws of H/CNOT circuits from a signed stabilizer tableau.

`outcome_law` runs one GHZ_r round with its tap reads as a general H/CNOT
circuit; the sampler's closed-form read law is checked against it.
"""

from collections import Counter
from itertools import product


def outcome_law(
    r: int, reads: tuple[tuple[int, str], ...]
) -> tuple[int, tuple[int, ...]]:
    """Joint outcome law of one GHZ_r tuple under `reads`, without phase kicks.

    Outputs are the r register bits, then one eavesdropper bit per entry of
    `reads`.  Each mid-circuit measurement is deferred onto its own ancilla:
    a Z read is CNOT(channel -> ancilla); an X read that forwards the
    collapsed eigenstate is H, CNOT, H on the channel.  An entangling tap's
    ancilla is read in the X basis at the end.  The outcomes are uniform over
    offset + span(basis), as returned by `stabilizer_support`.
    """
    gates = [("h", 0)] + [("cnot", 0, i) for i in range(1, r)]
    for i, (ch, read) in enumerate(reads):
        if read == "x":
            gates += [("h", ch), ("cnot", ch, r + i), ("h", ch)]
        else:
            gates.append(("cnot", ch, r + i))
    gates += [("h", i) for i in range(r)]
    gates += [
        ("h", r + i) for i, (_, read) in enumerate(reads) if read == "entangle"
    ]
    return stabilizer_support(r + len(reads), gates)


def stabilizer_support(q: int, gates) -> tuple[int, tuple[int, ...]]:
    """Z-basis outcome law of an H/CNOT circuit applied to |0...0>.

    Stabilizer rows are [x, z, sign] over q-bit masks, updated by the
    tableau rules of Aaronson & Gottesman (2004).  The computational-basis
    support of the final state is offset + span(basis): the X parts of the
    stabilizer group span its directions, and its Z-only elements fix the
    offset.  Every point of the support is equally likely.
    """
    rows = [[0, 1 << a, 0] for a in range(q)]
    for name, *qubits in gates:
        for row in rows:
            x, z = row[0], row[1]
            if name == "h":
                (a,) = qubits
                xa, za = (x >> a) & 1, (z >> a) & 1
                row[2] ^= xa & za
                if xa != za:
                    row[0] ^= 1 << a
                    row[1] ^= 1 << a
            else:
                c, t = qubits
                xc, zc = (x >> c) & 1, (z >> c) & 1
                xt, zt = (x >> t) & 1, (z >> t) & 1
                row[2] ^= xc & zt & (xt ^ zc ^ 1)
                row[0] ^= xc << t
                row[1] ^= zt << c

    x_pivots, rows = _eliminate(rows, 0, q)
    # What is left is Z-only: each row [0, z, s] demands parity z.x = s.
    offset = 0
    for a, (_, z, s) in reversed(_eliminate(rows, 1, q)[0]):
        # Later pivots and free coordinates (left at 0) are already set.
        offset |= (s ^ (z & offset).bit_count() & 1) << a
    return offset, tuple(row[0] for _, row in x_pivots)


def _eliminate(rows, part: int, q: int):
    """Row-reduce signed Pauli rows on their x (part 0) or z (part 1) masks.

    Returns the (column, row) pivots in increasing column order, each pivot
    row clear of every earlier pivot column, and the rows whose mask in that
    part reduced to zero.
    """
    pivots = []
    for a in range(q):
        pivot = next((row for row in rows if (row[part] >> a) & 1), None)
        if pivot is None:
            continue
        rows = [
            _pauli_product(row, pivot) if (row[part] >> a) & 1 else row
            for row in rows if row is not pivot
        ]
        pivots.append((a, pivot))
    return pivots, rows


def _pauli_product(p1, p2):
    """The product of two commuting signed Pauli rows [x, z, sign]."""
    x1, z1, s1 = p1
    x2, z2, s2 = p2
    y1, xo1, zo1 = x1 & z1, x1 & ~z1, z1 & ~x1
    y2, xo2, zo2 = x2 & z2, x2 & ~z2, z2 & ~x2
    # Power of i picked up qubit by qubit (Aaronson & Gottesman's g).
    g = (
        (y1 & zo2).bit_count() - (y1 & xo2).bit_count()
        + (xo1 & y2).bit_count() - (xo1 & zo2).bit_count()
        + (zo1 & xo2).bit_count() - (zo1 & y2).bit_count()
    )
    return [x1 ^ x2, z1 ^ z2, ((2 * s1 + 2 * s2 + g) % 4) // 2]


def uniform_law(offset, basis):
    """Probabilities of the uniform law over offset + span(basis)."""
    law = Counter()
    for coeffs in product((0, 1), repeat=len(basis)):
        key = offset
        for c, vec in zip(coeffs, basis):
            if c:
                key ^= vec
        law[key] += 1.0 / (1 << len(basis))
    return law


def echelon(vectors):
    """A GF(2) echelon basis of the span of the given bit masks."""
    reduced = []  # kept in decreasing order of leading bit
    for vec in vectors:
        for row in reduced:
            vec = min(vec, vec ^ row)
        if vec:
            reduced.append(vec)
            reduced.sort(reverse=True)
    return reduced


def in_span(point, basis):
    """Whether a bit mask lies in the GF(2) span of the given masks."""
    for row in echelon(basis):
        point = min(point, point ^ row)
    return point == 0
