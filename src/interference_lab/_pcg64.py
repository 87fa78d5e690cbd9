"""numpy's PCG64 streams, computed by the package itself.

Everything the package knows about numpy's seeding and PCG64 lives here:
the ``SeedSequence`` hash, PCG64's set-seed step, and a vectorized stream
that returns ``np.random.default_rng(seed).uniform(low, high, size=count)``
bit for bit without importing ``numpy.random`` (about 13 ms per process,
most of it the Cython bit generators and OpenSSL's hash module behind
``secrets``).

PCG64 (O'Neill 2014, XSL-RR output) advances a 128-bit state by the affine
step s -> M s + inc mod 2^128, so k steps compose to one affine map
s -> a s + c, and doubling a stride squares it, (a, c) -> (a a, a c + c):
the power-of-two case of Brown's (1994) arbitrary strides.  The stream
holds one row of lanes as (hi, lo) uint64 limbs.  The first row, the
states after steps 1 .. L, is built by doubling, each round applying one
jump to every lane already built; each later row is the row before it
jumped by L.  So memory is the output plus O(L), and each row costs a
fixed count of array calls.

The limb arithmetic costs about 20 ns a draw on long streams against
numpy's 3-6.5 ns, and starting a stream costs 0.1-0.7 ms (the seed hash and
the doubling rounds) against numpy's 12 us to load a state and draw 1,770
values (2-core x86-64).  So it serves the bounded, once-per-process draw
only: a random outcome table, at most 14 * 2^14 = 229,376 values.  Graph
coins and Monte Carlo, which draw millions of coins on a stream per
replicate, stay on numpy's Generator, seeded from ``seed_states``.
"""

from __future__ import annotations

import math

import numpy as np

# numpy's SeedSequence hash constants (4-word pool) and PCG64's multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1

# Lanes per row of the stream.  Each row makes about 30 array calls, so
# narrow rows pay per-call overhead and wide ones leave the cache: 229,376
# draws took 7.6 ms at 2^10 lanes, 4.0 ms at 2^12, 3.2 ms at 2^13 (64 kB
# per limb array), 3.1 ms at 2^14 and 6.3 ms at 2^16 on 2-core x86-64.
LANES = 2**13


def seed_words(value: int, count: int) -> list[np.ndarray]:
    """The entropy words SeedSequence reads from a non-negative int:
    its 32-bit words, lowest first (one word for 0), each as a uint32
    array of ``count`` equal lanes."""
    words = []
    while True:
        words.append(np.full(count, value & _MASK32, dtype=np.uint32))
        value >>= 32
        if not value:
            return words


def seed_states(words: list[np.ndarray]) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(entropy))`` for each
    lane, where lane j's entropy is the j-th element of every uint32 array
    in ``words``: ``seed_words(seed, 1)`` gives ``SeedSequence(seed)``, and
    ``seed_words(seed, count)`` plus an array of indices r gives
    ``SeedSequence([seed, r])``.

    SeedSequence hashes its entropy words into a 4-word pool, and the pool
    into four 64-bit seed words; PCG64 then runs its set-seed recurrence on
    them.  Each step is fixed integer arithmetic, so the uint32 hash runs
    once over arrays of every lane and the 128-bit recurrence on Python
    ints, giving numpy's own states bit for bit.
    """
    count = len(words[0])
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value *= const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = []
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    # the four little-endian 64-bit words: initstate high, low, initseq high, low
    seeds = [(out[2 * k + 1] << 32 | out[2 * k]).tolist() for k in range(4)]
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*seeds):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = (((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _jump(hi: np.ndarray, lo: np.ndarray, a: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's 128-bit state (hi, lo) mapped to a s + c mod 2^128."""
    a_hi, a_lo, c_hi, c_lo = a >> 64, a & _MASK64, c >> 64, c & _MASK64
    # high word of a_lo * lo from 32-bit halves (Hacker's Delight, mulhu)
    a1, a0 = a_lo >> 32, a_lo & _MASK32
    s1, s0 = lo >> 32, lo & _MASK32
    t = s0 * a0
    t >>= 32
    t += s0 * a1
    w = t & _MASK32
    w += s1 * a0
    w >>= 32
    t >>= 32
    t += w
    t += s1 * a1
    # the rest of the product, then the constant with its carry
    t += hi * a_lo
    t += lo * a_hi
    t += c_hi
    new_lo = lo * a_lo
    new_lo += c_lo
    t += new_lo < c_lo
    return t, new_lo


def uniform(seed: int, low: float, high: float, count: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(low, high, size=count)``, bit
    for bit: each PCG64 output x becomes ``low + (high - low) * d`` with
    ``d = (x >> 11) * 2**-53``.  A range past the double range raises
    ``OverflowError``, as numpy does."""
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    state, inc = seed_states(seed_words(seed, 1))[0]
    first = (state * _PCG64_MULT + inc) & _MASK128  # each output reads the stepped state
    hi = np.array([first >> 64], dtype=np.uint64)
    lo = np.array([first & _MASK64], dtype=np.uint64)
    lanes = min(LANES, 1 << max(count - 1, 0).bit_length())
    a, c = _PCG64_MULT, inc  # the stride of len(hi) steps
    while len(hi) < lanes:
        next_hi, next_lo = _jump(hi, lo, a, c)
        hi, lo = np.concatenate((hi, next_hi)), np.concatenate((lo, next_lo))
        a, c = a * a & _MASK128, (a * c + c) & _MASK128
    out = np.empty(count)
    for start in range(0, count, lanes):
        if start:
            hi, lo = _jump(hi, lo, a, c)
        size = min(lanes, count - start)
        # XSL-RR: the xor of the halves rotated right by the top 6 bits
        x = hi[:size] ^ lo[:size]
        rot = hi[:size] >> 58
        bits = x >> rot
        rot = 64 - rot
        rot &= 63
        x <<= rot
        bits |= x
        bits >>= 11
        d = out[start : start + size]
        d[:] = bits
        d *= 2.0**-53
        d *= span
        d += low
    return out
