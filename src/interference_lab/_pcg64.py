"""numpy's PCG64 streams, computed by the package itself.

Everything the package knows about numpy's seeding and PCG64 lives here:
the ``SeedSequence`` hash and PCG64's set-seed step (``seed_state``), and a
vectorized stream that returns
``np.random.default_rng(seed).uniform(low, high, size=count)`` bit for bit
without importing ``numpy.random`` (about 13 ms per process, most of it the
Cython bit generators and OpenSSL's hash module behind ``secrets``).

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
numpy's 3-6.5 ns, and starting a stream costs 0.05-0.6 ms (15 us of it the
seed hash, the rest the doubling rounds) against numpy's 12 us to load a
state and draw 1,770 values (2-core x86-64).  So it serves the bounded,
once-per-process draws only, where numpy's import would cost more than the
draw: a random outcome table (at most ``outcomes.TABLE_VALUE_CAP`` values)
and a one-off graph's coins (``er.sample_er_graph``, at most
``er.ER_DRAW_PAIR_CAP``).  Monte Carlo, which draws millions of coins in
all, stays on numpy's Generator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

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


def check_seed(seed: int) -> None:
    """Refuse a negative seed, which has no 32-bit words (numpy refuses it)."""
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")


def seed_state(seed: int) -> tuple[int, int]:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(seed))``, numpy's own
    state bit for bit.

    SeedSequence reads the seed's 32-bit words, lowest first (one word for
    0), hashes them into a 4-word pool, and the pool into four 64-bit seed
    words; PCG64 then runs its set-seed recurrence on them.  Each step is
    fixed integer arithmetic, here on Python ints masked to numpy's widths.
    """
    check_seed(seed)
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
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
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    # the four little-endian 64-bit words: initstate high, low, initseq high, low
    initstate = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 97 | out[4] << 65 | out[7] << 33 | out[6] << 1 | 1) & _MASK128
    state = ((initstate + inc) * _PCG64_MULT + inc) & _MASK128
    return state, inc


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
    state, inc = seed_state(seed)
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
