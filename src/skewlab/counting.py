"""Exact counting for the gamma statistic and its tail, plus a seeded sampler.

The central tool is a left-to-right dynamic program over string positions.
Its state is the last two chosen bits; each of the four states holds the
counts of all prefixes by the total gamma contribution of their finished
positions, packed into one big integer (Kronecker substitution: the count
for total v sits in slot v, _SLOT_BITS wide). A step of the program is
eight shifts and adds, a tail count is one shift and a fold of the slots,
and no string is ever materialized, so it runs comfortably up to n = 512.
The tail counts C(n) up to max_n run the same program on a window of
totals: a prefix whose total already exceeds max_n leaves the window for a
count that doubles with each step, and one whose total can no longer reach
the tail at any length up to max_n is dropped, so the window shrinks as n
nears max_n instead of growing to 2n + 1 slots.
A column of bounds floor(2^(an/k)) takes one exact k-th root.

The sampler checks the tail against uniform draws from the SplitMix64
stream, evaluated a block of draws at a time, one draw per lane of a single
integer, so a block costs a few dozen whole-integer operations instead of a
Python loop per draw.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .record import Record

MAX_DP_LENGTH = 512
MAX_SAMPLING_LENGTH = 64

# One slot per gamma total: a count is at most 2^MAX_DP_LENGTH, and a slot is
# a whole number of bytes, so counts decode by slicing ``to_bytes``.
_SLOT_BYTES = MAX_DP_LENGTH // 8 + 1
_SLOT_BITS = 8 * _SLOT_BYTES
# The tail kernel trims its window once per this many steps.
_TRIM_STEPS = 16

_MASK64 = (1 << 64) - 1
# SplitMix64 constants: fixed odd increment and the two finalizer multipliers.
_SM64_INCREMENT = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB

# Monte Carlo kernel: a block of _LANES draws is one integer, one draw per
# _LANE_BITS-wide lane, wide enough that a 64-bit value times a 64-bit
# multiplier stays inside its lane.
_LANES = 2048
_LANE_BITS = 128
_LANE_BYTE_SUM = ((1 << _LANE_BITS) - 1) // 0xFF  # 1 in each of a lane's 16 bytes

# floor_pow2_upto's brackets keep _ROOT_GUARD_BITS bits below the binary point.
_ROOT_GUARD_BITS = 64


class CrossoverNotFoundError(ValueError):
    """Raised when no scan prefix satisfies the requested inequality."""


def _slot_sum(x: int, width: int) -> int:
    """The sum of the ``width``-bit slots of x, folded in halves: the high
    slots are added onto the low ones until one slot is left. Each slot's
    weight is 1 modulo 2^width - 1, so this is ``x % (2^width - 1)`` with no
    final reduction whenever the slots sum below 2^width - 1, as counts do:
    any sum of them is at most 2^n, and every width holds 2^n with room to
    spare, so no fold ever carries out of a slot."""
    while x >> width:
        h = width * (-(-x.bit_length() // width) // 2)
        x = (x >> h) + (x & (1 << h) - 1)
    return x


class GammaDistribution(Record):
    """Exact counts of length-n strings by their gamma value, packed: the
    count for gamma = v is slot v of ``packed``, _SLOT_BITS wide."""

    __slots__ = ("n", "packed")

    @property
    def counts(self) -> dict[int, int]:
        """Nonzero counts keyed by gamma value."""
        raw = self.packed.to_bytes(_SLOT_BYTES * (2 * self.n + 1), "little")
        slots = (int.from_bytes(raw[i:i + _SLOT_BYTES], "little")
                 for i in range(0, len(raw), _SLOT_BYTES))
        return {v: c for v, c in enumerate(slots) if c}


def gamma_distribution_sweep(max_n: int) -> Iterator[GammaDistribution]:
    """Yield the exact gamma distribution for every n = 1..max_n in one pass,
    one at a time, so a caller that streams them holds one distribution.

    State sAB after choosing positions 1..i (A = bit i-1, B = bit i) packs the
    counts by the gamma total of the finished positions 1..i-1, so a one-slot
    shift adds 1 to every total. Choosing bit c at position i+1 finishes
    position i with B + [A = 1 or c = 1]; for c = 0 that is B + A, as at the
    end of a length-i string, so length i's distribution is s00 + s10 then.
    Its successor s01 is that distribution shifted one slot, so the step
    keeps the last two distributions (prev, cur) instead of s01.
    """
    if not 1 <= max_n <= MAX_DP_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_DP_LENGTH}], got {max_n}")
    w, w2 = _SLOT_BITS, 2 * _SLOT_BITS
    s00, s10, s11 = 1, 1 << w, 1 << w2  # after position 1 (position 0 is an implicit 0)
    prev, cur = 1, 1 + (1 << w)  # lengths 0 and 1
    yield GammaDistribution(1, cur)
    for n in range(2, max_n + 1):
        s00, s10, s11 = s00 + (s10 << w), (prev + s11) << w2, ((prev << w) + s11) << w2
        prev, cur = cur, s00 + s10
        yield GammaDistribution(n, cur)


def gamma_distribution(n: int) -> GammaDistribution:
    """Exact distribution of gamma over all 2^n strings of length n."""
    return deque(gamma_distribution_sweep(n), maxlen=1).pop()


def _repack(x: int, width: int, wider: int) -> int:
    """x with each of its ``width``-bit slots moved into a ``wider``-bit slot
    (both whole bytes)."""
    b = width // 8
    raw = x.to_bytes(b * -(-x.bit_length() // width), "little")
    pad = bytes((wider - width) // 8)
    return int.from_bytes(pad.join(raw[i:i + b] for i in range(0, len(raw), b)), "little")


def tail_counts_upto(max_n: int) -> list[int]:
    """C(n), the number of length-n strings with gamma > n, for n = 1..max_n.

    The recurrence of ``gamma_distribution_sweep`` on a window of totals. At
    the start of step n the states count prefixes of length n by the total t
    of their finished positions 1..n-1, which every extension keeps and can
    raise by at most 2 per position. So every _TRIM_STEPS steps, once a total
    can exceed max_n, the window is trimmed at both ends:

    - a prefix with t > max_n has every extension in the tail, up to max_n:
      its count moves to ``certain``, which doubles with each step;
    - a prefix with t <= 2n - 2 - max_n has no extension in the tail at any
      length up to max_n, so it is dropped.

    ``prev`` stands for s01 one slot up, so it is cut one slot lower, and all
    four states drop the same number of slots, which is tight for s01 and one
    slot short for the others. ``base`` is the total held in slot 0. Up to
    the first trim no sum of counts exceeds 2^start, so slots start about
    max_n/2 bits wide and are repacked to full width once, when trimming
    starts: every slot sum stays below 2^width.
    """
    if not 1 <= max_n <= MAX_DP_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_DP_LENGTH}], got {max_n}")
    # the first trim: the first multiple of _TRIM_STEPS with 2n - 2 >= max_n
    start = _TRIM_STEPS * -(-(max_n + 2) // (2 * _TRIM_STEPS))
    full = 8 * (max_n // 8 + 1)
    w = 8 * (min(start, max_n) // 8 + 1)
    w2 = 2 * w
    s00, s10, s11 = 1, 1 << w, 1 << w2
    prev, cur = 1, 1 + (1 << w)
    base = certain = 0
    tails = [0]  # both length-1 strings have gamma <= 1
    for n in range(2, max_n + 1):
        certain *= 2
        if n % _TRIM_STEPS == 0 and n >= start:
            top, drop = max_n + 1 - base, 2 * n - 2 - max_n - base
            keep = (1 << w * top) - 1
            certain += _slot_sum((s00 >> w * top) + (s10 >> w * top) + (s11 >> w * top)
                                 + (prev >> w * (top - 1)), w)
            s00, s10, s11, prev = ((s & keep) >> w * drop
                                   for s in (s00, s10, s11, prev & keep >> w))
            base += drop
            if n == start:
                s00, s10, s11, prev = (_repack(s, w, full) for s in (s00, s10, s11, prev))
                w, w2 = full, 2 * full
            cur = s00 + s10
        s00, s10, s11 = s00 + (s10 << w), (prev + s11) << w2, ((prev << w) + s11) << w2
        prev, cur = cur, s00 + s10
        tails.append(certain + _slot_sum(cur >> w * (n + 1 - base), w))
    return tails


def count_C(n: int) -> int:
    """Number of length-n strings whose gamma exceeds n."""
    return tail_counts_upto(n)[-1]


def tail_probability(n: int) -> Fraction:
    """Exact probability that a uniform length-n string has gamma <= n."""
    return Fraction((1 << n) - count_C(n), 1 << n)


def fibonacci_count(n: int) -> int:
    """Number of length-n strings with no two adjacent 1s.

    The sequence starts 2, 3 and obeys f(n) = f(n-1) + f(n-2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    prev, cur = 1, 2
    for _ in range(n - 1):
        prev, cur = cur, prev + cur
    return cur


def floor_kth_root(x: int, k: int) -> int:
    """Largest integer r with r**k <= x.

    An even k is halved with ``math.isqrt``, as floor(floor(x^(1/a))^(1/b))
    = floor(x^(1/ab)). An odd k starts from a float log2 estimate of the
    root nudged above it: its 53-bit mantissa, shifted into place, plus 1.
    Integer Newton from above then converges quadratically, and the result
    is checked against r**k <= x < (r + 1)**k.
    """
    if x < 0 or k < 1:
        raise ValueError("x must be >= 0 and k >= 1")
    while k % 2 == 0:
        x, k = math.isqrt(x), k // 2
    if x < 2 or k == 1:
        return x
    xb = x.bit_length()
    e = ((xb - 64 if xb > 64 else 0) + math.log2(x >> max(0, xb - 64))) / k
    mantissa = int(math.ldexp(2.0 ** (e % 1.0) * (1.0 + 1e-9), 52))
    shift = int(e) - 52
    r = (mantissa << shift if shift >= 0 else mantissa >> -shift) + 1
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@lru_cache(maxsize=None)
def floor_pow2(numerator: int, denominator: int) -> int:
    """floor(2**(numerator/denominator)), exactly, via an integer k-th root
    of the reduced fraction (69n/100 at n = 50 is a 2nd root, not a 100th)."""
    if denominator < 1 or numerator < 0:
        raise ValueError("exponent must be a nonnegative rational")
    g = math.gcd(numerator, denominator)
    return floor_kth_root(1 << numerator // g, denominator // g)


def floor_pow2_upto(numerator: int, denominator: int, max_n: int) -> list[int]:
    """floor(2**(numerator*n/denominator)) for n = 1..max_n, from one exact root.

    With a/k the reduced fraction and p = floor(a*max_n/k) + _ROOT_GUARD_BITS,
    the k-th root r = floor(2^(1/k) * 2^p) has r <= 2^(1/k) * 2^p < r + 1, so
    floor products lo_j = floor(lo_(j-1) * r / 2^p) and ceiling products
    hi_j = ceil(hi_(j-1) * (r + 1) / 2^p), from lo_0 = hi_0 = 2^p, bracket
    2^(j/k) * 2^p for j < k. With q, j = divmod(a*n, k), floor(2^(an/k)) lies
    between lo_j >> p-q and hi_j >> p-q; where they differ, floor_pow2 takes
    the root itself. Either way each bound is a proven floor.
    """
    if denominator < 1 or numerator < 0:
        raise ValueError("exponent must be a nonnegative rational")
    g = math.gcd(numerator, denominator)
    a, k = numerator // g, denominator // g  # k = 1 makes exact powers of two
    p = a * max_n // k + _ROOT_GUARD_BITS
    r = floor_kth_root(1 << 1 + k * p, k)
    lo, hi = [1 << p], [1 << p]
    for _ in range(k - 1):
        lo.append(lo[-1] * r >> p)
        hi.append(-(-hi[-1] * (r + 1) >> p))
    bounds = []
    for n in range(1, max_n + 1):
        q, j = divmod(a * n, k)
        f = lo[j] >> p - q
        bounds.append(f if f == hi[j] >> p - q else floor_pow2(a * n, k))
    return bounds


def ceil_pow2_upto(numerator: int, denominator: int, max_n: int) -> list[int]:
    """ceil(2**(numerator*n/denominator)) for n = 1..max_n: the floor, plus
    one unless the exponent is a whole number."""
    return [f + (numerator * n % denominator != 0)
            for n, f in enumerate(floor_pow2_upto(numerator, denominator, max_n), 1)]


def crossover_scan(max_n: int) -> int:
    """Smallest N such that 2^n - count_C(n) <= 2^(0.96 n) for all n in [N, max_n].

    The right side is an irrational power of two; since the left side is an
    integer, comparing against floor(2^(24n/25)) computed by an exact
    integer 25th root decides the true inequality.
    """
    if not 2 <= max_n <= MAX_DP_LENGTH:
        raise ValueError(f"max_n must be in [2, {MAX_DP_LENGTH}], got {max_n}")
    last_violation = 0
    bounds = floor_pow2_upto(24, 25, max_n)
    for n, (tail, bound) in enumerate(zip(tail_counts_upto(max_n), bounds), 1):
        if (1 << n) - tail > bound:
            last_violation = n
    if last_violation >= max_n:
        raise CrossoverNotFoundError(
            f"inequality still violated at n = {last_violation}; no crossover up to {max_n}"
        )
    return last_violation + 1


class TailEstimate(Record):
    """Monte Carlo estimate of the probability that gamma <= n."""

    __slots__ = ("n", "samples", "seed", "estimate", "standard_error")


@lru_cache(maxsize=1)
def _lane_constants(n: int) -> tuple[int, ...]:
    """The kernel's constants for length-n draws, built on first use: ONES (1
    at the bottom of every lane), STEPS ((t + 1) times the increment in lane
    t, below 2^77), STRIDE and M64 (_LANES increments mod 2^64, and 2^64 - 1,
    in every lane), the low n bits of each lane and those bits 64 higher,
    127 - n in each top byte, the 0x55/0x33/0x0F popcount masks across the
    whole block and bit 127 of every lane."""
    full = (1 << _LANE_BITS * _LANES) - 1
    ones = full // ((1 << _LANE_BITS) - 1)
    counter = b"".join(t.to_bytes(_LANE_BITS // 8, "little") for t in range(1, _LANES + 1))
    steps = int.from_bytes(counter, "little") * _SM64_INCREMENT
    low = ((1 << n) - 1) * ones
    return (ones, steps, (_LANES * _SM64_INCREMENT & _MASK64) * ones, _MASK64 * ones, low,
            low << 64, (127 - n) * ones << 120, full // 3, full // 5, full // 17, ones << 127)


def _lanes_above(x: int, n: int) -> int:
    """How many lanes of x, a block of draws masked to n bits, have gamma > n.

    Each lane holds its draw in the low half and the draw's influence in the
    high half; a SWAR stage leaves each byte's popcount (at most 8) in the
    byte. Times _LANE_BYTE_SUM, each byte is added into the 15 above it with
    no carry, as a product byte sums 16 of them, so a lane's top byte holds
    its gamma <= 2n <= 128, and adding 127 - n sets bit 127 iff gamma > n."""
    *_, infl_mask, bias, m55, m33, m0f, tops = _lane_constants(n)
    v = x | ((x << 65 | x << 63) & infl_mask)
    v -= (v >> 1) & m55
    v = (v & m33) + ((v >> 2) & m33)
    v = (v + (v >> 4)) & m0f
    return ((v * _LANE_BYTE_SUM + bias) & tops).bit_count()


def monte_carlo_tail(n: int, samples: int, seed: int) -> TailEstimate:
    """Estimate Pr{gamma <= n} from ``samples`` seeded uniform draws.

    Reproducible: draw i is the low n bits of output i of the SplitMix64
    stream whose 64-bit state starts at ``seed``, so the same (n, samples,
    seed) gives the same estimate on any implementation of that stream. Each
    output advances the state and mixes it, all modulo 2^64:

        state += 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    The stream is evaluated _LANES draws at a time, one draw per
    _LANE_BITS-wide lane of a single integer: the step, the finalizer and the
    gamma test are whole-integer adds, shifts, masks and multiplications by
    constants, none of which carries across a lane, and one ``bit_count``
    counts a block's draws with gamma > n.
    """
    if not 1 <= n <= MAX_SAMPLING_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_SAMPLING_LENGTH}], got {n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    # a seed is the 64-bit state; reducing it would give two seeds one stream
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    ones, steps, stride, m64, lane_mask = _lane_constants(n)[:5]
    state = (steps + seed * ones) & m64  # lane t: the state after t + 1 steps
    above = 0
    for done in range(0, samples, _LANES):
        # the SplitMix64 finalizer, then the state _LANES steps on
        z = ((state ^ (state >> 30)) & m64) * _SM64_MIX1 & m64
        z = ((z ^ (z >> 27)) & m64) * _SM64_MIX2 & m64
        state = (state + stride) & m64
        x = (z ^ (z >> 31)) & lane_mask
        if samples - done < _LANES:
            x &= (1 << _LANE_BITS * (samples - done)) - 1
        above += _lanes_above(x, n)
    estimate = (samples - above) / samples
    stderr = math.sqrt(estimate * (1.0 - estimate) / samples)
    return TailEstimate(n, samples, seed, estimate, stderr)
