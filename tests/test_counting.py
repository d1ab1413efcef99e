"""Counting engine: DP against enumeration, exact identities, sampler."""

import hashlib
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from skewlab.bitstring import gamma_bits
from skewlab.counting import (
    CrossoverNotFoundError,
    ceil_pow2_upto,
    count_C,
    crossover_scan,
    fibonacci_count,
    floor_kth_root,
    floor_pow2,
    floor_pow2_upto,
    gamma_distribution,
    gamma_distribution_sweep,
    monte_carlo_tail,
    tail_counts_upto,
    tail_probability,
)
from skewlab import counting
from skewlab.counting import (
    _LANE_BITS,
    _LANES,
    _SLOT_BITS,
    _SLOT_BYTES,
    _lanes_above,
    _slot_sum,
)
from oracles import SplitMix64
from tables import (
    COUNT_C,
    CROSSOVER_N,
    EXPECTED_GAMMA,
    FIBONACCI,
    GAMMA_HIST,
    MONTE_CARLO_HITS,
    SPLITMIX64_SEED0,
    TAIL,
)

# Each slot's weight is 1 modulo this, so a residue adds the slots.
_SLOT_SUM = (1 << _SLOT_BITS) - 1


def gamma_histogram_brute(n: int) -> dict[int, int]:
    hist: dict[int, int] = {}
    for x in range(1 << n):
        g = gamma_bits(x, n)
        hist[g] = hist.get(g, 0) + 1
    return hist


def test_distribution_frozen_examples():
    for n, hist in GAMMA_HIST.items():
        assert gamma_distribution(n).counts == hist


def test_distribution_matches_enumeration():
    for dist in gamma_distribution_sweep(12):
        assert dist.counts == gamma_histogram_brute(dist.n), dist.n


def test_packed_sums_exact_at_the_cap():
    # n = 512 fills a slot to 2^512, the most the residue can add exactly
    dist = gamma_distribution(512)
    assert _slot_sum(dist.packed, _SLOT_BITS) == sum(dist.counts.values()) == 2 ** 512
    assert _slot_sum(dist.packed >> _SLOT_BITS * (2 * 512 + 1), _SLOT_BITS) == 0


def test_slot_fold_equals_residue():
    for dist in gamma_distribution_sweep(512):
        for x in (dist.packed, dist.packed >> _SLOT_BITS * (dist.n + 1)):
            assert _slot_sum(x, _SLOT_BITS) == x % _SLOT_SUM, dist.n
    w = _SLOT_BITS
    boundary = [
        0,
        1,
        1 << 512,
        1 << 512 + 1024 * w,                  # the top slot at n = 512
        (1 << 511) + (1 << 511 + 2 * w),      # an odd number of slots
        sum(1 << k * w for k in range(1025)),  # every slot at n = 512
        _SLOT_SUM - 1,                        # one slot, just below the modulus
        _SLOT_SUM - 2 + (1 << w),             # two slots summing to _SLOT_SUM - 1
    ]
    for x in boundary:
        assert _slot_sum(x, w) == x % _SLOT_SUM, x
    # the tail kernel's narrower slots, summing to just below the modulus
    for width in (8, 280):
        for slots in (1, 2, 3, 255):
            x = sum(((1 << width) - 2) // slots << k * width for k in range(slots))
            assert _slot_sum(x, width) == x % ((1 << width) - 1), (width, slots)


# SHA-256 of every packed distribution of gamma_distribution_sweep(512), each
# as 2n + 1 little-endian slots, concatenated; recorded from the 10-operation
# DP step that carried state s01 before the step was shortened
SWEEP_512_SHA256 = "48dd67c3ec16ce8a6dda4a6511025c2166afdfbe47e211fb92beb7de907262ca"


def test_sweep_to_the_cap_is_pinned():
    digest = hashlib.sha256()
    for dist in gamma_distribution_sweep(512):
        digest.update(dist.packed.to_bytes(_SLOT_BYTES * (2 * dist.n + 1), "little"))
    assert digest.hexdigest() == SWEEP_512_SHA256


def test_single_distribution_equals_sweep_entry():
    assert gamma_distribution(7) == list(gamma_distribution_sweep(20))[6]
    assert gamma_distribution(300) == list(gamma_distribution_sweep(301))[299]
    assert gamma_distribution(7) != gamma_distribution(8)


def test_distribution_bounds_and_mass():
    for dist in gamma_distribution_sweep(512):
        n = dist.n
        assert sum(dist.counts.values()) == 1 << n
        assert all(0 <= v <= 2 * n for v in dist.counts)
        if n >= 2:
            assert dist.counts.get(2 * n, 0) >= 1  # the all-ones string


def gamma_sum(counts: dict[int, int]) -> int:
    """Sum of gamma over all strings, from their counts by gamma value."""
    return sum(v * c for v, c in counts.items())


def test_expectation_identity_exact_integers():
    # 4 * sum(v * count) == (5n - 2) * 2^n for every n >= 2, up to the cap
    for dist in gamma_distribution_sweep(512):
        if dist.n >= 2:
            assert 4 * gamma_sum(dist.counts) == (5 * dist.n - 2) * (1 << dist.n), dist.n


def test_expected_gamma_examples():
    def expected_gamma(n: int) -> Fraction:
        return Fraction(gamma_sum(gamma_distribution(n).counts), 1 << n)

    for n, value in EXPECTED_GAMMA.items():
        assert expected_gamma(n) == value
    # the closed form starts at n = 2; n = 1 is genuinely different
    assert expected_gamma(1) == Fraction(1, 2)
    assert expected_gamma(1) != Fraction(5, 4) - Fraction(1, 2)


def test_count_C_frozen_table():
    for n, expected in COUNT_C.items():
        assert count_C(n) == expected


# max_n values around the trim steps and the repack; all of 1..512 take seconds
TAIL_KERNEL_MAX_N = (*range(1, 41), 63, 64, 65, 127, 128, 129, 255, 256, 257, 258, 300, 511, 512)


def test_tail_kernel_matches_the_sweep():
    sweep = [sum(c for v, c in dist.counts.items() if v > dist.n)
             for dist in gamma_distribution_sweep(512)]
    for max_n in TAIL_KERNEL_MAX_N:
        assert tail_counts_upto(max_n) == sweep[:max_n], max_n


def test_tail_kernel_matches_enumeration(monkeypatch):
    brute = [sum(gamma_bits(x, n) > n for x in range(1 << n)) for n in range(1, 15)]
    # trimming every step or few steps takes both ends of the window, and
    # the repack, within n <= 14
    for steps in (1, 2, 3, 16):
        monkeypatch.setattr(counting, "_TRIM_STEPS", steps)
        for max_n in range(1, 15):
            assert tail_counts_upto(max_n) == brute[:max_n], (steps, max_n)


def test_tail_probability_examples():
    for n, expected in TAIL.items():
        assert tail_probability(n) == expected
    p = tail_probability(200)
    assert 0 < p < 1
    assert p.denominator & (p.denominator - 1) == 0  # a power of two


def test_dp_length_validation():
    for bad in (0, -1, 513):
        with pytest.raises(ValueError):
            gamma_distribution(bad)
        with pytest.raises(ValueError):
            count_C(bad)
        with pytest.raises(ValueError, match=rf"n must be in \[1, 512\], got {bad}"):
            tail_counts_upto(bad)


def test_fibonacci_values():
    for n, expected in FIBONACCI.items():
        assert fibonacci_count(n) == expected
    with pytest.raises(ValueError):
        fibonacci_count(0)


def test_fibonacci_matches_enumeration():
    for n in range(1, 17):
        brute = sum(1 for x in range(1 << n) if x & (x >> 1) == 0)
        assert fibonacci_count(n) == brute


def test_fibonacci_ratio_bound_exact():
    # f(n-1)/f(n) <= 2/3 for every n >= 2, as an integer inequality
    for n in range(2, 91):
        assert 3 * fibonacci_count(n - 1) <= 2 * fibonacci_count(n), n
    assert 3 * fibonacci_count(1) == 2 * fibonacci_count(2)  # tight at n = 2


def test_fibonacci_ratio_converges_monotonically():
    getcontext().prec = 120
    limit = 2 / (1 + Decimal(5).sqrt())
    last = None
    for n in range(2, 91):
        ratio = Decimal(fibonacci_count(n - 1)) / Decimal(fibonacci_count(n))
        err = abs(ratio - limit)
        if last is not None:
            assert err < last, n
        last = err
    assert last < Decimal("1e-35")


def test_fibonacci_growth_bound():
    # scan for the first n from which f(n) >= 2^(0.694 n) holds through 200
    bounds = ceil_pow2_upto(694, 1000, 200)
    violations = [
        n for n in range(1, 201) if fibonacci_count(n) < bounds[n - 1]
    ]
    first_good = max(violations) + 1 if violations else 1
    assert first_good == 1  # holds from the very start at this scale
    for n in range(first_good, 201):
        assert fibonacci_count(n) >= bounds[n - 1], n


def test_floor_kth_root():
    assert floor_kth_root(0, 5) == 0
    assert floor_kth_root(1, 5) == 1
    assert floor_kth_root(2 ** 50, 5) == 2 ** 10
    for x in list(range(2, 40)) + [10 ** 30, 10 ** 30 + 7, 2 ** 200 - 1]:
        for k in (2, 3, 7, 25):
            r = floor_kth_root(x, k)
            assert r ** k <= x < (r + 1) ** k, (x, k)
    with pytest.raises(ValueError):
        floor_kth_root(-1, 2)


def floor_root_by_bisection(x: int, k: int) -> int:
    """Largest r with r**k <= x, decided one bit of r at a time from the top."""
    r = 0
    for bit in reversed(range(x.bit_length() // k + 1)):
        if (r | 1 << bit) ** k <= x:
            r |= 1 << bit
    return r


def root_boundary_cases(k: int) -> set[int]:
    """x < 2, m^k - 1, m^k and m^k + 1, and 2^e - 1 and 2^e + 1, up to 8,000
    bits. The widths of m and of the root of 2^e sit on both sides of every
    32 * 2^j, and run through 50-56, where the shift that places the seed's
    53-bit mantissa changes sign."""
    widths = {1, 2, 3} | set(range(50, 57))
    for j in range(7):
        widths |= {(32 << j) - 1, 32 << j, (32 << j) + 1}
    cases = {0, 1}
    for w in widths:
        if w * k + 1 <= 8000:
            for m in (1 << w) - 1, (1 << w - 1) + 1:
                cases |= {m ** k - 1, m ** k, m ** k + 1}
            cases |= {(1 << w * k) - 1, (1 << w * k) + 1}
    return cases


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 25, 50, 100, 1000])
def test_floor_kth_root_matches_bisection(k):
    # even k goes through isqrt first; the odd parts 3, 5, 7, 25 and 125 run
    # Newton from the float seed
    for x in sorted(root_boundary_cases(k)):
        assert floor_kth_root(x, k) == floor_root_by_bisection(x, k), (x.bit_length(), k)


def test_floor_and_ceil_pow2():
    assert floor_pow2(10, 1) == 1024
    assert ceil_pow2_upto(10, 1, 1) == [1024]
    assert floor_pow2(1, 2) == 1  # floor(sqrt 2)
    assert ceil_pow2_upto(1, 2, 1) == [2]
    assert floor_pow2(96, 100) == 1  # floor(2^0.96) = 1
    assert floor_pow2(24 * 3, 25) == 7  # floor(2^2.88)
    for num, den in ((5, 3), (123, 47), (694, 1000), (69, 100)):
        f, c = floor_pow2(num, den), ceil_pow2_upto(num, den, 1)[0]
        assert f <= 2 ** (num / den) <= c
        assert c - f in (0, 1)


def test_floor_pow2_on_reducible_fractions():
    # the root is taken of the reduced fraction; the bracket is checked on
    # the fraction as given
    for n in list(range(5, 201, 5)) + [2, 4, 8, 64, 500, 512]:
        for num, den in ((24 * n, 25), (69 * n, 100), (694 * n, 1000)):
            r = floor_pow2(num, den)
            assert r ** den <= 2 ** num < (r + 1) ** den, (num, den)


def ceil_pow2(numerator: int, denominator: int) -> int:
    """ceil(2**(numerator/denominator)): the floor, plus one unless the
    exponent is a whole number."""
    return floor_pow2(numerator, denominator) + (numerator % denominator != 0)


BOUND_FRACTIONS = ((24, 25), (69, 100), (694, 1000), (1, 2), (3, 1), (0, 7))


def assert_batched_bounds_match_per_n():
    for num, den in BOUND_FRACTIONS:
        floors = [floor_pow2(num * n, den) for n in range(1, 513)]
        ceils = [ceil_pow2(num * n, den) for n in range(1, 513)]
        assert floor_pow2_upto(num, den, 512) == floors, (num, den)
        assert ceil_pow2_upto(num, den, 512) == ceils, (num, den)


def test_batched_pow2_bounds_match_per_n():
    assert_batched_bounds_match_per_n()
    assert floor_pow2_upto(24, 25, 0) == ceil_pow2_upto(24, 25, 0) == []


def spy_on_roots(monkeypatch) -> dict[str, int]:
    """Count the calls floor_pow2_upto makes to the module's root functions."""
    calls = {"floor_kth_root": 0, "floor_pow2": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(counting, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(counting, name, counted)
    return calls


def test_batched_bounds_take_one_root_per_column(monkeypatch):
    calls = spy_on_roots(monkeypatch)
    for num, den in ((24, 25), (69, 100)):  # the theorem table's two columns
        floor_pow2_upto(num, den, 512)
        ceil_pow2_upto(num, den, 512)
    assert calls == {"floor_kth_root": 4, "floor_pow2": 0}


def test_ambiguous_brackets_fall_back_to_exact_roots(monkeypatch):
    # with no guard bits the brackets straddle integers near max_n, so some
    # bounds come from floor_pow2; every bound must still be the exact floor
    monkeypatch.setattr(counting, "_ROOT_GUARD_BITS", 0)
    assert_batched_bounds_match_per_n()
    calls = spy_on_roots(monkeypatch)
    for num, den in ((24, 25), (69, 100), (694, 1000)):
        calls["floor_pow2"] = 0
        floor_pow2_upto(num, den, 512)
        assert calls["floor_pow2"] > 0, (num, den)
    # short columns keep p small, so a bracket that is not a true
    # floor/ceiling pair would show as a wrong bound
    for guard in range(4):
        monkeypatch.setattr(counting, "_ROOT_GUARD_BITS", guard)
        for num, den in BOUND_FRACTIONS + ((2, 3), (5, 7)):
            for max_n in range(1, 80):
                expected = [floor_pow2(num * n, den) for n in range(1, max_n + 1)]
                assert floor_pow2_upto(num, den, max_n) == expected, (num, den, guard, max_n)


def test_crossover_scan_value():
    assert crossover_scan(200) == CROSSOVER_N
    assert crossover_scan(2) == 2
    # n = 1 violates: both strings have gamma <= 1, and 2 > floor(2^0.96) = 1
    assert (1 << 1) - count_C(1) == 2 > floor_pow2(24, 25) == 1


def test_crossover_scan_validation():
    for bad in (1, 0, 513):
        with pytest.raises(ValueError):
            crossover_scan(bad)
    assert issubclass(CrossoverNotFoundError, ValueError)


def test_splitmix_reference_vector():
    gen = SplitMix64(0)
    assert tuple(gen.next_uint64() for _ in range(3)) == SPLITMIX64_SEED0


def test_splitmix_determinism_and_seed_range():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]
    # the reference class and the sampler accept the same seeds
    for bad in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError, match="seed must be in"):
            SplitMix64(bad)
        with pytest.raises(ValueError, match="seed must be in"):
            monte_carlo_tail(3, 10, bad)
    assert SplitMix64(2 ** 64 - 1).next_uint64() == SplitMix64(2 ** 64 - 1).next_uint64()


def test_monte_carlo_matches_generator_class():
    """The lane-packed sampler draws exactly the stream of the generator
    class: its estimate equals a draw-by-draw loop over ``SplitMix64``."""
    n, samples, seed = 12, 500, 77
    gen = SplitMix64(seed)
    mask = (1 << n) - 1
    hits = 0
    for _ in range(samples):
        x = gen.next_uint64() & mask
        if gamma_bits(x, n) <= n:
            hits += 1
    est = monte_carlo_tail(n, samples, seed)
    assert est.estimate == hits / samples


def test_monte_carlo_stream_across_block_boundaries():
    """Hit counts equal a draw-by-draw loop over the generator class for
    sample counts around the block width, and for the seed whose state wraps
    on the first step."""
    longest = 3 * _LANES + 5
    for seed in (0, 2 ** 64 - 1):
        gen = SplitMix64(seed)
        stream = [gen.next_uint64() for _ in range(longest)]
        for n in (1, 2, 31, 32, 63, 64):
            mask = (1 << n) - 1
            passed = [gamma_bits(z & mask, n) <= n for z in stream]
            for samples in (1, _LANES - 1, _LANES, _LANES + 1, longest):
                est = monte_carlo_tail(n, samples, seed)
                assert est.estimate == sum(passed[:samples]) / samples, (n, samples, seed)


def lane_block(draws: list[int]) -> int:
    """One block with draws[t] in lane t; the lanes after the last are 0."""
    return int.from_bytes(b"".join(d.to_bytes(_LANE_BITS // 8, "little") for d in draws), "little")


def test_lane_sum_at_its_extremes():
    """The block test counts the lanes with gamma > n, as gamma_bits does,
    for all ones (gamma 2n, 128 at n = 64), all zeros, the two alternating
    strings and a lone top or bottom bit, in uniform blocks, in blocks that
    mix them lane by lane, and in partial last blocks; and for runs of ones
    from bit 0 or bit 1, whose gammas include n and, for n > 2, n + 1."""
    for n in (1, 2, 63, 64):
        mask = (1 << n) - 1
        patterns = [mask, 0, mask & 0x5555555555555555, mask & 0xAAAAAAAAAAAAAAAA, 1 << n - 1, 1]
        blocks = [[p] * _LANES for p in patterns]
        blocks += [[p] * (_LANES - 3) for p in patterns]
        blocks += [[patterns[t % 6] for t in range(lanes)] for lanes in (_LANES, 1, 7)]
        blocks += [[patterns[t // 2 % 6] for t in range(_LANES - 1)]]
        blocks += [[(1 << j) - 1 << shift & mask for j in range(n + 1) for shift in (0, 1)]]
        for draws in blocks:
            expected = sum(gamma_bits(d, n) > n for d in draws)
            assert _lanes_above(lane_block(draws), n) == expected, (n, draws[:2], len(draws))
    assert gamma_bits((1 << 64) - 1, 64) == 128


def test_monte_carlo_frozen_hit_counts():
    for (n, samples, seed), hits in MONTE_CARLO_HITS.items():
        assert monte_carlo_tail(n, samples, seed).estimate == hits / samples, (n, samples, seed)


def test_monte_carlo_reproducible():
    a = monte_carlo_tail(20, 5000, 123)
    b = monte_carlo_tail(20, 5000, 123)
    assert a == b
    c = monte_carlo_tail(20, 5000, 124)
    assert a.estimate != c.estimate or a.seed != c.seed


def test_monte_carlo_examples():
    assert monte_carlo_tail(1, 1000, 3).estimate == 1.0  # every string passes
    est = monte_carlo_tail(2, 10 ** 4, 1)
    assert abs(est.estimate - 0.75) <= 3 * est.standard_error
    est20 = monte_carlo_tail(20, 10 ** 5, 42)
    assert abs(est20.estimate - float(tail_probability(20))) <= 3 * est20.standard_error


def test_monte_carlo_stderr_formula_and_validation():
    est = monte_carlo_tail(10, 4000, 9)
    assert est.standard_error == pytest.approx(
        math.sqrt(est.estimate * (1 - est.estimate) / est.samples), abs=0.0
    )
    with pytest.raises(ValueError):
        monte_carlo_tail(10, 0, 1)
    with pytest.raises(ValueError):
        monte_carlo_tail(65, 10, 1)


def test_monte_carlo_rejects_out_of_range_seeds():
    # a seed is a 64-bit state; reducing it would give two seeds one stream
    for bad in (-1, 2 ** 64, 2 ** 70):
        with pytest.raises(ValueError, match="seed must be in"):
            monte_carlo_tail(3, 10, bad)
    assert monte_carlo_tail(3, 10, 2 ** 64 - 1).seed == 2 ** 64 - 1
