"""Acceptance gate: one test per criterion, at the stated exact tolerances.

Each test prints one PASS line (visible with pytest -s; pytest -v shows the
per-criterion verdicts either way) and asserts both the mathematical claim
and the runtime budget. Everything is exact integer comparison except the
Monte Carlo calibration, which is pinned at three standard errors with at
least 99 of 100 fixed seeds passing.
"""

import itertools
import time
from fractions import Fraction

from skewlab.bitstring import BitString, gamma_bits, influence_bits, skewincident_bits
from skewlab.constructions import enumerate_C, verify_pairwise_skewincident
from skewlab.counting import (
    count_C,
    crossover_scan,
    fibonacci_count,
    floor_pow2,
    gamma_distribution_sweep,
    monte_carlo_tail,
    tail_probability,
)
from skewlab.graphs import all_loops, complete_multipartite, path, skew_alphabet
from skewlab.report import sandwich_check
from skewlab.solver import exact_M, exact_MG, multipartite_M
from skewlab.sperner import max_antichain
from oracles import greedy_maximal_extension, max_antichain_oracle


class Budget:
    """Context manager asserting the criterion's wall-clock budget."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s / {self.seconds:.0f}s)")
            assert elapsed <= self.seconds, (
                f"{self.name} exceeded its budget: {elapsed:.1f}s > {self.seconds}s"
            )
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_01_construction_validity():
    with Budget("01 construction-validity", 60):
        for n in range(1, 13):
            assert verify_pairwise_skewincident(enumerate_C(n)) is None, n


def test_criterion_02_expectation_identity():
    with Budget("02 expectation-identity", 10):
        for dist in gamma_distribution_sweep(200):
            if dist.n >= 2:
                lhs = 4 * sum(v * c for v, c in dist.counts.items())
                rhs = (5 * dist.n - 2) * (1 << dist.n)
                assert lhs == rhs, dist.n


def test_criterion_03_dp_correctness():
    with Budget("03 dp-correctness", 60):
        dists = {d.n: d for d in gamma_distribution_sweep(16)}
        for n in range(1, 17):
            hist: dict[int, int] = {}
            for x in range(1 << n):
                g = gamma_bits(x, n)
                hist[g] = hist.get(g, 0) + 1
            assert dists[n].counts == hist, n


def test_criterion_04_crossover_evidence():
    with Budget("04 crossover-evidence", 30):
        n_star = crossover_scan(200)
        assert n_star <= 10
        dists = {d.n: d for d in gamma_distribution_sweep(200)}
        for n in range(n_star, 201):
            lhs = (1 << n) - sum(c for v, c in dists[n].counts.items() if v > n)
            assert lhs <= floor_pow2(24 * n, 25), n


def brute_force_max_family(n: int) -> int:
    """All-subsets oracle over the entire string universe (n <= 3)."""
    strings = list(range(1 << n))
    best = 0
    for mask in range(1, 1 << len(strings)):
        members = [s for s in strings if mask >> s & 1]
        if len(members) <= best:
            continue
        if all(
            skewincident_bits(a, b) for a, b in itertools.combinations(members, 2)
        ):
            best = len(members)
    return best


def test_criterion_05_exact_extremal_values():
    with Budget("05 exact-extremal-values", 300):
        expected = {1: 1, 2: 3, 3: 5}
        for n, value in expected.items():
            assert exact_M(n).size == value
            assert brute_force_max_family(n) == value
        for n in range(1, 6):
            assert exact_M(n).size == exact_MG(path(n)).size, n


def test_criterion_06_sandwich():
    with Budget("06 sandwich", 600):
        for n in range(1, 7):
            rep = sandwich_check(n)
            assert rep.ok, (n, rep)
            assert rep.construction_size == count_C(n)
            assert rep.upper_bound == (1 << n) - (
                fibonacci_count(n) - max_antichain(n).size
            )


def integer_partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    largest = total if largest is None else largest
    out = []
    for first in range(min(total, largest), 0, -1):
        out += [(first,) + rest for rest in integer_partitions(total - first, first)]
    return out


def test_criterion_07_multipartite_proposition():
    with Budget("07 multipartite-proposition", 300):
        cases = [p for k in range(1, 7) for p in integer_partitions(k)]
        assert len(cases) == 29  # partitions of 1..6, trivial one included
        for parts in cases:
            assert exact_MG(complete_multipartite(parts)).size == multipartite_M(parts), parts


def test_criterion_08_sperner_values():
    with Budget("08 sperner-values", 120):
        for n in range(1, 11):
            assert max_antichain(n).size == max_antichain_oracle(n), n
        for n in range(2, 21):
            m_n = max_antichain(n).size
            f_prev, f_n = fibonacci_count(n - 1), fibonacci_count(n)
            assert m_n <= f_prev, n
            assert 3 * f_prev <= 2 * f_n, n


def test_criterion_09_attractive_reductions():
    with Budget("09 attractive-reductions", 120):
        from skewlab.solver import exact_attractive

        k2 = complete_multipartite((1, 1))
        for n in range(1, 5):
            assert exact_attractive(path(n), skew_alphabet(), n).size == exact_M(n).size
            assert exact_attractive(all_loops(n), k2, n).size == 2 ** n


def test_criterion_10_greedy_not_maximal():
    with Budget("10 greedy-not-maximal", 60):
        strictly_larger = 0
        for n in range(1, 7):
            base = enumerate_C(n)
            ext = greedy_maximal_extension(base)
            assert set(base.masks) <= set(ext.masks)
            if len(ext) > len(base):
                strictly_larger += 1
        assert strictly_larger >= 1


def test_criterion_11_monte_carlo_calibration():
    with Budget("11 monte-carlo-calibration", 120):
        for n in (20, 50):
            exact = float(tail_probability(n))
            within = 0
            for seed in range(100):
                est = monte_carlo_tail(n, 100_000, seed)
                if abs(est.estimate - exact) <= 3.0 * est.standard_error:
                    within += 1
            assert within >= 99, (n, within)


def test_criterion_12_flip_sensitivity_constant():
    with Budget("12 flip-sensitivity-constant", 60):
        for n in range(3, 17):
            top = 0
            gammas = [gamma_bits(x, n) for x in range(1 << n)]
            for x in range(1 << n):
                gx = gammas[x]
                for i in range(n):
                    y = x ^ (1 << i)
                    if y > x:
                        d = abs(gammas[y] - gx)
                        if d > top:
                            top = d
            # the exact one-flip sensitivity of gamma is 3, attained at every
            # length from 3 up (for example 000 -> 010 moves gamma 0 -> 3)
            assert top == 3, n


def test_acceptance_support_influence_consistency():
    """Exact characterization used throughout: skewincidence holds iff one
    support meets the other's influence (spot check at full word width)."""
    x = BitString.from_string("10" * 32)
    y = BitString.from_string("01" * 32)
    assert skewincident_bits(x.bits, y.bits)
    assert x.bits & influence_bits(y.bits, 64)
    assert tail_probability(1) == Fraction(1)
