"""Frozen expected values shared across test modules.

Every number here was computed by an independent route before the library
code existed: exhaustive enumeration over all strings for the counts and
gamma histograms, subset-scan search for the small family maxima, and two
agreeing methods (chain covers and clique-over-incomparability) for the
antichain maxima. Tests compare library output against these literals.
"""

from fractions import Fraction

# number of length-n strings with gamma > n, by exhaustive enumeration
COUNT_C = {
    1: 0,
    2: 1,
    3: 3,
    4: 8,
    5: 17,
    6: 38,
    7: 80,
    8: 164,
    9: 346,
    10: 701,
    11: 1446,
    12: 2953,
}

# histograms {gamma: count} by exhaustive enumeration
GAMMA_HIST = {
    1: {0: 1, 1: 1},
    2: {0: 1, 2: 2, 4: 1},
    3: {0: 1, 2: 2, 3: 2, 5: 2, 6: 1},
    4: {0: 1, 2: 2, 3: 2, 4: 3, 5: 2, 6: 3, 7: 2, 8: 1},
}

EXPECTED_GAMMA = {1: Fraction(1, 2), 2: Fraction(2), 3: Fraction(13, 4)}

TAIL = {1: Fraction(1), 2: Fraction(3, 4), 3: Fraction(5, 8)}

# maximum pairwise-skewincident family sizes; n <= 3 confirmed by scanning
# all subsets of the string universe, n = 4 by the incremental subset table,
# n = 5..12 by the clique engine without a seed (branch and bound up from
# the greedy floor). n = 7..12 were frozen when two more routes agreed: the
# vertex-cover seed family has these sizes, and so does the cover bound
# |kept(n)| - ceil(nu / 2) from the double-cover matching.
MAX_FAMILY = {
    1: 1, 2: 3, 3: 5, 4: 11, 5: 22, 6: 46,
    7: 94, 8: 193, 9: 395, 10: 811, 11: 1650, 12: 3361,
}

MAX_FAMILY_WITNESS_3 = {"001", "010", "011", "110", "111"}

# exact_attractive(F, G, n) on (position graph, alphabet graph, n), as
# (size, SHA-256 of the space-joined witness, each mapping's values as
# digits), recorded from the dense branch-and-bound engine (degree relabel,
# size search from the greedy floor, repair-first witness pass) before
# every clique question moved to the unrelated graph H
ATTRACTIVE_WITNESS_SHA256 = {
    ("path:7", "path:3", 7):
        (2052, "0336b5a3908ff7cb660ca1cc27fb94cdee52c3cdb68f0e3813f1d18758e76e2b"),
    ("path:6", "multipartite:1,1,1", 6):
        (726, "ffc89fc0aa624f4fd3b9bfb727928aa80cbd34772dad3a15738d7427bbbec132"),
    ("all-loops:5", "multipartite:2,1", 5):
        (32, "5b4de02256c0fb926be05e04b799f60f5c5c6765cdd9fc944cc94833ccf15205"),
}

# maximum antichain sizes among no-adjacent-ones strings; n <= 10 confirmed
# by the independent clique-over-incomparability route
ANTICHAIN_MAX = {
    1: 1,
    2: 2,
    3: 3,
    4: 4,
    5: 6,
    6: 10,
    7: 15,
    8: 21,
    9: 35,
    10: 56,
    11: 84,
    12: 126,
    13: 210,
    14: 330,
    15: 495,
    16: 792,
    17: 1287,
    18: 2002,
    19: 3003,
    20: 5005,
}

FIBONACCI = {1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21, 7: 34, 8: 55}

# first n at which 2^n - |C_n| <= 2^(0.96 n) starts holding for good (<= 512)
CROSSOVER_N = 2

# SplitMix64 outputs for seed 0, from the published reference sequence
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# monte_carlo_tail(n, samples, seed) hit counts (draws with gamma <= n), recorded
# from the one-draw-at-a-time SplitMix64 loop that the lane-packed kernel
# replaced; (20, 100000, 42) is the README's montecarlo example
MONTE_CARLO_HITS = {(20, 100000, 42): 19222, (64, 100000, 5): 3958, (50, 100000, 3): 6204}
