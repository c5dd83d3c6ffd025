#!/usr/bin/env python3
"""Counting coprime pairs in simultaneous progressions, two ways.

Run:  python demos/mobius_coprime_counting.py
"""

import math

from ostro import (ProgressionQuery, count_coprime_bruteforce,
                   count_coprime_mobius, euler_phi, find_low_omega,
                   growth_h, omega, omega_window)

# How many b in [1, A] make gcd(m + b*r, n + b*s) = 1?  The direct scan
# and the inclusion-exclusion over the primes of |nr - ms| agree exactly,
# case by case.  The latter walks the subsets of those primes depth
# first, one CRT class of bad b per subset, and drops a subtree once its
# class has no member in [1, A].
print("scan vs inclusion-exclusion:")
for m, n, r, s, a_max in ((3, 5, 4, 3, 40), (7, 2, 5, 9, 60),
                          (12, 5, 7, 10, 25), (2, 1, 4, 1, 10)):
    q = ProgressionQuery(m, n, r, s, a_max)
    scan = count_coprime_bruteforce(q)
    mob = count_coprime_mobius(q)
    cross = abs(q.cross)
    low = a_max * euler_phi(cross) / cross - 2 ** omega(cross)
    print(f"  (m={m:2d} n={n:2d} r={r:2d} s={s:2d} A={a_max:2d})  "
          f"scan={scan:2d}  mobius={mob:2d}  lower bound ~ {low:6.2f}")
    assert scan == mob

# The counts stay near A * phi(K)/K, so a coprime shift is never far:
# that is what lets the pipeline pick b quickly after choosing a.

# omega over a short window of 15-digit integers, settled exactly by one
# sieve pass plus cofactor analysis (prime / prime square / two primes).
base = 10**15 + 1
print(f"\nomega on [{base}, {base + 10}]:", list(omega_window(base, base + 10)))

# The interval that is guaranteed to contain a low-omega integer has
# length about h_c(x); the scan finds the exact minimum.
for x in (10**4, 10**6, 10**8):
    n, w = find_low_omega(x, 2.0)
    print(f"x={x:>9d}  window length {math.ceil(growth_h(x, 2.0)):3d}  "
          f"min omega at N={n} with omega={w}")
