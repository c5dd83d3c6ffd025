"""Coprime inhomogeneous Diophantine approximation toolkit.

Given an irrational alpha and a real shift gamma, constructs coprime
integer pairs (m, n) whose error |n*alpha - m - gamma| stays below
exp(c*sqrt(log |n|))/|n|, with every real-number inequality decided by
exact quadratic-field arithmetic or validated rational intervals, and
with brute-force oracles for every step of the construction.
"""

from .confrac import (ContinuedFraction, Convergent, cf_from_decimal,
                      cf_from_quadratic, cf_from_terms, parse_alpha_spec)
from .construct import (ApproxPair, BasePair, GammaSpec, GenericGamma,
                        LatticeGamma, SearchCaps, base_pair,
                        construct_coprime_approx, construct_sweep, cross_term,
                        gamma_value, n0_growth_check, parse_gamma_spec,
                        shifted_pair)
from .coprimesearch import (ProgressionQuery, count_coprime_bruteforce,
                            count_coprime_mobius, find_coprime_shift,
                            find_low_omega, growth_g, growth_h)
from .errors import (CheckFailedError, DomainError, FactorBudgetError,
                     IllegalExpansionError, OstroError, PrecisionError,
                     RationalInputError, SearchCapError, SpecParseError)
from .numtheory import (Factorization, euler_phi, factorize, gcd, is_prime,
                        mobius, omega, omega_window, prime_count,
                        squarefree_divisors)
from .oracle import (RecordEntry, approx_error, best_coprime_approx,
                     best_coprime_at)
from .ostrowski import (IntOstrowski, RealOstrowski, inhom_bound,
                        normalize_gamma, ostrowski_int,
                        ostrowski_int_reconstruct, ostrowski_real,
                        real_partial_sum, real_residual, tail_sign)
from .quadratic import QuadExt
from .validated import ValidatedReal

__version__ = "0.1.0"

__all__ = [
    "ApproxPair", "BasePair", "CheckFailedError", "ContinuedFraction",
    "Convergent", "DomainError", "FactorBudgetError", "Factorization",
    "GammaSpec", "GenericGamma", "IllegalExpansionError",
    "IntOstrowski", "LatticeGamma", "OstroError", "PrecisionError",
    "ProgressionQuery", "QuadExt", "RationalInputError", "RealOstrowski",
    "RecordEntry", "SearchCapError", "SearchCaps", "SpecParseError",
    "ValidatedReal", "approx_error", "base_pair",
    "best_coprime_approx", "best_coprime_at", "cf_from_decimal",
    "cf_from_quadratic", "cf_from_terms", "construct_coprime_approx",
    "construct_sweep",
    "count_coprime_bruteforce", "count_coprime_mobius", "cross_term",
    "euler_phi", "factorize", "find_coprime_shift", "find_low_omega",
    "gamma_value", "gcd", "growth_g", "growth_h", "inhom_bound", "is_prime",
    "mobius", "n0_growth_check", "normalize_gamma", "omega", "omega_window",
    "ostrowski_int", "ostrowski_int_reconstruct", "ostrowski_real",
    "parse_alpha_spec", "parse_gamma_spec", "prime_count",
    "real_partial_sum", "real_residual", "shifted_pair",
    "squarefree_divisors", "tail_sign",
]
