"""Constants measured once with the independent oracles and frozen.

Regenerating: each value's provenance is the test that asserts it; the
oracle code reproduces these numbers exactly.  The hybrid prime sums
live in tests/test_numtheory.py, the 50-digit decimal evaluation in
tests/test_coprimesearch.py, and the exhaustive scans in the package.
"""

# (sum of 1/p over p <= 1e6) / lnln(1e6), hybrid exact/fixed-point sum.
MERTENS_SUM_RATIO = 1.0996027840781331

# prod(1 - 1/p) over p <= 1e6, times ln(1e6).
MERTENS_PROD_RATIO = 0.5614376216831793

# min over the deterministic sample of phi(n)/n * lnln(n); the minimum
# sits at n = 3 where lnln is tiny.
KAPPA0 = 0.06269855174449565
KAPPA0_SAMPLE_STEP = 97
KAPPA0_EXTRA = (6, 30, 210, 2310, 30030, 510510)

# Growth functions at frozen points, 50-digit decimal evaluation.
GROWTH_G_1E6_C2 = 172.90603058652554
GROWTH_H_1E6_C2 = 20.466886879747998
GROWTH_H_E4_C2 = 5.6588401535432125

# Deterministic x grid for the low-omega interval scans.
LOW_OMEGA_XS = sorted({round(10 ** (3 + 4 * j / 49)) for j in range(50)})

# Per-triple ceilings for the quality ratio err*|n|/exp(2*sqrt(log|n|)),
# observed maxima over i = 5..40 rounded up at six significant digits.
QUALITY_CAPS = {
    ("quad:2,0,1", "rat:1/3"): 0.0464289,
    ("quad:2,0,1", "lat:1,0"): 0.114911,
    ("quad:2,0,1", "rat:0"): 0.00572953,
    ("quad:5,1,2", "rat:1/3"): 0.125723,
    ("quad:5,1,2", "lat:1,0"): 0.110674,
    ("quad:5,1,2", "rat:0"): 0.0249251,
    ("quad:3,0,1", "rat:1/3"): 0.124954,
    ("quad:3,0,1", "lat:1,0"): 0.11107,
    ("quad:3,0,1", "rat:0"): 0.0122365,
}

# Full pipeline at alpha = sqrt(2), gamma = 1/3, i = 10, c = 2.
REGRESSION_SQRT2_THIRD_I10 = {"a": 6, "b": 1, "m": 33245, "n": 23508,
                              "omega_cross": 1, "cap_used": 33}

# Brute-force coprime record table, alpha = sqrt(2), gamma = 1/3, n <= 500.
RECORDS_SQRT2_THIRD_500 = [(1, 1), (8, 11), (37, 52), (206, 291), (305, 431)]

# Byte hashes of the CLI fixture outputs
# (construct --alpha quad:2,0,1 --gamma rat:1/3 --i-range 5:14, then plot).
CONSTRUCT_CSV_SHA256 = \
    "39784bd5eada7c9f31c7aafddf8e721231d73af91bee2122256ae973b5f14b70"
PLOT_SVG_SHA256 = \
    "080ba0643fec39bba7eda107ba1e8f9a3a6f13a74b00cf03a9bfad3e4b4a4bb3"
