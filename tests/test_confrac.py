import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostro.confrac import (_certify, _last_convergents, cf_from_decimal,
                           cf_from_quadratic, cf_from_terms, decimal_bracket,
                           parse_alpha_spec)
from ostro.errors import (DomainError, PrecisionError, RationalInputError,
                          SpecParseError)
from ostro.quadratic import QuadExt

GOLDEN = cf_from_quadratic(5, 1, 2)
SQRT2 = cf_from_quadratic(2, 0, 1)
SQRT3 = cf_from_quadratic(3, 0, 1)


def test_classical_quotients():
    assert GOLDEN.partial_quotients(6) == [1] * 6
    assert SQRT2.partial_quotients(5) == [1, 2, 2, 2, 2]
    assert SQRT3.partial_quotients(7) == [1, 1, 2, 1, 2, 1, 2]


def test_quadratic_rejects_bad_inputs():
    with pytest.raises(RationalInputError):
        cf_from_quadratic(4, 0, 1)
    with pytest.raises(DomainError):
        cf_from_quadratic(1, 0, 1)
    with pytest.raises(DomainError):
        cf_from_quadratic(2, 0, 0)


def test_convergent_tables():
    golden = GOLDEN.convergents(5)
    assert [c.q for c in golden] == [1, 1, 2, 3, 5, 8]
    assert [c.p for c in golden] == [1, 2, 3, 5, 8, 13]
    sqrt2 = SQRT2.convergents(4)
    assert [(c.p, c.q) for c in sqrt2] == \
        [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_d1_value_exact():
    d1 = SQRT2.d_value(1)
    assert d1.exact == SQRT2.alpha_exact() * 2 - 3
    assert abs(d1) <= Fraction(1, 5)  # |D_1| <= 1/q_2
    assert float(abs(d1)) == pytest.approx(0.171573, abs=1e-6)


@pytest.mark.parametrize("cf", [GOLDEN, SQRT2, SQRT3])
def test_identities_to_k50(cf):
    convs = cf.convergents(51)
    for k in range(1, 51):
        det = convs[k].p * convs[k - 1].q - convs[k].q * convs[k - 1].p
        assert det == (-1) ** (k + 1)
    for k in range(0, 51):
        d_k = cf.d_value(k).exact
        assert d_k.sign() == (1 if k % 2 == 0 else -1)
        assert abs(cf.d_value(k)) * cf.convergent(k + 1).q <= 1
    # odd-k sandwich p_{k-1}/q_{k-1} < alpha < p_k/q_k
    alpha = cf.alpha()
    for k in range(1, 51, 2):
        assert alpha > Fraction(convs[k - 1].p, convs[k - 1].q)
        assert alpha < Fraction(convs[k].p, convs[k].q)
    # D-recurrence holds exactly, including the k = 0 seed row
    for k in range(0, 50):
        lhs = cf.d_value(k + 1)
        rhs = cf.d_value(k) * cf.partial_quotient(k + 1) + cf.d_value(k - 1)
        assert (lhs - rhs).sign() == 0


def test_q_strictly_increasing():
    for cf in (GOLDEN, SQRT2, SQRT3):
        qs = [c.q for c in cf.convergents(20)]
        assert all(qs[k + 1] > qs[k] for k in range(1, 19))


def test_terms_periodic_is_exact():
    t = cf_from_terms([1], [2])  # [1; 2, 2, 2, ...] = sqrt(2)
    assert t.partial_quotients(6) == [1, 2, 2, 2, 2, 2]
    value = t.alpha_exact()
    assert value is not None
    assert (value * value - 2).sign() == 0
    purely = cf_from_terms([], [1])  # golden ratio
    assert purely.partial_quotients(4) == [1, 1, 1, 1]


def test_terms_without_period_hits_horizon():
    t = cf_from_terms([3, 7, 15, 1])
    assert t.partial_quotients(4) == [3, 7, 15, 1]
    assert t.horizon == 3
    with pytest.raises(PrecisionError, match="a_4 beyond horizon 3$"):
        t.partial_quotient(4)
    one = cf_from_terms([5])
    assert one.alpha().lo == 5 and one.alpha().hi == 6
    with pytest.raises(DomainError):
        cf_from_terms([1], [])
    with pytest.raises(DomainError):
        cf_from_terms([1, 0, 2])


def test_decimal_certification():
    pi = cf_from_decimal("3.14159265358979323846", 20)
    assert pi.partial_quotients(5) == [3, 7, 15, 1, 292]
    with pytest.raises(PrecisionError):
        pi.partial_quotient(pi.horizon + 1)
    with pytest.raises(RationalInputError):
        cf_from_decimal("0.5", 1)


def test_decimal_printout_agrees_with_quadratic():
    dec = cf_from_decimal("1.41421356237309504880", 20)
    for k in range(dec.horizon + 1):
        assert dec.partial_quotient(k) == SQRT2.partial_quotient(k)
    # golden ratio printout
    decg = cf_from_decimal("1.6180339887498948482", 19)
    for k in range(decg.horizon + 1):
        assert decg.partial_quotient(k) == 1


def test_alpha_value_widths():
    v = GOLDEN.alpha_value(Fraction(1, 1000))
    exact = GOLDEN.alpha_exact()
    assert exact >= v.lo and exact <= v.hi
    assert v.lo < Fraction(16180339888, 10**10)
    assert v.hi > Fraction(16180339887, 10**10)
    assert v.width() <= Fraction(1, 1000)
    v2 = SQRT2.alpha_value(Fraction(1, 10**6))
    assert v2.lo ** 2 < 2 < v2.hi ** 2
    pi = cf_from_decimal("3.14159265358979323846", 20)
    with pytest.raises(PrecisionError):
        pi.alpha_value(Fraction(1, 10**25))


def test_parse_alpha_spec():
    assert parse_alpha_spec("quad:5,1,2").partial_quotients(3) == [1, 1, 1]
    assert parse_alpha_spec("cf:1;2").partial_quotients(3) == [1, 2, 2]
    assert parse_alpha_spec("cf:3,7,15").horizon == 2
    assert parse_alpha_spec("dec:1.414@3").partial_quotient(0) == 1
    assert parse_alpha_spec("cf:;2").partial_quotients(3) == [2, 2, 2]
    for bad in ("", "quad:", "quad:a,b,c", "cf:", "dec:1.41", "huh:1",
                "dec:x@3", "cf:1,,2", "cf:1,", "cf:,1", "cf:1;", "cf:;",
                "cf:1;2,", "cf:1;,2"):
        with pytest.raises(SpecParseError):
            parse_alpha_spec(bad)


def test_periodic_terms_match_the_quadratic_factory():
    terms = cf_from_terms([1], [2]).alpha_exact()
    quad = cf_from_quadratic(2, 0, 1).alpha_exact()
    # A periodic list is solved with d = the discriminant of its period
    # (8 for [2]), so the two values are equal but not in the same field.
    assert terms == QuadExt(8, 0, Fraction(1, 2))
    assert terms * terms == 2 and quad * quad == 2
    assert terms.floor() == quad.floor() == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-5, 5), st.lists(st.integers(1, 9), max_size=5),
       st.lists(st.integers(1, 9), min_size=1, max_size=5), st.booleans())
def test_terms_expand_to_their_own_list(a0, rest, period, with_head):
    prefix = [a0] + rest if with_head else []
    count = 3 * (len(prefix) + len(period))
    cf = cf_from_terms(prefix, period)
    assert cf.horizon is None
    assert cf.partial_quotients(count) == (prefix + period * count)[:count]
    exact = cf.alpha_exact()
    # The same quotients without the period certify a bracket of alpha.
    head = cf_from_terms(prefix + period)
    assert head.horizon == len(prefix) + len(period) - 1
    assert head.partial_quotients(head.horizon + 1) == prefix + period
    bracket = head.alpha()
    assert bracket.lo < exact < bracket.hi


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-5, 5), st.lists(st.integers(1, 9), max_size=6),
       st.lists(st.integers(1, 9), min_size=1, max_size=4),
       st.sampled_from(["head", "periodic", "pure"]))
def test_convergents_follow_the_one_recurrence(a0, rest, period, shape):
    # `head` is a list without a period; `pure` has an empty head.
    head = [] if shape == "pure" else [a0] + rest
    tail = ";" + ",".join(map(str, period)) if shape != "head" else ""
    cf = parse_alpha_spec("cf:" + ",".join(map(str, head)) + tail)
    count = len(head) if shape == "head" else 3 * (len(head) + len(period))
    quots = cf.partial_quotients(count)
    alpha, exact = cf.alpha(), cf.alpha_exact()
    # Descending, so the first call fills the whole cache at once.
    for k in reversed(range(count)):
        conv = cf.convergent(k)
        assert (conv.p, conv.q) == _last_convergents(quots[:k + 1])[2:]
        if exact is None:
            assert (conv.D.lo, conv.D.hi) == (alpha.lo * conv.q - conv.p,
                                              alpha.hi * conv.q - conv.p)
        else:
            assert conv.D.exact == exact * conv.q - conv.p


@pytest.mark.parametrize("spec, message", [
    ("cf:3,7,15", "quotient a_3 beyond horizon 2"),
    ("dec:3.14159265358979323846@20", "quotient a_19 beyond horizon 18"),
])
def test_convergent_past_the_horizon_names_it(spec, message):
    cf = parse_alpha_spec(spec)
    with pytest.raises(PrecisionError) as info:
        cf.convergent(cf.horizon + 1)
    assert str(info.value) == "precision exhausted: " + message


def test_concurrent_readers_grow_one_cache():
    # More threads than cores, released together, and a tiny switch
    # interval: a convergent appended twice breaks the k order.
    K = 300
    want = [(c.p, c.q) for c in cf_from_terms([3], [1, 2, 5]).convergents(K)]
    cf = cf_from_terms([3], [1, 2, 5])
    start = threading.Barrier(8)
    errors = []

    def read(seed):
        order = list(range(K + 1))
        if seed % 2:
            random.Random(seed).shuffle(order)
        start.wait()
        for k in order:
            conv = cf.convergent(k)
            if (conv.k, conv.p, conv.q) != (k, *want[k]):
                errors.append((seed, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [c.k for c in cf.convergents(K)] == list(range(K + 1))


def _certify_reference(center, lo, hi):
    """_certify as first written: the loop in Fraction arithmetic."""
    quots = []
    while True:
        if center.denominator == 1:
            raise RationalInputError("rational input")
        a = center.numerator // center.denominator
        if not (a <= lo and hi < a + 1):
            break
        quots.append(a)
        if lo == a:
            break
        center = 1 / (center - a)
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    if not quots:
        raise PrecisionError("precision exhausted: not even a_0 is certified")
    return quots


def _outcome(certify, bracket):
    try:
        return certify(*bracket)
    except (RationalInputError, PrecisionError) as exc:
        return type(exc)


@st.composite
def _brackets(draw):
    """(center, lo, hi): a `dec:` body, or any lo <= center <= hi."""
    if draw(st.booleans()):
        sign = draw(st.sampled_from(["", "-"]))
        whole = draw(st.integers(0, 10**6))
        # No fraction digits, or fewer than the precision: the literal
        # terminates inside its own bracket.
        frac = draw(st.text("0123456789", max_size=40))
        prec = draw(st.integers(1, 45))
        literal = f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
        return decimal_bracket(f"{literal}@{prec}")
    lo, center, hi = sorted(draw(st.lists(
        st.fractions(max_denominator=10**12), min_size=3, max_size=3)))
    return center, lo, hi


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_brackets())
@example(decimal_bracket("1.5@5"))  # terminates: rational input
@example(decimal_bracket("0.99@1"))  # certifies nothing
@example(decimal_bracket("1.41421356237309504880@20"))
def test_certify_matches_the_fraction_loop(bracket):
    assert _outcome(_certify, bracket) == _outcome(_certify_reference, bracket)
