import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parhiggs.codec import to_json
from parhiggs.exact_core import (DomainError, check_cap, exact_cap, exact_int,
                                 mapping_items, rat, rat_from_str, rational_sum,
                                 read_container)


def test_rational_serialization_round_trip():
    assert to_json(Fraction(1, 2)) == "1/2"
    assert to_json(Fraction(-3, 2)) == "-3/2"
    assert to_json(Fraction(5)) == "5"
    assert rat_from_str("7/3") == Fraction(7, 3)
    assert rat_from_str("-4") == Fraction(-4)
    with pytest.raises(DomainError):
        rat_from_str("1/0")


def test_rat_from_str_cache_matches_the_plain_function():
    plain = rat_from_str.__wrapped__

    def outcome(call, value):
        try:
            return "value", call(value)
        except DomainError as err:
            return "error", err.payload()

    for value in (" 3/4 ", "-4", "7", 7, True, "1/0", "x", 0.5,
                  Fraction(1, 3), 1e300):
        want = outcome(plain, value)
        assert outcome(rat_from_str, value) == outcome(rat_from_str, value) == want
        assert type(want[1]) is (Fraction if want[0] == "value" else dict)
    assert rat_from_str(" 3/4 ") == Fraction(3, 4)
    for value in (True, 0.5, Fraction(1, 3), 1e300):
        with pytest.raises(DomainError) as e:
            rat_from_str(value)
        assert e.value.payload() == {"error": "bad_rational", "value": str(value)}
    assert rat_from_str.cache_info().maxsize == 1024


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(1, 60),
       st.booleans())
def test_rat_is_the_fraction_of_its_pair(p, q, k, negate):
    """Non-reduced pairs, and pairs with a negative denominator, give the
    reduced Fraction that Fraction(p, q) gives, on a miss and on a hit."""
    a, b = p * k, q * k * (-1 if negate else 1)
    want = Fraction(a, b)
    for got in (rat(a, b), rat(a, b)):
        assert type(got) is Fraction and got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_rat_keeps_its_refusals_and_its_bound():
    assert rat(1, 2) == Fraction(1, 2)
    for p, q in ((1.0, 2), (1, 2.0), ("1", 2)):
        with pytest.raises(TypeError):
            rat(p, q)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            rat(1, 0)
    assert rat.cache_info().maxsize == 4096


def test_rational_sum_exactness_random():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        assert (a + b) - b == a


@given(st.lists(st.one_of(st.integers(-50, 50),
                         st.fractions(max_denominator=60)), max_size=8))
def test_rational_sum_is_fraction_addition(values):
    total = rational_sum(values)
    assert total == sum(values, Fraction(0)) and type(total) is Fraction
    # reduced, as every Fraction is: the same repr as the sum
    assert repr(total) == repr(sum(values, Fraction(0)))


def test_rational_sum_of_nothing_is_a_fraction():
    assert repr(rational_sum([])) == "Fraction(0, 1)"
    assert to_json(rational_sum([])) == "0"
    assert repr(rational_sum([Fraction(1, 6), Fraction(1, 3), 2])) == "Fraction(5, 2)"


def test_exact_int_returns_an_int_and_refuses_with_the_callers_payload():
    assert exact_int(3, "bad_x") == 3
    assert exact_int(0, "bad_x", 0) == 0
    assert exact_int(-5, "bad_x", None, x=-5) == -5
    for value, low in ((True, None), (1.0, None), (Fraction(2), None),
                       ("2", None), (None, None), (0, 1), (-1, 0)):
        with pytest.raises(DomainError) as err:
            exact_int(value, "bad_x", low, x=value, value="kept")
        assert err.value.payload() == {"error": "bad_x", "x": value,
                                       "value": "kept"}


def test_read_container_returns_what_read_gives_or_refuses_with_the_type():
    assert read_container([1, 2], tuple, "bad_x") == (1, 2)
    assert list(read_container({"a": 1}, mapping_items, "bad_x")) == [("a", 1)]
    assert read_container([("a", 1)], dict, "bad_x") == {"a": 1}
    assert read_container("ab", len, "bad_x") == 2
    for value, read in ((5, tuple), (None, iter), ("junk", dict),
                        ([("a", 1)], mapping_items), (object(), len)):
        with pytest.raises(DomainError) as err:
            read_container(value, read, "bad_x")
        assert err.value.payload() == {"error": "bad_x",
                                       "type": type(value).__name__}


def test_read_container_passes_a_refusal_raised_while_reading():
    # a DomainError is a ValueError, which a failed read would otherwise be
    def items():
        yield 1
        raise DomainError("bad_item", item=2)
    with pytest.raises(DomainError) as err:
        read_container(items(), tuple, "bad_x")
    assert err.value.payload() == {"error": "bad_item", "item": 2}


def test_check_cap_refuses_a_count_that_is_not_an_exact_int():
    check_cap(3, 3)
    check_cap(10**9, None)
    with pytest.raises(DomainError) as err:
        check_cap(4, 3)
    assert err.value.payload() == {"error": "enumeration_cap_exceeded",
                                   "needed": 4, "cap": 3}
    for needed in (1.5, True, Fraction(2), -1):
        with pytest.raises(DomainError) as err:
            check_cap(needed, None)
        assert err.value.payload() == {"error": "bad_item_count", "needed": needed}


@pytest.mark.parametrize("cap", [1.5, True, Fraction(2), "10", 0, -3, 1e9])
def test_a_cap_that_is_not_an_exact_int_of_at_least_one_is_refused(cap):
    for check in (lambda: check_cap(1, cap), lambda: exact_cap(cap)):
        with pytest.raises(DomainError) as err:
            check()
        assert err.value.payload() == {"error": "bad_cap", "cap": cap}
    assert exact_cap(10) == 10
