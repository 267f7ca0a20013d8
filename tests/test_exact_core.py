import random
from fractions import Fraction

import pytest

from parhiggs.exact_core import (
    DomainError,
    Z2Matrix,
    q_matrix_rank,
    rat_from_str,
    rat_to_str,
    z2_rank,
    z2_solution_set,
)


def test_rational_serialization_round_trip():
    assert rat_to_str(Fraction(1, 2)) == "1/2"
    assert rat_to_str(Fraction(-3, 2)) == "-3/2"
    assert rat_to_str(Fraction(5)) == "5"
    assert rat_from_str("7/3") == Fraction(7, 3)
    assert rat_from_str("-4") == Fraction(-4)
    with pytest.raises(DomainError):
        rat_from_str("1/0")


def test_rational_sum_exactness_random():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        assert (a + b) - b == a


def test_z2_rank_examples():
    assert z2_rank(Z2Matrix(0, 0, ())) == 0
    ident = Z2Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert z2_rank(ident) == 3
    # rows 110, 011, 101 written with bit j = column j
    m = Z2Matrix(3, 3, (0b110, 0b011, 0b101))
    assert z2_rank(m) == 2


def test_z2_rank_row_operations_invariance():
    rng = random.Random(11)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = [rng.getrandbits(cols) for _ in range(rows)]
        r0 = z2_rank(Z2Matrix(rows, cols, tuple(data)))
        i, j = rng.randrange(rows), rng.randrange(rows)
        swapped = list(data)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert z2_rank(Z2Matrix(rows, cols, tuple(swapped))) == r0
        if i != j:
            added = list(data)
            added[i] ^= added[j]
            assert z2_rank(Z2Matrix(rows, cols, tuple(added))) == r0
        assert r0 <= min(rows, cols)


def test_z2_solution_set_examples():
    assert z2_solution_set(Z2Matrix.from_rows([[1]]), [0]) == [(0,)]
    assert z2_solution_set(Z2Matrix.from_rows([[1, 1]]), [0]) == [(0, 0), (1, 1)]
    assert z2_solution_set(Z2Matrix.from_rows([[0]]), [1]) == []


def test_z2_solution_set_order_and_count():
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = Z2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        b = [rng.getrandbits(1) for _ in range(rows)]
        sols = z2_solution_set(m, b)
        assert sols == sorted(sols)
        assert len(sols) in (0, 2 ** (cols - z2_rank(m)))
        for x in sols:
            for row, bi in zip(m.data, b):
                dot = bin(row & sum(v << k for k, v in enumerate(x))).count("1") % 2
                assert dot == bi


def test_z2_solution_set_shape_and_cap():
    with pytest.raises(DomainError):
        z2_solution_set(Z2Matrix.from_rows([[1, 0]]), [0, 1])
    with pytest.raises(DomainError) as err:
        z2_solution_set(Z2Matrix(1, 12, (1,)), [0], cap=100)
    assert err.value.code == "enumeration_cap_exceeded"


def test_q_matrix_rank():
    assert q_matrix_rank([]) == 0
    assert q_matrix_rank([[1, 0], [0, 1]]) == 2
    assert q_matrix_rank([[1, 2], [2, 4]]) == 1
    assert q_matrix_rank([[Fraction(1, 2), Fraction(1, 3)],
                          [Fraction(3, 2), Fraction(1, 1)]]) == 1
