import random
from fractions import Fraction

import pytest
import sympy

from algen.fields import GF, QQ, field_from_name, field_name, proved_prime, validate_vector
from support import is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_proved_prime_matches_trial_division():
    for n in range(-3, 10**5):
        assert proved_prime(n) is is_prime(n), n


def test_proved_prime_matches_sympy():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, Carmichael
    # numbers, Mersenne primes and random numbers of every size in range
    special = [3215031751, 3825123056546413051, 318665857834031151167461, 561, 41041, 2**61 - 1, 2**31 - 1]
    rng = random.Random(17)
    drawn = [rng.randrange(2, 10 ** rng.randint(2, 24)) for _ in range(3000)]
    for n in special + drawn:
        assert proved_prime(n) is sympy.isprime(n), n
    # past the proven range the answer is None, prime or not, unless a base
    # divides n
    for n in (3317044064679887385961981, 2**89 - 1, 10**30 + 1):
        assert proved_prime(n) is None
    assert proved_prime(10**30) is False


def test_prime_field_requires_prime():
    for bad in (0, 1, 4, 6, 9, 15, -3):
        with pytest.raises(ValueError):
            GF(bad)


def test_prime_field_refuses_unproven_characteristics():
    with pytest.raises(ValueError, match="unsupported field"):
        GF(2**89 - 1)  # prime, but past the proven Miller-Rabin range
    with pytest.raises(ValueError, match="must be prime"):
        GF(318665857834031151167461)  # passes Miller-Rabin to bases 2..37


def test_gf_cached():
    assert GF(5) is GF(5)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert GF(2) != QQ


def test_fp_arithmetic_matches_naive():
    F = GF(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.sub(a, b) == (a - b) % 7
            assert F.mul(a, b) == (a * b) % 7
            if b:
                assert F.mul(F.div(a, b), b) == a % 7
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_fp_coerce_and_parse():
    F = GF(5)
    assert F.coerce(12) == 2
    assert F.coerce(-1) == 4
    assert F.coerce(Fraction(1, 2)) == F.inv(2)
    with pytest.raises(ValueError):
        F.coerce(Fraction(1, 5))
    with pytest.raises(ValueError):
        F.coerce(0.5)
    with pytest.raises(ValueError):
        F.coerce(True)
    assert F.parse("7") == 2
    assert F.parse("3/2") == F.div(3, 2)
    assert F.format(3) == "3"


def test_rational_field():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.coerce(3) == Fraction(3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ValueError):
        QQ.coerce(1.5)
    assert QQ.parse("-4/6") == Fraction(-2, 3)
    assert QQ.format(Fraction(-2, 3)) == "-2/3"
    assert QQ.format(Fraction(8, 4)) == "2"


def test_field_names_round_trip():
    for name in ("Q", "F2", "F5", "F101"):
        assert field_name(field_from_name(name)) == name
    assert field_from_name("F_7") == GF(7)
    for bad in ("R", "F4", "F", "Z"):
        with pytest.raises(ValueError):
            field_from_name(bad)


def test_validate_vector():
    assert validate_vector(GF(3), [4, -1, 0], 3) == (1, 2, 0)
    assert validate_vector(QQ, [1, Fraction(1, 2)], 2) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        validate_vector(GF(3), [1, 2], 3)
    with pytest.raises(ValueError):
        validate_vector(GF(3), [Fraction(1, 3)], 1)
