"""Exact scalar arithmetic: prime fields and arbitrary-precision rationals.

Scalars are plain Python values (int residues in [0, p) for a prime field,
Fraction for the rationals) and a field descriptor object carries the
arithmetic.  Keeping scalars unboxed keeps the linear-algebra kernels fast;
the descriptor keeps everything exact.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


# Deterministic Miller-Rabin witness set: the first 13 primes, valid below
# the smallest composite that passes all of them, about 3.3 * 10^24.  (The
# first 12 stop at 318665857834031151167461, about 3.2 * 10^23.)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def proved_prime(n: int) -> bool | None:
    """True/False when primality is decided; None when out of proven range.

    The bases themselves are tried as factors first; beyond them the
    Miller-Rabin test with those bases is deterministic below _MR_LIMIT.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    if n >= _MR_LIMIT:
        return None
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/p for a prime p.  Elements are ints reduced into [0, p)."""

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        verdict = proved_prime(p) if isinstance(p, int) else False
        if verdict is None:
            raise ValueError(f"unsupported field: characteristic {p} is beyond the proven primality range")
        if not verdict:
            raise ValueError(f"characteristic must be prime, got {p!r}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("field descriptors are immutable")

    @property
    def char(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def coerce(self, x: object) -> int:
        """Reduce an integer into the field; reject anything non-integral."""
        if isinstance(x, bool) or not isinstance(x, int):
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ValueError(f"denominator of {x} is divisible by {self.p}")
                return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
            raise ValueError(f"not a scalar for F_{self.p}: {x!r}")
        return x % self.p

    def format(self, a: int) -> str:
        return str(a)

    def parse(self, s: str) -> int:
        return self.coerce(Fraction(s))

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"F{self.p}"


class RationalField:
    """The rationals.  Elements are Fraction values (always in lowest terms)."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    char = 0
    order = None

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b

    def coerce(self, x: object) -> Fraction:
        if type(x) is Fraction:
            return x
        if isinstance(x, bool):
            raise ValueError(f"not a rational scalar: {x!r}")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ValueError(f"not a rational scalar: {x!r}")

    def format(self, a: Fraction) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "Q"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Prime field descriptor, cached so GF(p) is GF(p)."""
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field


Field = Union[PrimeField, RationalField]


def field_from_name(name: str) -> Field:
    """Parse "Q" or "F<p>" (also accepts "F_<p>")."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F"):
        body = name[1:].lstrip("_")
        if body.isdigit():
            return GF(int(body))
    raise ValueError(f"unknown field {name!r} (expected Q or F<p>)")


def field_name(field: Field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    return f"F{field.p}"


def validate_vector(field: Field, v, dim: int) -> tuple:
    """Coerce a length-dim sequence into a tuple of field scalars."""
    vec = tuple(field.coerce(x) for x in v)
    if len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec
