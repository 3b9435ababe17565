"""Oracles and algebras that several test modules share and no library
code needs: trial-division primality, and the non-split etale forms
F_p[x]/(f) of the split etale algebras."""

import itertools
from typing import Sequence

from algen.algebra import Multialgebra, make_tensor
from algen.fields import GF


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    for small in (2, 3, 5):
        if n == small:
            return True
        if n % small == 0:
            return False
    f = 7
    # wheel mod 6 starting at 7
    step = 4
    while f * f <= n:
        if n % f == 0:
            return False
        f += step
        step = 6 - step
    return True


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_rem(p: int, num: list[int], den: list[int]) -> list[int]:
    """Remainder of num modulo den over F_p; coefficients ascending, den monic."""
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) - 1 >= d and any(num):
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - d
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        _poly_trim(num)
        if not num:
            break
    return num


def _is_irreducible(p: int, coeffs: list[int]) -> bool:
    d = len(coeffs) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            g = list(tail) + [1]  # monic of degree e
            if not _poly_rem(p, coeffs, g):
                return False
    return True


def field_extension_etale(p: int, poly: Sequence[int]) -> Multialgebra:
    """F_p[x]/(poly) with basis 1, x, ..., x^{deg-1}; poly monic irreducible.

    Coefficients ascend: poly = [c_0, c_1, ..., 1].  Irreducibility is
    checked by exhaustive trial division over all lower-degree monic factors.
    """
    field = GF(p)
    coeffs = [c % p for c in poly]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    if not _is_irreducible(p, coeffs):
        raise ValueError("polynomial is reducible")
    d = len(coeffs) - 1
    # x^e mod poly for e up to 2d - 2
    powers: list[list[int]] = []
    for e in range(2 * d - 1):
        vec = [0] * (e + 1)
        vec[e] = 1
        rem = _poly_rem(p, vec, coeffs)
        powers.append(rem + [0] * (d - len(rem)))
    triples = []
    for i in range(d):
        for j in range(d):
            for l, c in enumerate(powers[i + j]):
                if c:
                    triples.append(((i, j), l, c))
    product = make_tensor(field, d, 2, triples)
    unit = make_tensor(field, d, 0, [((), 0, 1)])
    return Multialgebra(field=field, dim=d, ops=(product, unit), product_index=0, unit_index=1)
