"""Exact arithmetic in the Galois fields of every prime-power order up to 32.

Elements are integer indices 0..q-1.  For q = p**k the index encodes
the coefficient vector of a polynomial over Z/p of degree below k in
base p (least significant digit = constant term).  One rule picks the
modulus: the monic polynomial of degree k with the least base-p encoding
under which every nonzero element has an inverse, which holds exactly
when that polynomial is irreducible (Lidl & Niederreiter, *Finite
Fields*, ch. 3).  For prime q it is x, so the index is the residue;
otherwise it is

    order 4:  x^2 + x + 1        order 8:  x^3 + x + 1
    order 9:  x^2 + 1            order 16: x^4 + x + 1
    order 25: x^2 + 2            order 27: x^3 + 2x + 1
    order 32: x^5 + x^2 + 1

That rule pins the meaning of the serialized indices.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


class DivisionByZero(ZeroDivisionError):
    pass


class UnsupportedField(ValueError):
    pass


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k for a prime p, when a field of order q
    exists.  Trial division decides that quickly only below 2**32; a raw
    JSON group spec takes any torsion."""
    if not 2 <= q < 2**32:
        raise ValueError(f"field order must be in 2..2**32 - 1, got {q}")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    rest, k = q, 0
    while rest % p == 0:
        rest, k = rest // p, k + 1
    if rest != 1:
        raise ValueError(f"no field has order {q}: it is not a prime power")
    return p, k


def _is_prime_power(q: int) -> bool:
    try:
        prime_power(q)
    except ValueError:
        return False
    return True


MAX_ORDER = 32
SUPPORTED_ORDERS = tuple(filter(_is_prime_power, range(2, MAX_ORDER + 1)))


def _to_poly(idx: int, p: int, deg: int) -> list[int]:
    out = []
    for _ in range(deg):
        out.append(idx % p)
        idx //= p
    return out


def _from_poly(coeffs, p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + (c % p)
    return out


def _poly_mul(a, b, p: int, mod) -> int:
    """The index of a*b modulo the monic polynomial mod (coefficients
    from the constant term up)."""
    deg = len(mod) - 1
    prod = [0] * (2 * deg - 1)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            prod[s + t] += x * y
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k] % p
        if c:
            for t in range(deg + 1):
                prod[k - deg + t] -= c * mod[t]
    return _from_poly(prod[:deg], p)


class GF:
    """A field of order q with full lookup tables; the field axioms over
    every supported order are checked by the test suite."""

    def __init__(self, q: int):
        if q not in SUPPORTED_ORDERS:
            raise UnsupportedField(
                f"no field of order {q} is supported; the prime powers up to {MAX_ORDER} are"
            )
        p, k = prime_power(q)
        self.q, self.p = q, p
        polys = [_to_poly(i, p, k) for i in range(q)]
        self._add = [
            [_from_poly([a + b for a, b in zip(x, y)], p) for y in polys] for x in polys
        ]
        for low in polys:  # monic x**k + low, least first; one of them is irreducible
            self.modulus = low + [1]
            self._mul = [[_poly_mul(x, y, p, self.modulus) for y in polys] for x in polys]
            if all(1 in row for row in self._mul[1:]):
                break
        self._neg = [row.index(0) for row in self._add]
        self._inv = [None] + [row.index(1) for row in self._mul[1:]]

    # element ops (indices in, indices out) -------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    return GF(q)
