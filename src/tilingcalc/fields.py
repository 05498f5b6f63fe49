"""Exact arithmetic in small Galois fields (orders 2,3,4,5,7,8,9).

Elements are integer indices 0..q-1.  For prime q the index is the
residue itself.  For prime powers the index encodes the coefficient
vector of a polynomial over Z/p in base p (least significant digit =
constant term), with multiplication modulo a fixed irreducible
polynomial:

    order 4:  x^2 + x + 1        order 8:  x^3 + x + 1
    order 9:  x^2 + 1

Those choices pin the meaning of the serialized indices.
"""

from __future__ import annotations

from functools import lru_cache


class DivisionByZero(ZeroDivisionError):
    pass


_IRREDUCIBLE = {
    4: (2, [1, 1, 1]),       # x^2 + x + 1 over Z/2
    8: (2, [1, 1, 0, 1]),    # x^3 + x + 1 over Z/2
    9: (3, [1, 0, 1]),       # x^2 + 1 over Z/3
}

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)


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


class GF:
    """A field of order q with full lookup tables.

    The tables are verified against the field axioms exhaustively at
    construction time (q <= 9, so this is cheap and fails loudly on any
    table bug).
    """

    def __init__(self, q: int):
        if q not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported field order {q}")
        self.q = q
        if q in _IRREDUCIBLE:
            p, mod = _IRREDUCIBLE[q]
            deg = len(mod) - 1
            self.p = p
            self._add = [
                [
                    _from_poly(
                        [a + b for a, b in zip(_to_poly(i, p, deg), _to_poly(j, p, deg))],
                        p,
                    )
                    for j in range(q)
                ]
                for i in range(q)
            ]
            self._mul = [[self._poly_mul(i, j, p, mod, deg) for j in range(q)] for i in range(q)]
        else:
            self.p = q
            self._add = [[(i + j) % q for j in range(q)] for i in range(q)]
            self._mul = [[(i * j) % q for j in range(q)] for i in range(q)]
        self._neg = [next(j for j in range(q) if self._add[i][j] == 0) for i in range(q)]
        self._inv = [None] + [
            next(j for j in range(1, q) if self._mul[i][j] == 1) for i in range(1, q)
        ]
        self._check_axioms()

    @staticmethod
    def _poly_mul(i: int, j: int, p: int, mod, deg: int) -> int:
        a = _to_poly(i, p, deg)
        b = _to_poly(j, p, deg)
        prod = [0] * (2 * deg - 1)
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                prod[s + t] = (prod[s + t] + x * y) % p
        # reduce modulo the irreducible polynomial (monic, degree deg)
        for k in range(len(prod) - 1, deg - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for t in range(deg + 1):
                    prod[k - deg + t] = (prod[k - deg + t] - c * mod[t]) % p
        return _from_poly(prod[:deg], p)

    def _check_axioms(self):
        q, add, mul = self.q, self._add, self._mul
        rng = range(q)
        for a in rng:
            assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
            for b in rng:
                assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
                for c in rng:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a in range(1, q):
            assert mul[a][self._inv[a]] == 1

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
