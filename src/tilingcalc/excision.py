"""Excision of an open face over an abelian group.

A face can be excised when every group-valued edge labeling that
satisfies the triangle relation on all other faces automatically
satisfies it on this face too.  This is a pure question about the class
of the face's boundary row in the cokernel of the other boundary rows,
decided here by exact integer Smith normal form; the decision and the
failing cochain both read one failure rule (``_fails``) off that class.
A capped brute-force oracle enumerates the cyclic-group labelings
directly for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd

from .fields import prime_power
from .surfaces import DeltaComplex, FaceNotFound
from .ternary import JsonText


class TooLarge(ValueError):
    pass


FULL = "full"


@dataclass(frozen=True)
class GroupSpec(JsonText):
    """Abelian model of a multiplicative group: whether it has an
    element of infinite order, and its torsion (a list of cyclic orders,
    or "full" for all roots of unity)."""

    infinite: bool
    torsion: tuple[int, ...] | str

    def __post_init__(self):
        if self.torsion == FULL:
            return
        object.__setattr__(self, "torsion", tuple(int(m) for m in self.torsion))
        if any(m < 1 for m in self.torsion):
            raise ValueError("cyclic orders must be at least 1")

    # fixed models of the standard coefficient groups
    @classmethod
    def reals(cls) -> "GroupSpec":
        return cls(True, (2,))

    @classmethod
    def complexes(cls) -> "GroupSpec":
        return cls(True, FULL)

    @classmethod
    def finite_field(cls, q: int) -> "GroupSpec":
        prime_power(q)
        return cls(False, (q - 1,))

    @classmethod
    def rational_functions(cls, q: int) -> "GroupSpec":
        prime_power(q)
        return cls(True, (q - 1,))

    def to_json_obj(self) -> dict:
        t = self.torsion if self.torsion == FULL else list(self.torsion)
        return {"infinite": self.infinite, "torsion": t}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GroupSpec":
        infinite, t = obj["infinite"], obj["torsion"]
        if type(infinite) is not bool:
            raise ValueError(f"infinite {infinite!r} is not true or false")
        if t != FULL and not (isinstance(t, list) and all(type(m) is int for m in t)):
            raise ValueError(f'torsion {t!r} is not "full" or a list of integers')
        return cls(infinite, t if t == FULL else tuple(t))


@dataclass(frozen=True)
class Cochain:
    """Values on unoriented edge representatives in Z/modulus; a
    traversal against the edge's direction contributes the negative."""

    modulus: int
    values: tuple[int, ...]  # one value per edge index

    def to_json_obj(self) -> dict:
        return {
            "modulus": self.modulus,
            "values": {str(e + 1): v for e, v in enumerate(self.values)},
        }


def boundary_matrix(K: DeltaComplex) -> list[list[int]]:
    """One row per face, one column per edge: the signed number of times
    the face's walk traverses the edge (in -3..3)."""
    rows = []
    for face in K.faces:
        row = [0] * len(K.edges)
        for e, d in face:
            row[e] += d
        rows.append(row)
    return rows


# -- Smith normal form -----------------------------------------------------


def _identity(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _det(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss)
    elimination: each step's division by the previous pivot is exact."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        top, p = a[c], a[c][c]
        for row in a[c + 1:]:
            f = row[c]
            for k in range(c + 1, n):
                row[k] = (p * row[k] - f * top[k]) // prev
        prev = p
    return sign * prev


def smith_normal_form(A: list[list[int]]):
    """(U, D, V) with U·A·V = D, U and V unimodular, D diagonal with a
    divisibility chain d1 | d2 | ...; exact integers, pivots chosen with
    minimal absolute value."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [[int(x) for x in row] for row in A]
    U = _identity(m)
    V = _identity(n)

    def row_sub(i, t, q):  # row i -= q * row t
        for k in range(n):
            D[i][k] -= q * D[t][k]
        for k in range(m):
            U[i][k] -= q * U[t][k]

    def col_sub(j, t, q):  # col j -= q * col t
        for r in range(m):
            D[r][j] -= q * D[r][t]
        for r in range(n):
            V[r][j] -= q * V[r][t]

    def row_swap(i, t):
        D[i], D[t] = D[t], D[i]
        U[i], U[t] = U[t], U[i]

    def col_swap(j, t):
        for r in range(m):
            D[r][j], D[r][t] = D[r][t], D[r][j]
        for r in range(n):
            V[r][j], V[r][t] = V[r][t], V[r][j]

    def clear(t):
        while True:
            for i in range(t + 1, m):
                if D[i][t]:
                    row_sub(i, t, D[i][t] // D[t][t])
            left = [i for i in range(t + 1, m) if D[i][t]]
            if left:
                row_swap(t, min(left, key=lambda i: abs(D[i][t])))
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    col_sub(j, t, D[t][j] // D[t][t])
            left = [j for j in range(t + 1, n) if D[t][j]]
            if left:
                col_swap(t, min(left, key=lambda j: abs(D[t][j])))
                continue
            return

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        clear(t)
        # enforce divisibility into the remaining block
        witness = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if D[i][j] % D[t][t]
            ),
            None,
        )
        if witness is not None:
            row_sub(t, witness[0], -1)  # add the offending row
            clear(t)
            continue
        if D[t][t] < 0:
            for k in range(n):
                D[t][k] = -D[t][k]
            for k in range(m):
                U[t][k] = -U[t][k]
        t += 1

    _assert_snf(A, U, D, V)
    return U, D, V


def _assert_snf(A, U, D, V):
    m, n = len(U), len(V)
    prod = [
        [sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)] for i in range(m)
    ]
    prod = [
        [sum(prod[i][k] * V[k][j] for k in range(n)) for j in range(n)]
        for i in range(m)
    ]
    assert prod == D, "transform does not reproduce the diagonal form"
    if max(m, n) <= 16:  # the exact determinant audit is cubic in big rationals
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1, "transforms must be unimodular"
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0, "off-diagonal entry survived"
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0), "divisibility chain broken"


# -- excision decisions ----------------------------------------------------


@functools.lru_cache(maxsize=1)
def _factorisation(K: DeltaComplex, face: int):
    """Smith normal form of the boundary rows of every face but the
    given one (a face index in range): the face's own row, the diagonal
    (0 past the rank) and the column transform V.  The decision, the
    oracle and the witness for one (complex, face) all read this.  Their
    callers ask about one face at a time, and V is edges x edges, so
    only the latest is kept; `_quotient_class` memoises the classes."""
    rows = boundary_matrix(K)
    b0 = rows[face]
    B = [rows[f] for f in range(len(rows)) if f != face]
    if not B:
        B = [[0] * len(K.edges)]
    _, D, V = smith_normal_form(B)
    ncols = len(K.edges)
    diag = [D[j][j] if j < min(len(D), ncols) else 0 for j in range(ncols)]
    return b0, diag, V


@functools.lru_cache(maxsize=1)
def _classes(K: DeltaComplex) -> dict:
    """Face -> quotient class, for the latest complex only, so that a
    long-running caller does not keep every complex it has seen alive."""
    return {}


def _quotient_class(K: DeltaComplex, face: int):
    """Coordinates of the face's boundary row in the cokernel of the
    other faces' rows: lists of (coordinate value, torsion order) with
    order 0 meaning a free coordinate."""
    if not 0 <= face < len(K.faces):
        raise FaceNotFound(face)
    classes = _classes(K)
    if face not in classes:
        b0, diag, V = _factorisation(K, face)
        ncols = len(diag)
        classes[face] = [
            (sum(b0[e] * V[e][j] for e in range(ncols)), diag[j]) for j in range(ncols)
        ]
    return classes[face]


def _fails(x: int, d: int, n: int) -> bool:
    """Whether coordinate (x, d) of a face's class fails over Z/n (n >= 1):
    its values w in Z/n with d·w = 0 are the multiples of n / gcd(d, n),
    and some x·w is nonzero exactly when gcd(d, n) does not divide x."""
    return x % gcd(d, n) != 0


def can_excise(K: DeltaComplex, face: int, G: GroupSpec) -> bool:
    """True iff every G-valued edge labeling satisfying the triangle
    relation on all other faces satisfies it on this face: no coordinate
    of its class fails over G.  Over all roots of unity a torsion
    coordinate of order d fails when it fails over Z/d.  The trivial group
    (no infinite order, every torsion order 1) excises every face."""
    if not 0 <= face < len(K.faces):
        raise FaceNotFound(face)
    if not G.infinite and G.torsion != FULL and all(m == 1 for m in G.torsion):
        return True
    for x, d in _quotient_class(K, face):
        if d == 0 and (G.infinite or G.torsion == FULL):
            if x:
                return False
        elif any(_fails(x, d, m) for m in ((d,) if G.torsion == FULL else G.torsion)):
            return False
    return True


def witness_modulus(K: DeltaComplex, face: int, G: GroupSpec) -> int:
    """For a face that does not excise over G, the modulus of its witness:
    G's first torsion order over which the face fails, else the least
    n >= 2 over which it fails.  That exists: a finite G fails over one of
    its torsion orders, a free coordinate with x != 0 fails over
    Z/(|x| + 1), and over all roots of unity a torsion coordinate of
    order d fails over Z/d."""
    classes = _quotient_class(K, face)
    torsion = () if G.torsion == FULL else G.torsion
    return next(
        n for n in itertools.chain(torsion, itertools.count(2))
        if any(_fails(x, d, n) for x, d in classes)
    )


_ORACLE_MAX_EDGES = 30
_ORACLE_MAX_MODULUS = 12
_ORACLE_MAX_SOLUTIONS = 2 * 10**6


def _oracle_solutions(K: DeltaComplex, face: int, n: int):
    """Yield every Z/n edge labeling satisfying the triangle relation on
    all faces except the given one, as its coordinates w in the basis of
    V's columns (the labeling itself is V·w mod n), paired with the value
    the excluded face's relation takes on it."""
    if not 0 <= face < len(K.faces):
        raise FaceNotFound(face)
    if len(K.edges) > _ORACLE_MAX_EDGES or n > _ORACLE_MAX_MODULUS or n < 2:
        raise TooLarge((len(K.edges), n))
    classes = _quotient_class(K, face)
    choices = []
    total = 1
    for _, d in classes:
        g = gcd(d, n)
        step = n // g if g else 1
        vals = list(range(0, n, step)) if g else list(range(n))
        choices.append(vals)
        total *= len(vals)
        if total > _ORACLE_MAX_SOLUTIONS:
            raise TooLarge(total)
    c = [x % n for x, _ in classes]
    for w in itertools.product(*choices):
        yield w, sum(cj * wj for cj, wj in zip(c, w)) % n


def oracle_can_excise(K: DeltaComplex, face: int, n: int) -> bool:
    """Brute-force ground truth for can_excise over the cyclic group of
    order n."""
    return all(value == 0 for _, value in _oracle_solutions(K, face, n))


def failing_cochain(K: DeltaComplex, face: int, n: int) -> Cochain | None:
    """A Z/n edge labeling satisfying all other faces' relations but not
    this face's, or None when the face excises over Z/n.

    It is step · V[:, j] mod n, for j the last coordinate of the class
    that fails and step = n / gcd(d_j, n): the first labeling with a
    nonzero value that ``_oracle_solutions`` yields.  Its enumeration runs
    the last coordinate fastest; coordinates after j contribute 0 whatever
    their value, and with all before j at 0 the least choice for j that
    contributes anything is step."""
    if n < 1:
        raise ValueError(f"modulus {n} is not positive")
    classes = _quotient_class(K, face)
    j = next((j for j in reversed(range(len(classes))) if _fails(*classes[j], n)), None)
    if j is None:
        return None
    step = n // gcd(classes[j][1], n)
    V = _factorisation(K, face)[2]
    return Cochain(n, tuple(step * row[j] % n for row in V))


def torsion_coprime(k: int, G: GroupSpec) -> bool:
    """True iff no nontrivial element of G is killed by k."""
    if k < 2:
        raise ValueError(k)
    if G.torsion == FULL:
        return False
    return all(gcd(k, mj) == 1 for mj in G.torsion)
