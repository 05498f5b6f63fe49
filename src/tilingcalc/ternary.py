"""Ternary incidence matrices and the logical operations on them.

A matrix entry is an int in {-1, 0, +1}: +1 forces a point-line incidence,
-1 forbids it, 0 leaves it unconstrained.  Rows are points, columns are
lines; row 1 / column 1 play the distinguished role in the conclusion.
All indices in the public API are 1-based to match the usual matrix
conventions used in the fixture files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

MINUS, ZERO, PLUS = -1, 0, 1
_VALID = (-1, 0, 1)


class SeedConflict(ValueError):
    """A seed targets a cell already holding the opposite sign."""


class NotNegative(ValueError):
    """contradiction_form requires the target cell to hold -1."""


@dataclass(frozen=True)
class PatternWitness:
    """Row and column triples exhibiting a forbidden 3x3 submatrix."""

    rows: tuple[int, int, int]
    cols: tuple[int, int, int]


class JsonText:
    """JSON text round trip for a class with ``to_json_obj`` and
    ``from_json_obj``."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_obj(json.loads(text))


class IncidenceMatrix(JsonText):
    """Immutable m x n grid over {-1, 0, +1}."""

    __slots__ = ("m", "n", "_rows")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        n = len(rows[0])
        for row in rows:
            if len(row) != n:
                raise ValueError("ragged rows")
            for v in row:
                if type(v) is not int or v not in _VALID:  # bool is not int
                    raise ValueError(f"entry {v!r} is not one of the integers -1, 0, 1")
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("IncidenceMatrix is immutable")

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError((i, j))
        return self._rows[i - 1][j - 1]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def transpose(self) -> "IncidenceMatrix":
        """The same constraints with points and lines swapped."""
        return IncidenceMatrix(zip(*self._rows))

    def with_entry(self, i: int, j: int, value: int) -> "IncidenceMatrix":
        if value not in _VALID:
            raise ValueError(value)
        self.entry(i, j)  # bounds check
        grid = [list(r) for r in self._rows]
        grid[i - 1][j - 1] = value
        return IncidenceMatrix(grid)

    def zero_cells(self) -> list[tuple[int, int]]:
        """1-based positions of zero entries, row-major order."""
        return [
            (i + 1, j + 1)
            for i, row in enumerate(self._rows)
            for j, v in enumerate(row)
            if v == ZERO
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, IncidenceMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "\n".join(" ".join(f"{v:2d}" for v in row) for row in self._rows)
        return f"IncidenceMatrix {self.m}x{self.n}\n{body}"

    # -- JSON ------------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"m": self.m, "n": self.n, "entries": [list(r) for r in self._rows]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "IncidenceMatrix":
        mat = cls(obj["entries"])
        for key, size in (("m", mat.m), ("n", mat.n)):
            declared = obj.get(key, size)
            if type(declared) is not int:  # not a float, and not a bool
                raise ValueError(f"declared {key} {declared!r} is not an integer")
            if declared != size:
                raise ValueError("declared dimensions disagree with entries")
        return mat


# The forbidden 3x3 submatrix, up to independent row and column
# permutations ('*' matches any of -1/0/+1):
#
#     -1  1  *
#      1  1  1
#      1  1 -1
#
# Its meaning: rows 2,3 are two points lying on both of the lines in
# columns 1,2; column 3 separates the two points and row 1 separates the
# two lines, so two distinct points would lie on two distinct lines.


def _masks(grid):
    """(P, N, RP, RN) for a grid of rows: P[c] / N[c] are the row bitmasks
    of the +1 / -1 entries of column c, RP[r] / RN[r] the column bitmasks
    of row r."""
    P, N, RP, RN = [0] * len(grid[0]), [0] * len(grid[0]), [], []
    for i, row in enumerate(grid):
        rp = rn = 0
        for j, v in enumerate(row):
            if v == PLUS:
                rp |= 1 << j
                P[j] |= 1 << i
            elif v == MINUS:
                rn |= 1 << j
                N[j] |= 1 << i
        RP.append(rp)
        RN.append(rn)
    return P, N, RP, RN


def contradicts_incidence_axiom(mat: IncidenceMatrix, masks=None) -> PatternWitness | None:
    """Find a forbidden submatrix, or None.  ``masks`` are the ``_masks``
    of the matrix's rows, for a caller that already holds them.

    Instead of trying all 3x3 submatrices with all permutations, look for
    an ordered pair of columns (c1, c2) sharing two rows (r2, r3) of +1s,
    where some row r1 separates the columns (-1 at c1, +1 at c2) and some
    column c3 separates the rows (+1 at r2, -1 at r3): over the bitmasks
    of ``_masks``, P[c1] & P[c2], N[c1] & P[c2] and RP[r2] & RN[r3].  The
    brute-force equivalent lives in the test suite.
    """
    P, N, RP, RN = masks or _masks(mat.rows())
    for c1, c2 in permutations(range(mat.n), 2):
        shared, seps = P[c1] & P[c2], N[c1] & P[c2]
        if seps and shared & (shared - 1):  # a separating row, two shared rows
            rows = [r for r in range(mat.m) if shared >> r & 1]
            for r2, r3 in product(rows, rows):
                c3 = RP[r2] & RN[r3]  # empty when r2 == r3
                if c3:  # r1 and c3 the lowest set bits, 1-based
                    return PatternWitness(((seps & -seps).bit_length(), r2 + 1, r3 + 1),
                                          (c1 + 1, c2 + 1, (c3 & -c3).bit_length()))
    return None


def is_tautology(mat: IncidenceMatrix) -> bool:
    """True iff the conclusion cell (1,1) is already +1."""
    return mat.entry(1, 1) == PLUS


def _completes_pattern(i, j, plus, P, N, RP, RN, rows, cols) -> bool:
    """Whether a forbidden pattern uses cell (i, j) (0-based) when it
    holds +1 (``plus``) or -1, over the bitmasks of ``_masks``; ``rows``
    lists the +1 rows of column j, ``cols`` the +1 columns of row i.  The
    cell's sign is read from ``plus`` alone, so the masks need not hold it.

    In the pattern's terms (r1 separates c1 from c2, r2 and r3 lie on
    both, c3 separates r2 from r3), the roles the cell can play are:
    - (r1, c2) as +1 or (r1, c1) as -1: r2, r3 run over ``rows``, with
      c1 among row i's -1 columns (c2 among its +1 columns);
    - (r2, c3) as +1 or (r3, c3) as -1: c1, c2 run over ``cols``, with
      r3 among column j's -1 rows (r2 among its +1 rows);
    - as +1, a corner of the +1 block on r2, r3 and c1, c2: the other
      row runs over ``rows``, the other column over ``cols``.
    The cost is quadratic in the +1 entries of one row or column.
    """
    X = RN[i] if plus else RP[i]
    for a, b in combinations(rows, 2):
        if RP[a] & RP[b] & X and (RN[a] & RP[b] or RN[b] & RP[a]):
            return True
    Y = N[j] if plus else P[j]
    for a, b in combinations(cols, 2):
        if P[a] & P[b] & Y and (N[a] & P[b] or N[b] & P[a]):
            return True
    if plus:
        for c in cols:
            if N[j] & P[c] or N[c] & P[j]:  # some row separates j from c
                for r in rows:
                    if RP[r] >> c & 1 and (RN[i] & RP[r] or RN[r] & RP[i]):
                        return True
    return False


def propagate(
    mat: IncidenceMatrix,
    seeds: Sequence[tuple[int, int, int]] = (),
    max_sweeps: int | str = "fixpoint",
) -> IncidenceMatrix:
    """Apply seeds, then fill zero cells that would contradict the axiom.

    Scanning is row-major.  Each zero cell is tentatively set to +1; if
    the forbidden pattern then appears, the cell is committed to -1,
    otherwise it stays 0.  Sweeps repeat until a full sweep changes
    nothing, or until ``max_sweeps`` sweeps have run.  Only -1 is ever
    committed by scanning, so the result refines the input.

    Until the grid holds a pattern, a cell the scan fills is checked
    with ``_completes_pattern`` for the patterns through that cell only:
    the grid held none before, and filling a zero cell never removes
    one, so any new pattern uses the changed cell.  The grid is held as
    per-column row bitmasks and per-row column bitmasks for that test.
    Once the grid holds a pattern (after seeding, or completed by a -1
    commit), every zero cell scanned becomes -1.
    """
    if max_sweeps != "fixpoint" and (not isinstance(max_sweeps, int) or max_sweeps < 0):
        raise ValueError("max_sweeps must be 'fixpoint' or a nonnegative int")
    grid = [list(r) for r in mat.rows()]
    for i, j, v in seeds:
        if not (1 <= i <= mat.m and 1 <= j <= mat.n):
            raise IndexError(f"seed cell ({i},{j}) lies outside the {mat.m}x{mat.n} matrix")
        cur = grid[i - 1][j - 1]
        if v not in _VALID:
            raise ValueError(f"seed value {v!r} is not -1, 0 or 1")
        if cur != ZERO and cur != v:
            raise SeedConflict(f"seed ({i},{j})={v} conflicts with entry {cur}")
        grid[i - 1][j - 1] = v

    # scanning commits only -1, so the +1 entries stay as seeded
    plus_rows = [[i for i, row in enumerate(grid) if row[j] == PLUS] for j in range(mat.n)]
    plus_cols = [[j for j, v in enumerate(row) if v == PLUS] for row in grid]
    P, N, RP, RN = _masks(grid)
    broken = contradicts_incidence_axiom(IncidenceMatrix(grid), (P, N, RP, RN)) is not None

    sweeps = 0
    while max_sweeps == "fixpoint" or sweeps < max_sweeps:
        changed = False
        for i, row in enumerate(grid):
            for j in range(mat.n):
                if row[j] != ZERO:
                    continue
                if not broken and not _completes_pattern(
                    i, j, True, P, N, RP, RN, plus_rows[j], plus_cols[i]
                ):
                    continue
                row[j] = MINUS
                N[j] |= 1 << i
                RN[i] |= 1 << j
                changed = True
                broken = broken or _completes_pattern(
                    i, j, False, P, N, RP, RN, plus_rows[j], plus_cols[i]
                )
        sweeps += 1
        if not changed:
            break
    return IncidenceMatrix(grid)


# Auxiliary-construction kinds, mirroring the four allowed appends.

POINT_ON_TWO_LINES = "PointOnTwoLines"
LINE_THROUGH_TWO_POINTS = "LineThroughTwoPoints"
GENERIC_POINT = "GenericPoint"
GENERIC_LINE = "GenericLine"

AUX_KINDS = (
    POINT_ON_TWO_LINES,
    LINE_THROUGH_TWO_POINTS,
    GENERIC_POINT,
    GENERIC_LINE,
)


_DUAL_KIND = {LINE_THROUGH_TWO_POINTS: POINT_ON_TWO_LINES, GENERIC_LINE: GENERIC_POINT}


def aux_join(
    mat: IncidenceMatrix, kind: str, a: int | None = None, b: int | None = None
) -> IncidenceMatrix:
    """Append one row or column per the auxiliary-construction rules.

    PointOnTwoLines(c1, c2): new row, +1 in columns c1 and c2 (which may
    coincide), 0 elsewhere.  GenericPoint: new all -1 row.  The two line
    kinds are the same rules applied to the transpose, by duality.
    """
    if kind not in AUX_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind in (POINT_ON_TWO_LINES, LINE_THROUGH_TWO_POINTS) and (a is None or b is None):
        raise ValueError(f"{kind} needs two indices")
    if kind in _DUAL_KIND:
        return aux_join(mat.transpose(), _DUAL_KIND[kind], a, b).transpose()
    row = [MINUS] * mat.n
    if kind == POINT_ON_TWO_LINES:
        for idx in (a, b):
            if not 1 <= idx <= mat.n:
                raise IndexError(idx)
        row = [ZERO] * mat.n
        row[a - 1] = PLUS
        row[b - 1] = PLUS
    return IncidenceMatrix(mat.rows() + (tuple(row),))


def contradiction_form(mat: IncidenceMatrix, i: int, j: int) -> IncidenceMatrix:
    """Set (1,1) to -1, then swap rows 1,i and columns 1,j.

    Requires the entry (i, j) to be -1; the swaps move that forbidden
    incidence into the conclusion slot.
    """
    if mat.entry(i, j) != MINUS:
        raise NotNegative(f"entry ({i},{j}) is {mat.entry(i, j)}, not -1")
    grid = [list(r) for r in mat.rows()]
    grid[0][0] = MINUS
    grid[0], grid[i - 1] = grid[i - 1], grid[0]
    for row in grid:
        row[0], row[j - 1] = row[j - 1], row[0]
    return IncidenceMatrix(grid)

