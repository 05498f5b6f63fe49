"""Catalog of the standard incidence matrices used across the test corpus,
and the documented counterexample to the closed 6-gon statement.

Each constructor returns a fresh IncidenceMatrix.  Row/column conventions:
row 1 and column 1 always hold the conclusion incidence.
"""

from __future__ import annotations

from .fields import field
from .plane import Configuration, affine_point, join, meet
from .ternary import IncidenceMatrix


def axiom_matrix() -> IncidenceMatrix:
    """Unique line through two distinct points, as a 3x3 matrix."""
    return IncidenceMatrix([
        [0, 1, 0],
        [1, 1, 1],
        [1, 1, -1],
    ])


def warmup_matrix() -> IncidenceMatrix:
    """Four points on a line; two secants force the last incidence."""
    return IncidenceMatrix([
        [0, 1, -1, 0],
        [1, 1, 0, -1],
        [1, 1, 1, 0],
        [0, 1, 1, 1],
    ])


def line_count_matrix(q: int) -> IncidenceMatrix:
    """A line with q+1 distinct points is full: any line avoiding q of
    them hits the last one.  True exactly over the field of order q.
    (q+1) x (q+2); distinctness comes from one auxiliary line per point."""
    if q < 1:
        raise ValueError(q)
    rows = [[0, 1] + [-1] * q]
    for i in range(2, q + 2):
        row = [-1, 1] + [-1] * q
        row[i] = 1
        rows.append(row)
    return IncidenceMatrix(rows)


def one_line_matrix() -> IncidenceMatrix:
    """Three points on the side extensions of a triangle; if all three are
    on one line, a line through two of them carries the third."""
    return IncidenceMatrix([
        [0, 1, -1, -1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [0, 0, 1, 1, -1],
        [0, 0, 1, -1, 1],
        [0, 0, -1, 1, 1],
    ])


def pappus_base_matrix() -> IncidenceMatrix:
    """Pappus' hexagon theorem, 9 points x 9 lines.

    Rows: the conclusion point, the two point triples, the two cross
    points, in the classical numbering.  Columns: the conclusion line,
    the two carrier lines, the cross line, and five connecting lines.
    """
    return IncidenceMatrix([
        [0, 0, 0, 1, 0, 0, 0, 0, 1],
        [1, 1, -1, 0, 1, -1, 0, 0, 0],
        [0, 1, -1, 0, -1, 1, 1, 0, 0],
        [0, 1, -1, 0, -1, -1, 0, 1, 1],
        [0, -1, 1, 0, -1, -1, 1, 0, 1],
        [0, -1, 1, 0, 1, -1, 0, 1, 0],
        [1, -1, 1, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 1, 0, 1, 0],
    ])


def pappus_aux12_matrix() -> IncidenceMatrix:
    """Pappus base plus three auxiliary diagonal points (rows 10-12):
    the pairwise intersections of the carrier and cross lines."""
    return IncidenceMatrix(list(pappus_base_matrix().rows()) + [
        [0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 0],
    ])


def pappus_aux16_matrix() -> IncidenceMatrix:
    """Pappus with the full auxiliary construction: a replacement cross
    line (column 10) and four points on it (rows 13-16)."""
    return IncidenceMatrix([
        [0, 0, 0, 1, 0, 0, 0, 0, 1, 0],
        [1, 1, -1, 0, 1, -1, 0, 0, 0, 0],
        [0, 1, -1, 0, -1, 1, 1, 0, 0, 0],
        [0, 1, -1, 0, -1, -1, 0, 1, 1, 0],
        [0, -1, 1, 0, -1, -1, 1, 0, 1, 0],
        [0, -1, 1, 0, 1, -1, 0, 1, 0, 0],
        [1, -1, 1, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1, 0, 1, 0, 0],
        [0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 1],
    ])


def pappus_case1_golden() -> IncidenceMatrix:
    """Expected fill of the 12x9 matrix once the first diagonal point is
    taken off the cross line (seed (10,4) = -1)."""
    return IncidenceMatrix([
        [0, -1, -1, 1, -1, -1, -1, -1, 1],
        [1, 1, -1, -1, 1, -1, -1, -1, -1],
        [-1, 1, -1, -1, -1, 1, 1, -1, -1],
        [-1, 1, -1, -1, -1, -1, -1, 1, 1],
        [-1, -1, 1, -1, -1, -1, 1, -1, 1],
        [-1, -1, 1, -1, 1, -1, -1, 1, -1],
        [1, -1, 1, -1, -1, 1, -1, -1, -1],
        [-1, -1, -1, 1, 1, -1, 1, -1, -1],
        [-1, -1, -1, 1, -1, 1, -1, 1, -1],
        [-1, 1, 1, -1, -1, -1, -1, -1, -1],
        [-1, -1, 1, 1, -1, -1, -1, -1, -1],
        [-1, 1, -1, 1, -1, -1, -1, -1, -1],
    ])


def pappus_case2_golden() -> IncidenceMatrix:
    """Expected fill of the 16x10 matrix with seeds (1,1) = (10,10) = -1;
    residual zeros stay at (10,4), (11,2), (12,3)."""
    return IncidenceMatrix([
        [-1, -1, -1, 1, -1, -1, -1, -1, 1, -1],
        [1, 1, -1, -1, 1, -1, -1, -1, -1, -1],
        [-1, 1, -1, -1, -1, 1, 1, -1, -1, -1],
        [-1, 1, -1, -1, -1, -1, -1, 1, 1, -1],
        [-1, -1, 1, -1, -1, -1, 1, -1, 1, -1],
        [-1, -1, 1, -1, 1, -1, -1, 1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, -1, -1, -1],
        [-1, -1, -1, 1, 1, -1, 1, -1, -1, 1],
        [-1, -1, -1, 1, -1, 1, -1, 1, -1, -1],
        [-1, 1, 1, 0, -1, -1, -1, -1, -1, -1],
        [-1, 0, 1, 1, -1, -1, -1, -1, -1, -1],
        [-1, 1, 0, 1, -1, -1, -1, -1, -1, -1],
        [1, -1, -1, -1, -1, -1, -1, -1, 1, 1],
        [-1, -1, -1, -1, -1, 1, -1, -1, -1, 1],
        [-1, -1, 1, -1, -1, -1, -1, -1, -1, 1],
        [-1, 1, -1, -1, -1, -1, -1, -1, -1, 1],
    ])


def pappus_case3_golden() -> IncidenceMatrix:
    """Expected fill of the 16x10 matrix with seeds (1,1) = -1 and
    (10,10) = +1; cell (10,4) comes out -1."""
    return IncidenceMatrix([
        [-1, -1, -1, 1, -1, -1, -1, -1, 1, -1],
        [1, 1, -1, -1, 1, -1, -1, -1, -1, -1],
        [-1, 1, -1, -1, -1, 1, 1, -1, -1, -1],
        [-1, 1, -1, -1, -1, -1, -1, 1, 1, -1],
        [-1, -1, 1, -1, -1, -1, 1, -1, 1, -1],
        [-1, -1, 1, -1, 1, -1, -1, 1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, -1, -1, -1],
        [-1, -1, -1, 1, 1, -1, 1, -1, -1, 1],
        [-1, -1, -1, 1, -1, 1, -1, 1, -1, -1],
        [-1, 1, 1, -1, -1, -1, -1, -1, -1, 1],
        [-1, -1, 1, 1, -1, -1, -1, -1, -1, -1],
        [-1, 1, -1, 1, -1, -1, -1, -1, -1, -1],
        [1, -1, -1, -1, -1, -1, -1, -1, 1, 1],
        [-1, -1, -1, -1, -1, 1, -1, -1, -1, 1],
        [-1, 0, 1, -1, -1, -1, -1, -1, -1, 1],
        [-1, 1, 0, -1, -1, -1, -1, -1, -1, 1],
    ])


def fano_closure_matrix() -> IncidenceMatrix:
    """Quadrilateral-closure statement: in a triangle with two marked
    points on two sides, if the induced fourth harmonic point falls on
    the connecting line, the first marked point lands on the third side.
    False exactly in characteristic 2 (the 7-point plane realizes it).

    Rows: D, A, B, C, E, F, G.  Columns: CA, AB, BC, CD, AE, BF, DE.
    """
    return IncidenceMatrix([
        [0, 1, -1, 1, 0, 0, 1],
        [1, 1, -1, 0, 1, 0, 0],
        [-1, 1, 1, 0, 0, 1, 0],
        [1, -1, 1, 1, 0, 0, 0],
        [-1, -1, 1, 0, 1, 0, 1],
        [1, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 0],
    ])


def hexagon_closure_matrix() -> IncidenceMatrix:
    """Closed 6-gon: six distinct vertices alternate between two carrier
    lines, the three 'odd' sides are concurrent, the three 'even' sides
    are concurrent; then the first vertex would land on the side joining
    vertices 2 and 3.  Refutable over the 3-element field.

    Rows: P1..P6, Q (odd-side concurrency point), R (even-side one).
    Columns: S23 (conclusion side), carriers K1 (P1,P3,P5) and
    K2 (P2,P4,P6), then sides S12, S34, S56 (through Q) and
    S45, S61 (through R; S23 also passes through R).
    """
    # Cross-carrier distinctness of the vertices comes from the -1s
    # against the opposite carrier; same-carrier distinctness from one
    # explicit non-incidence per pair against a side through the other.
    return IncidenceMatrix([
        # S23  K1  K2 S12 S34 S56 S45 S61
        [0,    1, -1,  1, -1,  0, -1,  1],   # P1
        [1,   -1,  1,  1,  0,  0, -1, -1],   # P2
        [1,    1, -1,  0,  1, -1,  0,  0],   # P3
        [0,   -1,  1,  0,  1,  0,  1, -1],   # P4
        [0,    1, -1,  0,  0,  1,  1,  0],   # P5
        [0,   -1,  1,  0, -1,  1,  0,  1],   # P6
        [0,    0,  0,  1,  1,  1,  0,  0],   # Q
        [1,    0,  0,  0,  0,  0,  1,  1],   # R
    ])


def hexagon_would_be_matrix() -> IncidenceMatrix:
    """The closed 6-gon matrix extended by the auxiliary objects of the
    (invalid) would-be proof: the transversal through the two
    concurrency points (column 9) and the three triangle corners cut out
    by the carriers and the transversal (rows 9-11).  11x9."""
    from .ternary import (
        LINE_THROUGH_TWO_POINTS,
        POINT_ON_TWO_LINES,
        aux_join,
    )

    m = hexagon_closure_matrix()
    m = aux_join(m, LINE_THROUGH_TWO_POINTS, 7, 8)
    m = aux_join(m, POINT_ON_TWO_LINES, 2, 3)
    m = aux_join(m, POINT_ON_TWO_LINES, 2, 9)
    m = aux_join(m, POINT_ON_TWO_LINES, 3, 9)
    return m


def hexagon_counterexample() -> Configuration:
    """The refutation of the closed 6-gon statement over the 3-element
    field, in the rows and columns of `hexagon_closure_matrix`: the
    affine points P1..P6, Q = (2,0) and R = (2,2), then the conclusion
    side S23, the carriers and the other five sides."""
    F = field(3)
    P = [affine_point(F, x, y) for x, y in ((0, 0), (1, 0), (0, 1), (1, 2), (0, 2), (1, 1))]
    S12, S23, S34, S45, S56, S61 = (join(F, P[k], P[(k + 1) % 6]) for k in range(6))
    K1, K2 = join(F, P[0], P[2]), join(F, P[1], P[3])
    Q, R = meet(F, S12, S34), meet(F, S45, S61)
    return Configuration(3, (*P, Q, R), (S23, K1, K2, S12, S34, S56, S45, S61))
