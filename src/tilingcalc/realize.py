"""Realize counterexamples from multiplicative edge labelings.

A cochain over Z/n that fails to excise the marked face maps, through a
generator of the field's nonzero elements, to edge values whose product
around every other face is 1.  `realize_from_cochain` places vertex
points in general position and builds the configuration of the marked
complex's generated matrix from those values; when the product around
the marked face differs from 1, that configuration refutes the theorem.
"""

from __future__ import annotations

from .fields import field
from .plane import DEFAULT_CHART, Configuration, all_points, dot, join, meet, point_at_ratio
from .search import verify_configuration
from .surfaces import generate_theorem


class CochainViolatesF(ValueError):
    """A non-marked face's multiplicative edge relation does not hold."""


class PlacementFailed(ValueError):
    """The plane is structurally too small to host the vertex points."""


def _generator(F):
    """A multiplicative generator of the field's nonzero elements."""
    for g in range(1, F.q):
        x, order = g, 1
        while x != 1:
            x = F.mul(x, g)
            order += 1
        if order == F.q - 1:
            return g
    raise AssertionError("the multiplicative group of a finite field is cyclic")


def _pow(F, g: int, e: int) -> int:
    acc = 1
    for _ in range(e):
        acc = F.mul(acc, g)
    return acc


def multiplicative_cochain(u, q: int) -> tuple[int, ...]:
    """Map an additive mod-n edge labeling into the nonzero elements of
    the field of order q through a fixed generator; needs n | q - 1."""
    F = field(q)
    if (q - 1) % u.modulus:
        raise ValueError(f"Z/{u.modulus} does not embed in a group of order {q - 1}")
    g = _generator(F)
    step = (q - 1) // u.modulus
    return tuple(_pow(F, g, (v % u.modulus) * step) for v in u.values)


def _edge_point(F, A, B, k):
    """The point on line AB dividing it at ratio k; ratio 1 names the
    improper point of the line."""
    if k == 1:
        return meet(F, join(F, A, B), DEFAULT_CHART)
    return point_at_ratio(F, A, B, k)


def realize_from_cochain(mc, values, q: int):
    """Build a configuration with the marked complex's generated matrix
    from nonzero field elements on the edges whose product around every
    non-marked face is 1: vertex points with no three collinear, edge
    lines as joins, edge points at the given ratios, face lines through
    the resulting collinear triples, and the conclusion line through two
    of the marked face's edge points.  When the product around the marked
    face differs from 1, any returned configuration refutes the theorem's
    conclusion.  Returns None when no suitable placement exists over this
    field order.
    """
    F = field(q)
    K, lab = mc.complex, mc.labeling
    mat = generate_theorem(mc)
    values = tuple(int(v) for v in values)
    if len(values) != len(K.edges):
        raise ValueError("need one field element per edge")
    if any(not 1 <= v < q for v in values):
        raise ValueError("edge values must be nonzero field elements")
    for f, walk in enumerate(K.faces):
        if f == mc.marked:
            continue
        acc = 1
        for e, d in walk:
            acc = F.mul(acc, values[e] if d == 1 else F.inv(values[e]))
        if acc != 1:
            raise CochainViolatesF(f)
    if any(t == h for t, h in K.edges):
        raise PlacementFailed("an edge joins a vertex to itself")
    if len(set(K.face_edges(mc.marked))) != 3:
        raise PlacementFailed("marked face must have three distinct edges")

    # proper points only: every vertex must live in the affine chart
    candidates = [p for p in all_points(F) if p[2] != 0]
    nv = K.vertex_count
    if len(candidates) < nv:
        raise PlacementFailed(f"only {len(candidates)} affine points over q={q}")

    placed: list[tuple[int, int, int]] = []

    def general_position(cand) -> bool:
        for a in range(len(placed)):
            if placed[a] == cand:
                return False
            for b in range(a + 1, len(placed)):
                if dot(F, cand, join(F, placed[a], placed[b])) == 0:
                    return False
        return True

    def build():
        points = [None] * mat.m
        lines = [None] * mat.n
        edge_pts = []
        for v in range(nv):
            points[lab.p_vertex[v] - 1] = placed[v]
        for e, (t, h) in enumerate(K.edges):
            line = join(F, placed[t], placed[h])
            X = _edge_point(F, placed[t], placed[h], values[e])
            lines[lab.l_edge[e] - 1] = line
            points[lab.p_edge[e] - 1] = X
            edge_pts.append(X)
        zero_edge = mc.zero_pair()[0]
        for f in range(len(K.faces)):
            es = K.face_edges(f)
            if f == mc.marked:
                a, b = (e for e in set(es) if e != zero_edge)
            else:
                a, b = es[0], es[1]
            L = join(F, edge_pts[a], edge_pts[b])
            if L is None:
                return None
            if f != mc.marked and dot(F, edge_pts[es[2]], L) != 0:
                return None  # product-1 relation should force collinearity
            lines[lab.l_face[f] - 1] = L
        config = Configuration(q, tuple(points), tuple(lines))
        return config if verify_configuration(mat, config) else None

    def search(depth: int):
        if depth == nv:
            return build()
        for cand in candidates:
            if not general_position(cand):
                continue
            placed.append(cand)
            found = search(depth + 1)
            if found is not None:
                return found
            placed.pop()
        return None

    return search(0)
