"""Realize counterexamples from multiplicative edge labelings.

A cochain over Z/n that fails to excise the marked face maps, through a
generator of the field's nonzero elements, to edge values whose product
around every other face is 1.  `realize_from_cochain` searches for
vertex points in general position and places the tiling from them and
those values (`surfaces.place_tiling`), giving a configuration of the
marked complex's generated matrix; when the product around the marked
face differs from 1, that configuration refutes the theorem.
"""

from __future__ import annotations

from .fields import field
from .plane import INFINITY, Configuration, all_points, dot, incident, join, point_at_ratio
from .search import verify_configuration
from .surfaces import generate_theorem, place_tiling


class CochainViolatesF(ValueError):
    """A non-marked face's multiplicative edge relation does not hold."""


class PlacementFailed(ValueError):
    """The plane is structurally too small to host the vertex points."""


def _powers(F) -> list[int]:
    """g^0, g^1, ..., g^(q-2) for the least generator g of the field's
    nonzero elements."""
    for g in range(1, F.q):
        powers = [1]
        while len(powers) < F.q - 1 and F.mul(powers[-1], g) != 1:
            powers.append(F.mul(powers[-1], g))
        if len(powers) == F.q - 1:
            return powers
    raise AssertionError("the multiplicative group of a finite field is cyclic")


def multiplicative_cochain(u, q: int) -> tuple[int, ...]:
    """Map an additive mod-n edge labeling into the nonzero elements of
    the field of order q through a fixed generator; needs n | q - 1."""
    F = field(q)
    if (q - 1) % u.modulus:
        raise ValueError(f"Z/{u.modulus} does not embed in a group of order {q - 1}")
    powers = _powers(F)
    step = (q - 1) // u.modulus
    return tuple(powers[(v % u.modulus) * step] for v in u.values)


def realize_from_cochain(mc, values, q: int):
    """Build a configuration with the marked complex's generated matrix
    from nonzero field elements on the edges whose product around every
    non-marked face is 1: vertex points with no three collinear, placed
    by `place_tiling` with ratio 1 naming an edge's improper point.  When
    the product around the marked face differs from 1, any returned
    configuration refutes the theorem's conclusion.  Returns None when no
    suitable placement exists over this field order.
    """
    F = field(q)
    K = mc.complex
    mat = generate_theorem(mc)
    values = tuple(values)
    for v in values:
        if type(v) is not int:  # not a float, and not a bool
            raise ValueError(f"edge values must be integers, not {v!r}")
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
        placement = place_tiling(
            mc,
            placed,
            values,
            lambda A, B, k: point_at_ratio(F, A, B, INFINITY if k == 1 else k),
            lambda P, Q: join(F, P, Q),
            lambda P, L: incident(F, P, L),
        )
        if placement is None:
            return None
        config = Configuration(q, *map(tuple, placement))
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
