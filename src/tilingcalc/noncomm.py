"""Noncommutative coordinates: exact rational quaternions, the left
affine plane over them, the noncommutative three-ratio collinearity
criterion, triangulated-disc shelling with boundary-word evaluation, and
two executable constructions, each a labeled tiling placed in that plane
by `surfaces.place_tiling`: a quaternionic refutation of the hexagon
theorem and a soundness sampler for the sphere-backed four-triangle
theorem.

Conventions: scalars multiply on the left, so points are left spans of
coordinate triples and a line with coefficients (a, b, c) consists of
the triples with x·a + y·b + z·c = 0 (coefficients defined up to a
right scalar).  Affine points are pairs (x, y), embedded as (x, y, 1).
"""

from __future__ import annotations

import random
from itertools import combinations
from dataclasses import dataclass
from fractions import Fraction

from .plane import NotCollinear, check_sizes
from .gropes import stellar_subdivide_face
from .surfaces import DeltaComplex, cycle_order, edge_uses, orient, place_tiling, rim_word
from .ternary import JsonText


class DegenerateDenominator(ZeroDivisionError):
    pass


class NotADisc(ValueError):
    pass


class FlatnessViolated(ValueError):
    pass


class Commuting(ValueError):
    pass


# -- quaternions -----------------------------------------------------------


@dataclass(frozen=True)
class Quaternion(JsonText):
    """a + b·i + c·j + d·k with exact rational components."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def of(cls, a, b=0, c=0, d=0) -> "Quaternion":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @classmethod
    def zero(cls) -> "Quaternion":
        return cls.of(0)

    @classmethod
    def one(cls) -> "Quaternion":
        return cls.of(1)

    @classmethod
    def i(cls) -> "Quaternion":
        return cls.of(0, 1)

    @classmethod
    def j(cls) -> "Quaternion":
        return cls.of(0, 0, 1)

    @classmethod
    def k(cls) -> "Quaternion":
        return cls.of(0, 0, 0, 1)

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def __add__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o) -> "Quaternion":
        if not isinstance(o, Quaternion):
            o = Quaternion.of(o)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __rmul__(self, o) -> "Quaternion":
        return Quaternion.of(o) * self

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> Fraction:
        return self.a**2 + self.b**2 + self.c**2 + self.d**2

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n == 0:
            raise DegenerateDenominator("zero quaternion has no inverse")
        conj = self.conjugate()
        return Quaternion(conj.a / n, conj.b / n, conj.c / n, conj.d / n)

    def to_json_obj(self) -> list[str]:
        return [str(v) for v in (self.a, self.b, self.c, self.d)]

    @classmethod
    def from_json_obj(cls, obj) -> "Quaternion":
        return cls(*(Fraction(v) for v in obj))


_ZERO = Quaternion.zero()
_ONE = Quaternion.one()


# -- the left affine plane -------------------------------------------------

# affine points are pairs (x, y) of quaternions; lines are coefficient
# triples (a, b, c) with incidence x·a + y·b + c = 0


def _pt_sub(P, Q):
    return (P[0] - Q[0], P[1] - Q[1])


def _pt_scale(k: Quaternion, P):
    return (k * P[0], k * P[1])


def left_bracket(Y, Z, X) -> Quaternion:
    """The unique k with Y - X = k (Z - X); requires Z distinct from X
    and the three points on one left line."""
    dy = _pt_sub(Y, X)
    dz = _pt_sub(Z, X)
    if not (dz[0] or dz[1]):
        raise DegenerateDenominator("Z = X leaves the ratio undefined")
    pivot = 0 if dz[0] else 1
    k = dy[pivot] * dz[pivot].inverse()
    if _pt_sub(dy, _pt_scale(k, dz)) != (_ZERO, _ZERO):
        raise NotCollinear((Y, Z, X))
    return k


def collinear(A, B, C) -> bool:
    """Whether three affine points lie on one left line."""
    dz = _pt_sub(B, A)
    dy = _pt_sub(C, A)
    if not (dz[0] or dz[1]):  # A = B: any third point completes a line
        return True
    pivot = 0 if dz[0] else 1
    k = dy[pivot] * dz[pivot].inverse()
    return _pt_sub(dy, _pt_scale(k, dz)) == (_ZERO, _ZERO)


def divide(A, B, k: Quaternion):
    """The point X on line AB with A - X = k (B - X); needs k distinct
    from 1 (the solution would be improper)."""
    if k == _ONE:
        raise DegenerateDenominator("ratio 1 has no affine solution")
    s = (_ONE - k).inverse()
    return (s * (A[0] - k * B[0]), s * (A[1] - k * B[1]))


def homothety(C, k: Quaternion):
    """The map A -> k (A - C) + C."""

    def apply(A):
        return (k * (A[0] - C[0]) + C[0], k * (A[1] - C[1]) + C[1])

    return apply


def menelaus_check(A, B, C, D, E, F) -> bool:
    """Whether the ordered product of the three division ratios of D, E,
    F on the sides AB, BC, CA equals 1; cross-checked against direct
    collinearity of D, E, F, to which it is provably equivalent."""
    if collinear(A, B, C):
        raise ValueError("triangle vertices lie on one line")
    for X, P, Q in ((D, A, B), (E, B, C), (F, C, A)):
        if X == P or X == Q:
            raise ValueError("division point coincides with a vertex")
        if not collinear(P, Q, X):
            raise ValueError("division point is off its side")
    product = left_bracket(A, B, D) * left_bracket(B, C, E) * left_bracket(C, A, F)
    straight = collinear(D, E, F)
    assert (product == _ONE) == straight, "ratio criterion out of sync"
    return product == _ONE


def line_through(P, Q):
    """Coefficients (a, b, c) of the left line through two affine points,
    normalized up to a right scalar; None when the points coincide."""
    dx = P[0] - Q[0]
    dy = P[1] - Q[1]
    if not (dx or dy):
        return None
    if dx:
        b = _ONE
        a = -(dx.inverse() * dy)
    else:
        a, b = _ONE, _ZERO
    c = -(P[0] * a + P[1] * b)
    return (a, b, c)


def incident_line(P, line) -> bool:
    a, b, c = line
    return P[0] * a + P[1] * b + c == _ZERO


@dataclass(frozen=True)
class SkewConfiguration:
    """Affine quaternion points and left lines over the quaternions."""

    points: tuple
    lines: tuple

    def to_json_obj(self) -> dict:
        return {
            "points": [[q.to_json_obj() for q in p] for p in self.points],
            "lines": [[q.to_json_obj() for q in l] for l in self.lines],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SkewConfiguration":
        return cls(
            tuple(tuple(Quaternion.from_json_obj(q) for q in p) for p in obj["points"]),
            tuple(tuple(Quaternion.from_json_obj(q) for q in l) for l in obj["lines"]),
        )


def verify_skew_configuration(mat, config: SkewConfiguration) -> bool:
    """True iff every +1 cell is an incidence and every -1 cell is not."""
    check_sizes(mat, config)
    rows = mat.rows()
    for i in range(mat.m):
        for j in range(mat.n):
            v = rows[i][j]
            if v == 0:
                continue
            if incident_line(config.points[i], config.lines[j]) != (v == 1):
                return False
    return True


# -- triangulated discs ----------------------------------------------------


def _check_disc(K: DeltaComplex, faces, boundary) -> None:
    """Raise NotADisc unless the face subset with this boundary cycle is
    a connected, simply connected triangulated disc."""
    if not faces:
        raise NotADisc("no faces")
    if len(set(boundary)) != len(boundary) or len(boundary) < 3:
        raise NotADisc("boundary vertices must be at least three, distinct")
    uses = edge_uses(K, faces)
    if any(len(u) > 2 for u in uses.values()):
        raise NotADisc("an edge lies in more than two faces")
    if rim_word(K, uses, boundary) is None:
        raise NotADisc("boundary edges do not match the declared cycle")
    verts = {v for e in uses for v in K.edges[e]}
    if len(verts) - len(uses) + len(faces) != 1:
        raise NotADisc("wrong alternating count for a disc")
    # connected with one rim cycle and alternating count 1 makes a disc,
    # which is orientable: orient fails here only on disconnected faces
    if orient(K, uses) is None:
        raise NotADisc("disconnected")


@dataclass(frozen=True)
class TriangulatedDisc:
    complex: DeltaComplex
    boundary: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "boundary", tuple(int(v) for v in self.boundary))
        _check_disc(self.complex, range(len(self.complex.faces)), self.boundary)


def _free_faces(K: DeltaComplex, faces, boundary_vertices, uses) -> list[int]:
    out = []
    for f in faces:
        edges = {e for e, _ in K.faces[f]}
        rim_edges = sum(1 for e in edges if len(uses[e]) == 1)
        interior_vertex = any(
            v not in boundary_vertices for v in K.face_vertices(f)
        )
        if rim_edges >= 2 or (rim_edges == 1 and interior_vertex):
            out.append(f)
    return out


def free_faces(D: TriangulatedDisc) -> list[int]:
    """Faces whose removal keeps the complex a triangulated disc: two
    boundary edges, or one boundary edge plus an interior vertex."""
    K = D.complex
    return _free_faces(K, range(len(K.faces)), set(D.boundary), edge_uses(K))


def _boundary_after(K: DeltaComplex, uses) -> tuple[int, ...]:
    """The boundary vertex cycle traced by the rim edges of `uses`."""
    cycle = cycle_order(K.edges[e] for e, u in uses.items() if len(u) == 1)
    if cycle is None:
        raise NotADisc("boundary is not a simple cycle")
    return tuple(cycle)


def shell(D: TriangulatedDisc) -> list[int]:
    """Removal order of free faces (lowest index first) down to a single
    face; every intermediate subset is verified to remain a disc."""
    K = D.complex
    faces = list(range(len(K.faces)))
    uses, boundary = edge_uses(K), D.boundary
    order = []
    while len(faces) > 1:
        free = _free_faces(K, faces, set(boundary), uses)
        if not free:
            raise NotADisc("no free face available")
        f = min(free)
        faces.remove(f)
        uses = edge_uses(K, faces)
        boundary = _boundary_after(K, uses)
        _check_disc(K, faces, boundary)
        order.append(f)
    return order


def _walk_path(K: DeltaComplex, walk, start: int, goal: int, banned: set[int]):
    """Directed path from start to goal along a face's 3-cycle avoiding
    the banned edges, as a list of (edge, direction)."""
    for forward in (True, False):
        path = []
        v = start
        ok = True
        for _ in range(3):
            if forward:
                step = next((de for de in walk if K.de_tail(de) == v), None)
            else:
                step = next((de for de in walk if K.de_head(de) == v), None)
            if step is None or step[0] in banned:
                ok = False
                break
            path.append(step if forward else (step[0], -step[1]))
            v = K.de_head(step) if forward else K.de_tail(step)
            if v == goal:
                break
        if ok and v == goal and path:
            return path
    raise NotADisc("face does not bridge the removed boundary segment")


def evaluate_boundary(D: TriangulatedDisc, values):
    """The product of the edge values along the boundary cycle, computed
    twice: directly, and by shelling the disc one free face at a time
    (each removal replaces a boundary run by the complementary path
    across the removed face).  Requires the face relation value(ab) ·
    value(bc) · value(ca) = 1 everywhere; the two computations must
    agree, and the result is the group identity.

    `values` holds one group element per edge in the stored direction; a
    reversed traversal contributes the inverse.
    """
    K = D.complex

    def of(de):
        e, d = de
        return values[e] if d == 1 else values[e].inverse()

    for f, walk in enumerate(K.faces):
        acc = _ONE
        for de in walk:
            acc = acc * of(de)
        if acc != _ONE:
            raise FlatnessViolated(f)

    # direct product along the declared boundary
    word = rim_word(K, edge_uses(K), D.boundary)
    direct = _ONE
    for de in word:
        direct = direct * of(de)

    # shelling recursion: rewrite the word across each removed face
    for f in shell(D):
        walk = K.faces[f]
        face_edges = {e for e, _ in walk}
        n = len(word)
        positions = [t for t, (e, _) in enumerate(word) if e in face_edges]
        # gather the run cyclically
        run = sorted(positions)
        if len(run) == 2 and run == [0, n - 1]:
            run = [n - 1, 0]
        start_v = K.de_tail(word[run[0]])
        end_v = K.de_head(word[run[-1]])
        replacement = _walk_path(
            K, walk, start_v, end_v, {word[t][0] for t in run}
        )
        keep = [word[t] for t in range(n) if t not in set(run)]
        # splice at the position of the run
        cut = run[0] if run[0] < run[-1] or len(run) == 1 else run[-1]
        before = [word[t] for t in range(cut) if t not in set(run)]
        after = [word[t] for t in range(cut, n) if t not in set(run)]
        word = before + replacement + after
        assert len(keep) + len(replacement) == len(word)
    shelled = _ONE
    for de in word:
        shelled = shelled * of(de)
    assert shelled == direct, "shelling changed the boundary transport"
    return shelled


# -- random discs ----------------------------------------------------------


def random_disc(rng: random.Random, max_faces: int = 30) -> TriangulatedDisc:
    """Random triangulated disc grown from one triangle by coning over
    boundary edges and stellar subdivision of faces."""
    K = DeltaComplex(3, ((0, 1), (1, 2), (0, 2)), (((0, 1), (1, 1), (2, -1)),))
    boundary = [0, 1, 2]
    target = rng.randint(1, max_faces)
    while len(K.faces) < target:
        if rng.random() < 0.5:
            # cone a new vertex over a boundary edge
            t = rng.randrange(len(boundary))
            a, b = boundary[t], boundary[(t + 1) % len(boundary)]
            e = next(i for i, ends in enumerate(K.edges) if set(ends) == {a, b})
            w, n = K.vertex_count, len(K.edges)
            d = -1 if K.edges[e] == (a, b) else 1
            K = DeltaComplex(
                w + 1, K.edges + ((a, w), (w, b)), K.faces + (((n, 1), (n + 1, 1), (e, d)),)
            )
            boundary.insert(t + 1, w)
        else:
            K = stellar_subdivide_face(K, rng.randrange(len(K.faces)))
    return TriangulatedDisc(
        DeltaComplex(K.vertex_count, K.edges, K.faces, simplicial=True), tuple(boundary)
    )


def random_quaternion(rng: random.Random, nonzero: bool = False) -> Quaternion:
    while True:
        q = Quaternion(
            *(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
        )
        if q or not nonzero:
            return q


def coboundary_values(K: DeltaComplex, gauge) -> tuple[Quaternion, ...]:
    """Edge values g(tail)·g(head)⁻¹ from a vertex assignment: the face
    relation holds on every face by telescoping."""
    return tuple(gauge[t] * gauge[h].inverse() for t, h in K.edges)


# -- the quaternionic hexagon refutation -----------------------------------


def hexagon_edge_values(u: Quaternion, v: Quaternion) -> dict[int, Quaternion]:
    """Edge values on the six-triangle torus tiling, keyed by the edge's
    point label: the face relation holds on the five non-marked faces
    and fails on the marked one with defect u·v·u⁻¹·v⁻¹.  Solved from
    the five face relations with holonomies u and v and central gauge
    choices that keep every value distinct from 1."""
    if u * v == v * u:
        raise Commuting(f"holonomies {u.to_json_obj()} and {v.to_json_obj()} commute")
    two, three, six = (Quaternion.of(n) for n in (2, 3, 6))
    vals = {
        5: two,
        6: v,
        7: u,
        1: three,
        8: three * u * v.inverse(),
        9: six * v.inverse(),
        4: six,
        2: three * v * u * v.inverse(),
        3: six * u * v.inverse(),
    }
    assert all(val != _ONE for val in vals.values())
    return vals


def pappus_counterexample(u: Quaternion, v: Quaternion) -> SkewConfiguration:
    """A full quaternionic configuration satisfying every hypothesis of
    the hexagon theorem and violating its conclusion, built on the
    six-triangle torus tiling from two non-commuting holonomies."""
    from .complexes import pappus_torus_case1

    vals = hexagon_edge_values(u, v)
    mc = pappus_torus_case1()
    placement = place_tiling(
        mc,
        ((_ZERO, _ZERO), (_ONE, _ZERO), (_ZERO, _ONE)),
        tuple(vals[p] for p in mc.labeling.p_edge),
        divide,
        line_through,
        incident_line,
    )
    assert placement is not None, "the five non-marked faces are flat"
    config = SkewConfiguration(*map(tuple, placement))
    assert not incident_line(config.points[0], config.lines[0])
    return config


# -- soundness sampling for the sphere-backed theorem ----------------------


def _default_sampler(rng: random.Random):
    base = [(random_quaternion(rng), random_quaternion(rng)) for _ in range(4)]
    gauge = [random_quaternion(rng, nonzero=True) for _ in range(4)]
    return base, gauge


def desargues_soundness_sample(trials: int, seed: int = 0, sampler=None) -> dict:
    """Random quaternionic configurations satisfying the hypotheses of
    the four-triangle sphere theorem, built from telescoping edge values
    on the tetrahedron; reports how many satisfy the conclusion (all
    must).  Degenerate samples (collinear base points or a trivial edge
    value) are rejected and regenerated."""
    from .complexes import desargues_tetrahedron

    rng = random.Random(seed)
    if sampler is None:
        sampler = _default_sampler
    mc = desargues_tetrahedron()
    passes = 0
    rejected = 0
    for _ in range(trials):
        while True:
            base, gauge = sampler(rng)
            degenerate = any(collinear(*abc) for abc in combinations(base, 3))
            values = coboundary_values(mc.complex, gauge)
            if degenerate or any(val == _ONE for val in values):
                rejected += 1
                continue
            break
        placement = place_tiling(mc, base, values, divide, line_through, incident_line)
        assert placement is not None, "telescoping values are flat on every face"
        points, lines = placement
        if incident_line(points[0], lines[0]):
            passes += 1
    return {"trials": trials, "passes": passes, "rejected": rejected}
