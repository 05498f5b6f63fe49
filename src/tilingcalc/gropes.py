"""Generalized gropes: closed orientable surfaces with discs-with-
boundary glued in along cyclic coverings of a face boundary.

A complexity-0 grope is a closed orientable surface.  Each gluing step
removes one open face and attaches a compact orientable surface whose
single boundary cycle of 3k vertices wraps k times around the removed
face's boundary (vertex i of the attached boundary lands on corner
i mod 3).  The wrap count k must be torsion-coprime for the coefficient
group, which is exactly what makes every face of the result excisable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .excision import GroupSpec, torsion_coprime
from .surfaces import (
    DeltaComplex,
    FaceNotFound,
    edge_uses,
    is_closed_orientable_surface,
    orient,
    rim_word,
)


class NotAClosedOrientableSurface(ValueError):
    pass


class BadBoundary(ValueError):
    pass


class NotTorsionCoprime(ValueError):
    pass


@dataclass(frozen=True)
class BoundedSurface:
    """Compact orientable surface with one distinguished boundary cycle,
    given as the cyclic sequence of boundary vertices."""

    complex: DeltaComplex
    boundary: tuple[int, ...]
    _rim: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "boundary", tuple(int(v) for v in self.boundary))
        K = self.complex
        if len(set(self.boundary)) != len(self.boundary) or not self.boundary:
            raise BadBoundary("boundary vertices must be distinct")
        uses = edge_uses(K)
        if any(len(u) > 2 for u in uses.values()):
            raise BadBoundary("an edge lies in more than two faces")
        rim = rim_word(K, uses, self.boundary)
        if rim is None:
            raise BadBoundary("rim edges do not match the declared cycle")
        if orient(K, uses) is None:
            raise BadBoundary("non-orientable or disconnected surface")
        object.__setattr__(self, "_rim", tuple(rim))

    def rim_edge(self, i: int) -> tuple[int, int]:
        """The edge between boundary vertices i and i+1, with +1 when it
        is stored in the direction of the cycle."""
        return self._rim[i]


def fan_disc(sides: int) -> BoundedSurface:
    """Polygon disc triangulated by a central fan; the boundary cycle is
    vertices 0..sides-1 and the centre is vertex `sides`."""
    if sides < 3:
        raise ValueError(sides)
    c = sides
    edges = [(i, (i + 1) % sides) for i in range(sides)]  # rim
    edges += [(c, i) for i in range(sides)]  # spokes
    faces = tuple(
        ((sides + i, 1), (i, 1), (sides + (i + 1) % sides, -1)) for i in range(sides)
    )
    return BoundedSurface(
        DeltaComplex(sides + 1, tuple(edges), faces), tuple(range(sides))
    )


@dataclass(frozen=True)
class Grope:
    complex: DeltaComplex
    gluings: tuple[tuple[int, int], ...]  # (face removed, wrap count k)

    @property
    def complexity(self) -> int:
        return len(self.gluings)

    def to_json_obj(self) -> dict:
        obj = self.complex.to_json_obj()
        obj["gluings"] = [{"face": f + 1, "k": k} for f, k in self.gluings]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Grope":
        return cls(
            DeltaComplex.from_json_obj(obj),
            tuple((g["face"] - 1, g["k"]) for g in obj.get("gluings", ())),
        )


def grope_base(S: DeltaComplex) -> Grope:
    if is_closed_orientable_surface(S) is None:
        raise NotAClosedOrientableSurface()
    return Grope(S, ())


def grope_glue(
    gr: Grope, face: int, S: BoundedSurface, k: int, G: GroupSpec, offset: int = 0
) -> Grope:
    """Remove the open face and glue S along the degree-k covering of the
    face boundary (boundary vertex i of S lands on face corner
    (i + offset) mod 3)."""
    K = gr.complex
    if not 0 <= face < len(K.faces):
        raise FaceNotFound(face)
    L = len(S.boundary)
    if k < 2 or L != 3 * k:
        raise BadBoundary(f"boundary has {L} vertices, need 3k with k > 1")
    if not torsion_coprime(k, G):
        raise NotTorsionCoprime(k)
    walk = K.faces[face]

    KS = S.complex
    vmap: dict[int, int] = {}
    for i, w in enumerate(S.boundary):
        vmap[w] = K.de_tail(walk[(i + offset) % 3])
    vertices = K.vertex_count
    for v in range(KS.vertex_count):
        if v not in vmap:
            vmap[v] = vertices
            vertices += 1

    edges = list(K.edges)
    emap: dict[int, tuple[int, int]] = {}  # S edge -> (glued edge, sign)
    for i in range(L):
        e, fwd = S.rim_edge(i)
        target, tdir = walk[(i + offset) % 3]
        emap[e] = (target, tdir * fwd)
    for e, (t, h) in enumerate(KS.edges):
        if e not in emap:
            emap[e] = (len(edges), 1)
            edges.append((vmap[t], vmap[h]))

    faces = [K.faces[f] for f in range(len(K.faces)) if f != face]
    for f in KS.faces:
        faces.append(tuple((emap[e][0], emap[e][1] * d) for e, d in f))
    glued = DeltaComplex(vertices, tuple(edges), tuple(faces))
    return Grope(glued, gr.gluings + ((face, k),))


# -- standard gropes -------------------------------------------------------


def triangle_sphere() -> DeltaComplex:
    """Two triangles glued along their whole boundary."""
    walk = ((0, 1), (1, 1), (2, -1))
    return DeltaComplex(3, ((0, 1), (1, 2), (0, 2)), (walk, walk))


def genus_two_surface() -> DeltaComplex:
    """One-vertex triangulation of the closed orientable genus-2 surface
    (fan triangulation of the octagon with the standard edge word)."""
    a, b, c, d, e2, e3, e4, e5, e6 = range(9)
    edges = tuple((0, 0) for _ in range(9))
    faces = (
        ((a, 1), (b, 1), (e2, -1)),
        ((e2, 1), (a, -1), (e3, -1)),
        ((e3, 1), (b, -1), (e4, -1)),
        ((e4, 1), (c, 1), (e5, -1)),
        ((e5, 1), (d, 1), (e6, -1)),
        ((e6, 1), (c, -1), (d, -1)),
    )
    return DeltaComplex(1, edges, faces)


def nine_gon_grope_complex() -> Grope:
    """Triangle sphere with a fan-triangulated 9-gon glued threefold
    around one face: the complexity-1 grope whose marked-face excision
    fails exactly over groups with 3-torsion."""
    base = grope_base(triangle_sphere())
    return grope_glue(base, 1, fan_disc(9), 3, GroupSpec.reals())


def two_stage_grope_complex() -> Grope:
    """A second 9-gon glued into one of the first grope's fan faces."""
    g1 = nine_gon_grope_complex()
    return grope_glue(g1, 1, fan_disc(9), 3, GroupSpec.reals())


# -- random surfaces and gropes --------------------------------------------


def stellar_subdivide_face(K: DeltaComplex, f: int) -> DeltaComplex:
    """Place a vertex in the middle of a face and cone to its corners."""
    if not 0 <= f < len(K.faces):
        raise FaceNotFound(f)
    walk = K.faces[f]
    c = K.vertex_count
    edges = list(K.edges)
    spokes = []
    for de in walk:
        spokes.append(len(edges))
        edges.append((c, K.de_tail(de)))
    faces = [K.faces[g] for g in range(len(K.faces)) if g != f]
    for i, de in enumerate(walk):
        faces.append(((spokes[i], 1), de, (spokes[(i + 1) % 3], -1)))
    return DeltaComplex(c + 1, tuple(edges), tuple(faces))


def _torus() -> DeltaComplex:
    from .complexes import pappus_torus_case1

    return pappus_torus_case1().complex


_BASES = {0: triangle_sphere, 1: _torus, 2: genus_two_surface}


def random_closed_surface(rng: random.Random, max_faces: int = 40) -> DeltaComplex:
    """Random closed orientable surface of genus 0, 1 or 2, grown by
    stellar subdivisions from a minimal model."""
    K = _BASES[rng.randrange(3)]()
    while len(K.faces) + 2 <= max_faces and rng.random() < 0.8:
        K = stellar_subdivide_face(K, rng.randrange(len(K.faces)))
    return K


def random_grope(rng: random.Random, G: GroupSpec, ks=(3, 5, 7)) -> Grope:
    """Random grope over G with up to three gluings, wrap counts drawn
    from the torsion-coprime members of ks."""
    gr = grope_base(random_closed_surface(rng, max_faces=8))
    allowed = [k for k in ks if torsion_coprime(k, G)]
    for _ in range(rng.randint(0, 3)):
        if not allowed:
            break
        k = rng.choice(allowed)
        face = rng.randrange(len(gr.complex.faces))
        gr = grope_glue(gr, face, fan_disc(3 * k), k, G, offset=rng.randrange(3))
    return gr
