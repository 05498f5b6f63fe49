"""Triangulated surfaces and their labelings.

A complex here is two-dimensional with triangular faces, stored as
directed-edge walks so that vertices and edges may be identified (the
torus built from six triangles has only three vertices).  A labeling
assigns point indices to vertices and edges and line indices to faces
and edges; a labeled complex with a marked face encodes an incidence
theorem whose matrix is forced on all cells touched by the complex.
Placed in a plane from one point per vertex and one ratio per edge
(`place_tiling`), it yields that theorem's configuration over GF(q) or
over the quaternions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .ternary import IncidenceMatrix, JsonText


class BadComplex(ValueError):
    pass


class NotSimplicial(BadComplex):
    pass


class FaceNotFound(KeyError):
    pass


class NotBijective(ValueError):
    pass


class LabelConflict(ValueError):
    pass


class DegenerateFace(ValueError):
    pass


class MarkedFaceMismatch(ValueError):
    pass


@dataclass(frozen=True)
class DeltaComplex:
    """Triangular 2-complex; faces are closed walks of three directed
    edges (edge index, direction +1/-1).  With simplicial=True the extra
    conditions of a genuine simplicial complex are enforced."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[tuple[int, int], ...], ...]
    simplicial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))
        object.__setattr__(
            self,
            "faces",
            tuple(tuple((int(e), int(d)) for e, d in face) for face in self.faces),
        )
        for t, h in self.edges:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise BadComplex(f"edge endpoint out of range: {(t, h)}")
        for face in self.faces:
            if len(face) != 3:
                raise BadComplex("faces must have exactly three edges")
            for e, d in face:
                if not 0 <= e < len(self.edges):
                    raise BadComplex(f"face references missing edge {e}")
                if d not in (1, -1):
                    raise BadComplex(f"bad direction flag {d}")
            for k in range(3):
                if self.de_head(face[k]) != self.de_tail(face[(k + 1) % 3]):
                    raise BadComplex(f"face walk does not chain: {face}")
        if self.simplicial:
            self._check_simplicial()

    # -- structure accessors ---------------------------------------------

    def de_tail(self, de: tuple[int, int]) -> int:
        e, d = de
        return self.edges[e][0] if d == 1 else self.edges[e][1]

    def de_head(self, de: tuple[int, int]) -> int:
        e, d = de
        return self.edges[e][1] if d == 1 else self.edges[e][0]

    def face_vertices(self, f: int) -> tuple[int, int, int]:
        return tuple(self.de_tail(de) for de in self.faces[f])

    def face_edges(self, f: int) -> tuple[int, int, int]:
        return tuple(e for e, _ in self.faces[f])

    def faces_of_edge(self, e: int) -> list[int]:
        return [f for f in range(len(self.faces)) if e in self.face_edges(f)]

    def _check_simplicial(self):
        for t, h in self.edges:
            if t == h:
                raise NotSimplicial("edge with equal endpoints")
        seen = {}
        for e, (t, h) in enumerate(self.edges):
            key = frozenset((t, h))
            if key in seen:
                raise NotSimplicial(f"edges {seen[key]} and {e} share endpoints")
            seen[key] = e
        corners: dict[frozenset, list[int]] = {}
        for f in range(len(self.faces)):
            vs = frozenset(self.face_vertices(f))
            if len(vs) != 3:
                raise NotSimplicial(f"face {f} has repeated vertices")
            corners.setdefault(vs, []).append(f)
        # Each face's edges are now the edges on its three vertex pairs, so
        # two faces on two common vertices share just the edge joining them,
        # and two faces meet wrongly only on three, sharing all three edges.
        twins = [fs[:2] for fs in corners.values() if len(fs) > 1]
        if twins:
            f, g = min(twins)
            raise NotSimplicial(f"faces {f} and {g} share two edges")

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": [list(e) for e in self.edges],
            "faces": [[(e + 1) * d for e, d in face] for face in self.faces],
            "simplicial": self.simplicial,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DeltaComplex":
        _require_ints("vertex count", [obj["vertices"]])
        _require_ints("edge endpoint", [v for edge in obj["edges"] for v in edge])
        _require_ints("face entry", [x for face in obj["faces"] for x in face])
        simplicial = obj.get("simplicial", False)
        if type(simplicial) is not bool:
            raise BadComplex(f"simplicial {simplicial!r} is not true or false")
        faces = tuple(
            tuple((abs(x) - 1, 1 if x > 0 else -1) for x in face)
            for face in obj["faces"]
        )
        return cls(
            obj["vertices"],
            tuple(map(tuple, obj["edges"])),
            faces,
            simplicial,
        )


def _require_ints(what: str, values) -> None:
    """Complex JSON holds integers only: not floats, and not booleans,
    which Python counts as ints."""
    for v in values:
        if type(v) is not int:
            raise BadComplex(f"{what} {v!r} is not an integer")


def _dart_at(K: DeltaComplex, de: tuple[int, int], arriving: bool):
    """Identify which end of the undirected edge the walk touches."""
    e, d = de
    end = 1 if (d == 1) == arriving else 0
    return (e, end)


def edge_uses(K: DeltaComplex, faces=None) -> dict[int, list[tuple[int, int]]]:
    """Each edge traversed by the given faces (all faces by default),
    mapped to its (face, direction) traversals in face order."""
    uses: dict[int, list[tuple[int, int]]] = {}
    for f in range(len(K.faces)) if faces is None else faces:
        for e, d in K.faces[f]:
            uses.setdefault(e, []).append((f, d))
    return uses


def orient(K: DeltaComplex, uses) -> dict[int, int] | None:
    """Face signs (+1 keep, -1 flip) under which every edge used twice
    is traversed once each way, or None when the faces of `uses` are
    non-orientable or not connected across such edges.  Edges used once
    (rim edges) impose nothing; no edge may be used more than twice."""
    faces = sorted({f for u in uses.values() for f, _ in u})
    if not faces:
        return None
    sign = {faces[0]: 1}
    stack = [faces[0]]
    while stack:
        f = stack.pop()
        for e, d in K.faces[f]:
            if len(uses[e]) == 1:
                continue
            (f1, d1), (f2, d2) = uses[e]
            g, dg = (f2, d2) if f1 == f and d1 == d else (f1, d1)
            if f1 == f2:  # both traversals inside one face
                if d1 == d2:
                    return None
                continue
            need = -sign[f] * d * dg
            if g not in sign:
                sign[g] = need
                stack.append(g)
            elif sign[g] != need:
                return None
    return sign if len(sign) == len(faces) else None


def rim_word(K: DeltaComplex, uses, boundary) -> list[tuple[int, int]] | None:
    """The rim edges (edges used once) along the cyclic vertex sequence
    `boundary`, each with +1 when stored in the direction of the cycle;
    None unless every step has exactly one rim edge and these are all
    the rim edges."""
    rim = [e for e, u in uses.items() if len(u) == 1]
    L = len(boundary)
    word = []
    for i in range(L):
        a, b = boundary[i], boundary[(i + 1) % L]
        hits = [e for e in rim if set(K.edges[e]) == {a, b}]
        if len(hits) != 1:
            return None
        word.append((hits[0], 1 if K.edges[hits[0]] == (a, b) else -1))
    if sorted(e for e, _ in word) != sorted(rim):
        return None
    return word


def cycle_order(pairs) -> list | None:
    """The nodes of the graph with these edges (node pairs) in order
    around it, from the least node toward its first neighbour; None
    unless every node has two neighbours and all lie on one cycle."""
    adj: dict = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if not adj or any(len(nbrs) != 2 for nbrs in adj.values()):
        return None
    order, prev = [min(adj)], None
    while len(order) <= len(adj):
        a, b = adj[order[-1]]
        nxt = b if a == prev else a
        if nxt == order[0]:
            return order if len(order) == len(adj) else None
        prev = order[-1]
        order.append(nxt)
    return None


def closing_signs(K: DeltaComplex) -> dict[int, int] | None:
    """Face signs (+1 keep, -1 flip) under which the faces' boundary rows
    sum to zero, or None.  They are sought only when every edge lies on
    exactly two face sides; `orient` gives them, and the sum is checked,
    so signs returned are their own certificate."""
    uses = edge_uses(K)
    if len(uses) != len(K.edges) or any(len(u) != 2 for u in uses.values()):
        return None
    sign = orient(K, uses)
    if sign is None:
        return None
    total = [0] * len(K.edges)
    for f, face in enumerate(K.faces):
        for e, d in face:
            total[e] += sign[f] * d
    return None if any(total) else sign


def is_closed_orientable_surface(K: DeltaComplex):
    """Per-face direction choices (+1 keep, -1 flip) orienting K as a
    connected closed orientable surface, or None."""
    sign = closing_signs(K)
    if sign is None:
        return None
    # vertex links must be single cycles
    corners: dict[int, list[tuple]] = {v: [] for v in range(K.vertex_count)}
    for face in K.faces:
        for k in range(3):
            d_in, d_out = face[k], face[(k + 1) % 3]
            v = K.de_head(d_in)
            corners[v].append((_dart_at(K, d_in, True), _dart_at(K, d_out, False)))
    if any(cycle_order(cs) is None for cs in corners.values()):
        return None
    return tuple(sign[f] for f in range(len(K.faces)))


def euler_characteristic(K: DeltaComplex) -> int:
    return K.vertex_count - len(K.edges) + len(K.faces)


# -- labelings ------------------------------------------------------------


@dataclass(frozen=True)
class Labeling:
    """p maps vertices and edges to point indices; l maps faces and edges
    to line indices (all 1-based)."""

    p_vertex: tuple[int, ...]
    p_edge: tuple[int, ...]
    l_face: tuple[int, ...]
    l_edge: tuple[int, ...]

    def __post_init__(self):
        for name in ("p_vertex", "p_edge", "l_face", "l_edge"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        if any(v < 1 for v in self.p_vertex + self.p_edge + self.l_face + self.l_edge):
            raise ValueError("labels are 1-based point/line indices")

    def max_point(self) -> int:
        return max(self.p_vertex + self.p_edge)

    def max_line(self) -> int:
        return max(self.l_face + self.l_edge)

    def is_bijective(self) -> bool:
        pts = self.p_vertex + self.p_edge
        lns = self.l_face + self.l_edge
        return sorted(pts) == list(range(1, len(pts) + 1)) and sorted(lns) == list(
            range(1, len(lns) + 1)
        )


def _zero_pairs(K: DeltaComplex, lab: Labeling) -> list[tuple[int, int]]:
    """Incident (edge, face) pairs carrying point label 1 and line label 1."""
    out = []
    for f in range(len(K.faces)):
        if lab.l_face[f] != 1:
            continue
        for e in set(K.face_edges(f)):
            if lab.p_edge[e] == 1:
                out.append((e, f))
    return out


@dataclass(frozen=True)
class MarkedComplex(JsonText):
    complex: DeltaComplex
    labeling: Labeling
    marked: int

    def __post_init__(self):
        K, lab = self.complex, self.labeling
        if len(lab.p_vertex) != K.vertex_count or len(lab.p_edge) != len(K.edges):
            raise ValueError("point labeling does not cover vertices and edges")
        if len(lab.l_face) != len(K.faces) or len(lab.l_edge) != len(K.edges):
            raise ValueError("line labeling does not cover faces and edges")
        if not 0 <= self.marked < len(K.faces):
            raise FaceNotFound(self.marked)
        pairs = _zero_pairs(K, lab)
        if len(pairs) != 1 or pairs[0][1] != self.marked:
            raise MarkedFaceMismatch(
                f"need exactly one incident pair with labels (1, 1) on the "
                f"marked face; found {pairs}"
            )

    def zero_pair(self) -> tuple[int, int]:
        return _zero_pairs(self.complex, self.labeling)[0]

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        obj = self.complex.to_json_obj()
        lab = self.labeling
        obj["p"] = {
            **{f"v{i + 1}": lab.p_vertex[i] for i in range(len(lab.p_vertex))},
            **{f"e{i + 1}": lab.p_edge[i] for i in range(len(lab.p_edge))},
        }
        obj["l"] = {
            **{f"f{i + 1}": lab.l_face[i] for i in range(len(lab.l_face))},
            **{f"e{i + 1}": lab.l_edge[i] for i in range(len(lab.l_edge))},
        }
        obj["marked"] = self.marked + 1
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MarkedComplex":
        K = DeltaComplex.from_json_obj(obj)
        p, l = obj["p"], obj["l"]
        labels = (
            [p[f"v{i + 1}"] for i in range(K.vertex_count)],
            [p[f"e{i + 1}"] for i in range(len(K.edges))],
            [l[f"f{i + 1}"] for i in range(len(K.faces))],
            [l[f"e{i + 1}"] for i in range(len(K.edges))],
        )
        _require_ints("label", [v for part in labels for v in part])
        marked = obj["marked"]
        _require_ints("marked face", [marked])
        if not 1 <= marked <= len(K.faces):
            raise BadComplex(f"marked face {marked} is not in 1..{len(K.faces)}")
        return cls(K, Labeling(*labels), marked - 1)


# -- the cells a labeled tiling mandates, and its placement in a plane ----


def mandated_cells(mc: MarkedComplex):
    """The matrix cells the labeled complex forces, as (kind, i, j, p, l,
    sign) with (p, l) the 1-based cell of the pair (i, j).  First +1 on
    each incident pair, face by face and then edge by edge: (edge, face)
    'ef', (vertex, edge) 've' and (edge, itself) 'ee'.  Then -1 on each
    pair (i in V+E, j in E) lying in one face with i not contained in j,
    each pair once.  No +1 is mandated at cell (1, 1): the zero pair sits
    there, and it carries the conclusion, not a hypothesis."""
    K, lab = mc.complex, mc.labeling
    pv, pe, lf, le = lab.p_vertex, lab.p_edge, lab.l_face, lab.l_edge
    for f in range(len(K.faces)):
        for e in set(K.face_edges(f)):
            if (pe[e], lf[f]) != (1, 1):
                yield "ef", e, f, pe[e], lf[f], 1
    for e, (t, h) in enumerate(K.edges):
        for v in {t, h}:
            if (pv[v], le[e]) != (1, 1):
                yield "ve", v, e, pv[v], le[e], 1
        if (pe[e], le[e]) != (1, 1):
            yield "ee", e, e, pe[e], le[e], 1
    seen = set()
    for f in range(len(K.faces)):
        face_edges = set(K.face_edges(f))
        face_vertices = set(K.face_vertices(f))
        for j in face_edges:
            pairs = [("ve", v, pv[v]) for v in face_vertices - set(K.edges[j])]
            pairs += [("ee", i, pe[i]) for i in face_edges - {j}]
            for kind, i, p in pairs:
                if (kind, i, j) not in seen:
                    seen.add((kind, i, j))
                    yield kind, i, j, p, le[j], -1


def place_tiling(mc: MarkedComplex, vertex_points, values, divide, join, incident):
    """Place a labeled tiling in a plane from one point per vertex and one
    ratio per edge.  Each edge point is divide(A, B, k), the point X on
    the edge's line AB with A - X = k (B - X); each edge line joins the
    edge's ends; each face line joins the face's first two edge points,
    and the marked face's line the two that are not the conclusion point.
    join gives None for equal points.  Returns (points, lines) indexed by
    label - 1, or None when a face's two edge points coincide or a
    non-marked face's edge points do not lie on one line."""
    K, lab = mc.complex, mc.labeling
    points = [None] * lab.max_point()
    lines = [None] * lab.max_line()
    for v, P in enumerate(vertex_points):
        points[lab.p_vertex[v] - 1] = P
    edge_points = []
    for e, (t, h) in enumerate(K.edges):
        A, B = vertex_points[t], vertex_points[h]
        edge_points.append(divide(A, B, values[e]))
        points[lab.p_edge[e] - 1] = edge_points[e]
        lines[lab.l_edge[e] - 1] = join(A, B)
    zero_edge = mc.zero_pair()[0]
    for f in range(len(K.faces)):
        es = K.face_edges(f)
        if f == mc.marked:
            a, b = (e for e in set(es) if e != zero_edge)
        else:
            a, b = es[0], es[1]
        L = join(edge_points[a], edge_points[b])
        if L is None or f != mc.marked and not incident(edge_points[es[2]], L):
            return None
        lines[lab.l_face[f] - 1] = L
    return points, lines


# -- validation -----------------------------------------------------------


@dataclass
class ValidationReport:
    zero_pairs: list
    plus_violations: list = dc_field(default_factory=list)
    minus_violations: list = dc_field(default_factory=list)
    excisable: bool | None = None

    @property
    def ok(self) -> bool:
        return (
            not self.plus_violations
            and not self.minus_violations
            and self.excisable is not False
        )

    def to_json_obj(self) -> dict:
        return {
            "zeroPairs": [list(p) for p in self.zero_pairs],
            "plusViolations": [list(v) for v in self.plus_violations],
            "minusViolations": [list(v) for v in self.minus_violations],
            "excisable": self.excisable,
            "ok": self.ok,
        }


def validate_elementary_proof(
    mc: MarkedComplex, mat: IncidenceMatrix, group=None
) -> ValidationReport:
    """Check the labeled complex against the matrix: the mandated +1 and
    -1 cells, and (when a group is given) excisability of the marked open
    face.  The unique (1,1) pair is the complex's own invariant.

    A complex with closing signs (`closing_signs`) excises its marked face
    over every group without a Smith normal form: its signed boundary rows
    sum to zero, so the marked row is an integer combination of the
    others.  Any other complex is decided by `excision.can_excise`."""
    K, lab = mc.complex, mc.labeling
    if lab.max_point() > mat.m or lab.max_line() > mat.n:
        raise ValueError("labels exceed matrix dimensions")
    report = ValidationReport(zero_pairs=[mc.zero_pair()])
    for kind, i, j, p, l, sign in mandated_cells(mc):
        if mat.entry(p, l) != sign:
            violations = report.plus_violations if sign == 1 else report.minus_violations
            violations.append((kind, i, j, p, l))
    if group is not None:
        from .excision import can_excise

        report.excisable = closing_signs(K) is not None or can_excise(K, mc.marked, group)
    return report


def generate_theorem(mc: MarkedComplex) -> IncidenceMatrix:
    """The matrix forced by a bijectively labeled marked complex: +1 on
    incident pairs, -1 on same-face non-incident pairs, 0 elsewhere."""
    K, lab = mc.complex, mc.labeling
    if not lab.is_bijective():
        raise NotBijective("point and line labelings must both be bijections")
    grid = [[0] * (len(K.faces) + len(K.edges)) for _ in range(K.vertex_count + len(K.edges))]
    for _, _, _, p, l, sign in mandated_cells(mc):
        if grid[p - 1][l - 1] == -sign:
            raise LabelConflict((p, l))
        grid[p - 1][l - 1] = sign
    return IncidenceMatrix(grid)


# -- octahedral subdivision -----------------------------------------------


def octahedral_subdivide(mc: MarkedComplex) -> MarkedComplex:
    """Replace every non-marked face by a 13-triangle patch (an
    octahedron missing its top face, with the three bottom-edge triangles
    split in three), keeping the marked face and its edges whole.

    Each patch adds an interior copy of each corner, and every non-marked
    edge gets two interior subdivision points; labels extend so that
    every new face repeats its original face's label pattern, which
    preserves the defining properties of the proof against the same
    matrix and turns the complex into a genuine simplicial one.
    """
    K, lab = mc.complex, mc.labeling
    for f in range(len(K.faces)):
        if len(set(K.face_vertices(f))) != 3:
            raise DegenerateFace(f)

    marked_edges = set(K.face_edges(mc.marked))
    vertices: list[int] = list(range(K.vertex_count))
    p_vertex: list[int] = list(lab.p_vertex)
    edges: list[tuple[int, int]] = []
    p_edge: list[int] = []
    l_edge: list[int] = []
    faces: list[tuple[tuple[int, int], ...]] = []
    l_face: list[int] = []

    def new_vertex(p: int) -> int:
        vertices.append(len(vertices))
        p_vertex.append(p)
        return len(vertices) - 1

    def new_edge(t: int, h: int, p: int, l: int) -> int:
        edges.append((t, h))
        p_edge.append(p)
        l_edge.append(l)
        return len(edges) - 1

    # kept or split originals; split edges map to (s1, s2, 3 sub-edges)
    kept: dict[int, int] = {}
    split: dict[int, tuple] = {}
    for e, (t, h) in enumerate(K.edges):
        if e in marked_edges:
            kept[e] = new_edge(t, h, lab.p_edge[e], lab.l_edge[e])
        else:
            s1 = new_vertex(lab.p_vertex[h])  # subdivision point near the tail
            s2 = new_vertex(lab.p_vertex[t])  # and near the head
            pe, le = lab.p_edge[e], lab.l_edge[e]
            subs = (
                new_edge(t, s1, pe, le),
                new_edge(s1, s2, pe, le),
                new_edge(s2, h, pe, le),
            )
            split[e] = (s1, s2, subs)

    def fwd(e: int, d: int):
        """Chain of (new edge, dir) and vertex stations along original e
        in direction d."""
        t, h = K.edges[e]
        if e in kept:
            seq = [(kept[e], 1)]
            stations = [t, h]
        else:
            s1, s2, subs = split[e]
            seq = [(s, 1) for s in subs]
            stations = [t, s1, s2, h]
        if d == -1:
            seq = [(s, -dd) for s, dd in reversed(seq)]
            stations = list(reversed(stations))
        return seq, stations

    new_marked = None
    for f in range(len(K.faces)):
        if f == mc.marked:
            new_marked = len(faces)
            faces.append(tuple((kept[e], d) for e, d in K.faces[f]))
            l_face.append(lab.l_face[f])
            continue
        walk = K.faces[f]
        corners = [K.de_tail(de) for de in walk]  # a, b, c
        corner_edge = {  # original face edge between each corner pair
            frozenset((corners[k], corners[(k + 1) % 3])): walk[k][0]
            for k in range(3)
        }
        copies = {v: new_vertex(lab.p_vertex[v]) for v in corners}
        lk = lab.l_face[f]
        patch_edges: dict[tuple[int, int], tuple[int, int]] = {}

        def sp(u_orig: int, v_orig: int, u: int, v: int) -> tuple[int, int]:
            """Directed patch edge u -> v, labeled after the original face
            edge between the u-type and v-type corners; created once."""
            if (u, v) in patch_edges:
                return patch_edges[(u, v)]
            if (v, u) in patch_edges:
                e, d = patch_edges[(v, u)]
                return (e, -d)
            e = corner_edge[frozenset((u_orig, v_orig))]
            de = (new_edge(u, v, lab.p_edge[e], lab.l_edge[e]), 1)
            patch_edges[(u, v)] = de
            return de

        # strips along each original side, fanning to the opposite copy
        for k in range(3):
            e, d = walk[k]
            u, w = corners[k], corners[(k + 1) % 3]
            opp_orig = corners[(k + 2) % 3]
            opp = copies[opp_orig]
            seq, stations = fwd(e, d)
            for idx, sub in enumerate(seq):
                x_orig, y_orig = (u, w) if idx % 2 == 0 else (w, u)
                x, y = stations[idx], stations[idx + 1]
                faces.append((sub, sp(y_orig, opp_orig, y, opp), sp(opp_orig, x_orig, opp, x)))
                l_face.append(lk)
        # corner faces and the central copy of the original face
        a, b, c = corners
        A, B, C = copies[a], copies[b], copies[c]
        inner_ab = sp(a, b, A, B)
        inner_bc = sp(b, c, B, C)
        inner_ca = sp(c, a, C, A)
        for tri in (
            (sp(a, b, a, B), inner_bc, sp(c, a, C, a)),
            (sp(b, c, b, C), inner_ca, sp(a, b, A, b)),
            (sp(c, a, c, A), inner_ab, sp(b, c, B, c)),
            (inner_ab, inner_bc, inner_ca),
        ):
            faces.append(tri)
            l_face.append(lk)

    new_K = DeltaComplex(len(vertices), tuple(edges), tuple(faces), simplicial=True)
    new_lab = Labeling(tuple(p_vertex), tuple(p_edge), tuple(l_face), tuple(l_edge))
    return MarkedComplex(new_K, new_lab, new_marked)
