"""Decide incidence theorems over a finite projective plane by complete
backtracking search, and verify explicit configurations.

A theorem "every configuration with this constraint matrix puts point 1
on line 1" is checked by two searches: first for a configuration that
satisfies the matrix and violates the conclusion (a counterexample),
then — if none exists — for any satisfying configuration at all (none
means the theorem is vacuous).  Search is exhaustive within the node
budget and deterministic: variables follow a fixed most-constrained-first
order, and each holds a bitmask domain over the canonical point list that
forward checking narrows (Haralick & Elliott, AIJ 1980) and that is
scanned lowest index first.  Pruning drops subtrees without solutions
and, at the first two branch points, subtrees that a collineation maps
onto an earlier subtree (Crawford, Ginsberg, Luks & Roy, KR 1996), so
the counterexample found is still the first one in that order.
SearchStats counts the values tried at branch points (nodesExpanded) and
the values forced because a domain narrowed to one (propagationsForced).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .fields import SUPPORTED_ORDERS, field
from .plane import (
    DEFAULT_CHART,
    Configuration,
    DimensionMismatch,
    all_points,
    dot,
    incident,
    join,
    meet,
    point_at_ratio,
)
from .ternary import IncidenceMatrix


class UnsupportedField(ValueError):
    pass


class CochainViolatesF(ValueError):
    """A non-marked face's multiplicative edge relation does not hold."""


class PlacementFailed(ValueError):
    """The plane is structurally too small to host the vertex points."""


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    propagations_forced: int = 0

    def to_json_obj(self) -> dict:
        return {
            "nodesExpanded": self.nodes_expanded,
            "propagationsForced": self.propagations_forced,
        }


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "true" | "counterexample" | "vacuous" | "resource_exceeded"
    counterexample: Configuration | None = None
    stats: SearchStats = dc_field(default_factory=SearchStats)

    def to_json_obj(self) -> dict:
        obj = {"outcome": self.outcome, "stats": self.stats.to_json_obj()}
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample.to_json_obj()
        return obj


def verify_configuration(mat: IncidenceMatrix, config: Configuration) -> bool:
    """True iff every +1 cell is an incidence and every -1 cell is not."""
    if len(config.points) != mat.m or len(config.lines) != mat.n:
        raise DimensionMismatch(
            f"matrix {mat.m}x{mat.n} vs {len(config.points)} points, "
            f"{len(config.lines)} lines"
        )
    F = field(config.q)
    for i in range(mat.m):
        for j in range(mat.n):
            v = mat.rows()[i][j]
            if v == 0:
                continue
            hit = incident(F, config.points[i], config.lines[j])
            if hit != (v == 1):
                return False
    return True


class _Budget(Exception):
    pass


class _PlaneTables:
    """Per-order tables: the canonical point list, which also indexes the
    lines, and for each index the bitmask of the indices incident with it
    (the rows are symmetric, so one list serves points and lines)."""

    def __init__(self, q: int):
        F = field(q)
        self.universe = all_points(F)
        self.full = (1 << len(self.universe)) - 1
        self.on = [
            sum(1 << i for i, l in enumerate(self.universe) if dot(F, p, l) == 0)
            for p in self.universe
        ]


@lru_cache(maxsize=None)
def _plane_tables(q: int) -> _PlaneTables:
    return _PlaneTables(q)


POINT, LINE = 0, 1


class _Searcher:
    """One backtracking search with forward checking over point and line
    variables.

    A variable is a pair (side, index) with side POINT or LINE; the plane
    is self-dual, so both sides share one code path and each side's
    constraints read the other side's values.  Each variable holds a
    bitmask domain over the indices of the canonical point list, and a
    variable is assigned exactly when its domain has one value.  Fixing a
    value narrows every neighbour's domain to the values that agree with
    it, and a neighbour left with one value is fixed in turn; an empty
    domain cuts the branch.  forbid_conclusion adds the requirement that
    point 0 misses line 0 (the counterexample phase) as one more -1 cell.

    Symmetry breaking.  Every constraint is an incidence or a
    non-incidence, so PGL(3, q) maps solutions to solutions, and a branch
    point need only scan the lowest value of each orbit, inside its
    domain, of the group fixing the values already assigned.  At the
    first branch point (pos 0) nothing is assigned and the group is
    transitive on points and on lines: one value.  At the second (pos 1)
    only the first variable holds a value v; one value cannot force
    another, because narrowing leaves q + 1 or q^2 values, so the domain
    is full or v's +1 or -1 mask.  The stabilizer of v has two orbits on
    each side: {v} and the rest on v's own side, the values incident with
    v and the rest on the other; the domain is a union of them, so at
    most two values.  The lowest solution in the search order survives:
    were its value at either branch point not the lowest of its orbit, a
    collineation fixing the earlier value would map it to a solution
    that is lower still.  So every verdict and every counterexample is
    that of the unbroken search.
    """

    def __init__(self, mat, q, forbid_conclusion, stats, node_budget):
        self.tables = _plane_tables(q)
        self.q = q
        self.stats = stats
        self.budget = node_budget
        grid = mat.rows()
        m, n = mat.m, mat.n
        self.cells = (
            [[(j, grid[i][j]) for j in range(n) if grid[i][j]] for i in range(m)],
            [[(i, grid[i][j]) for i in range(m) if grid[i][j]] for j in range(n)],
        )
        self.order = sorted(
            ((side, x) for side in (POINT, LINE) for x in range(len(self.cells[side]))),
            key=lambda v: (-len(self.cells[v[0]][v[1]]), v),
        )
        if forbid_conclusion:  # added after the order, which it must not change
            self.cells[POINT][0].append((0, -1))
            self.cells[LINE][0].append((0, -1))
        full = self.tables.full
        self.dom = ([full] * m, [full] * n)

    def _narrow(self, side: int, x: int, trail: list) -> bool:
        """Propagate the one value of variable x: AND each neighbour's
        domain with its incidence mask (+1 cell) or the complement (-1
        cell), fixing neighbours left with one value.  Every old domain
        goes on the trail; False when a domain empties."""
        on = self.tables.on
        fixed = [(side, x)]
        while fixed:
            side, x = fixed.pop()
            mask = on[self.dom[side][x].bit_length() - 1]
            doms = self.dom[1 - side]
            for y, sign in self.cells[side][x]:
                old = doms[y]
                new = old & mask if sign == 1 else old & ~mask
                if new == old:
                    continue
                if not new:
                    return False
                trail.append((doms, y, old))
                doms[y] = new
                if not new & (new - 1):
                    self.stats.propagations_forced += 1
                    fixed.append((1 - side, y))
        return True

    def _orbit_representatives(self, pos: int, side: int, domain: int) -> int:
        """The lowest value of each orbit of the group fixing the values
        assigned so far, inside the domain of the first (pos 0) or second
        (pos 1) branch point; see the class docstring."""
        if pos == 0:
            return domain & -domain
        first_side, first_x = self.order[0]
        v = self.dom[first_side][first_x].bit_length() - 1
        orbit = 1 << v if side == first_side else self.tables.on[v]
        inside, outside = domain & orbit, domain & ~orbit
        return (inside & -inside) | (outside & -outside)

    def run(self) -> Configuration | None:
        return self._solve(0)

    def _solve(self, pos: int) -> Configuration | None:
        while pos < len(self.order):
            side, x = self.order[pos]
            doms = self.dom[side]
            domain = doms[x]
            if not domain & (domain - 1):  # one value: already fixed
                pos += 1
                continue
            if pos < 2:
                domain = self._orbit_representatives(pos, side, domain)
            while domain:
                bit = domain & -domain  # lowest index first
                domain ^= bit
                self.stats.nodes_expanded += 1
                if self.stats.nodes_expanded > self.budget:
                    raise _Budget
                trail = [(doms, x, doms[x])]
                doms[x] = bit
                if self._narrow(side, x, trail):
                    found = self._solve(pos + 1)
                    if found is not None:
                        return found
                for d, y, old in reversed(trail):
                    d[y] = old
            return None
        uni = self.tables.universe
        points, lines = (
            tuple(uni[d.bit_length() - 1] for d in doms) for doms in self.dom
        )
        return Configuration(self.q, points, lines)


def check_theorem(mat: IncidenceMatrix, q: int, node_budget: int = 10**8) -> Verdict:
    """Complete search verdict for the theorem with this matrix over the
    plane of order q."""
    if q not in SUPPORTED_ORDERS:
        raise UnsupportedField(f"no projective plane of order {q} is supported")
    stats = SearchStats()
    try:
        counterexample = None
        if mat.entry(1, 1) != 1:  # a +1 conclusion can never be violated
            counterexample = _Searcher(mat, q, True, stats, node_budget).run()
        if counterexample is not None:
            assert verify_configuration(mat, counterexample)
            assert not incident(field(q), counterexample.points[0], counterexample.lines[0])
            return Verdict("counterexample", counterexample, stats)
        witness = _Searcher(mat, q, False, stats, node_budget).run()
        if witness is None:
            return Verdict("vacuous", None, stats)
        return Verdict("true", None, stats)
    except _Budget:
        return Verdict("resource_exceeded", None, stats)


# -- realizing counterexamples from multiplicative edge labelings ----------


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
    from .surfaces import generate_theorem

    if q not in SUPPORTED_ORDERS:
        raise UnsupportedField(f"no projective plane of order {q} is supported")
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
