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
and subtrees that a collineation fixing the values chosen above maps onto
an earlier subtree (Crawford, Ginsberg, Luks & Roy, KR 1996); the latter
applies at every branch point until the elements those values fix hold a
quadrangle, so the counterexample found is still the first one in that
order.  SearchStats counts the values tried at branch points
(nodesExpanded) and the values forced because a domain narrowed to one
(propagationsForced).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .fields import UnsupportedField, field  # UnsupportedField is re-exported
from .plane import Configuration, all_points, check_sizes, dot, incident
from .ternary import IncidenceMatrix


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
    check_sizes(mat, config)
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


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=4096)
def _extended_closure(q: int, closure: tuple[int, int], side: int, x: int):
    """The closure (points, lines) over the plane of order q with value x
    added on the given side, or None when it holds a quadrangle; see
    _Searcher.  Memoised, since a search meets the same few closures at
    many branch points."""
    if closure[side] >> x & 1:
        return closure
    on = _plane_tables(q).on
    sets = list(closure)
    new = [(side, x)]
    while new:
        s, v = new.pop()
        if not sets[s] >> v & 1:
            new.extend((1 - s, (on[v] & on[w]).bit_length() - 1) for w in _bits(sets[s]))
            sets[s] |= 1 << v
            # a line and a point off it is the largest side without a
            # quadrangle, and dually
            if sets[s].bit_count() > q + 2:
                return None
        if not new:  # fill each element incident with three of the other side
            new = [
                (1 - t, w)
                for t in (POINT, LINE)
                for c in _bits(sets[t])
                if (on[c] & sets[1 - t]).bit_count() > 2
                for w in _bits(on[c] & ~sets[1 - t])
            ]
    points = sets[POINT]
    k = points.bit_count()
    # closed under joins: a line holding all points but one is in it
    if k > 3 and all((on[c] & points).bit_count() < k - 1 for c in _bits(sets[LINE])):
        return None
    return tuple(sets)


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
    non-incidence, so PGL(3, q) maps solutions to solutions.  At a branch
    point, let S be the values chosen at the branch points above it on
    the current path and G the group fixing each of them.  The closure T
    of S is a pair of bitmasks (points, lines) of elements that G fixes:
    it adds the join of every two points and the meet of every two lines,
    every point of a line holding three of its points, and every line
    through a point on three of its lines, until nothing changes.  (The
    stabilizer of a line induces PGL(2, q) on it, which is sharply
    3-transitive, so G fixes each point of such a line.)  Once T holds a
    quadrangle G is trivial, and the closure is None: this branch point
    and every one below it on the path scan their whole domain.  (Four
    lines, no three concurrent, meet in a quadrangle, so the points
    tell.)  T is closed under joins, so it holds a quadrangle exactly when
    it has four points and no line of T holds all of them but one; a side
    with more than q + 2 elements holds one.  Otherwise T is, up to
    duality, one of:
      - at most a triangle: empty, a point or a line, a flag or an
        antiflag, two points and their join or two lines and their meet,
        one of those with a line through one of the points (or a point on
        one of the lines), or a triangle;
      - every point of a line l, a point P off l and every line through P;
        G is the group of homologies with centre P and axis l, of order
        q - 1;
      - every point of a line l with none, one or all of the lines through
        one point A of l; G has order q^2(q - 1), q(q - 1) or q.
    For each of these the orbits of G on one side are the cells: each
    element of T on that side by itself, and the other values split by
    incidence with each element of T on the other side.  (G keeps
    equality and incidence, so an orbit never spans two cells; that no
    cell holds two orbits is checked against the whole group for q <= 4
    in the tests.)  The branch point scans the lowest value of each cell
    inside its domain.  With nothing chosen that is one value; after one
    value v it is at most two, {v} and the rest on v's side or the values
    on v and the rest on the other.

    The lowest solution in the search order survives.  Were its value x
    at some branch point not the lowest of its cell inside the domain,
    the lowest y < x would lie in the same orbit of G, and some g in G
    with g(x) = y maps the solution to one with the same values at the
    branch points above, the same values at every variable narrowing
    fixed (those are the only values the branch values above allow) and
    y here: a lower solution.  So every verdict and every counterexample
    is that of the unbroken search.
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

    def _orbit_representatives(self, closure, side: int, domain: int) -> int:
        """The lowest value in the domain of each cell of the closure on
        this side, or the whole domain when the closure is None; see the
        class docstring."""
        if closure is None:
            return domain
        on = self.tables.on
        same = closure[side]
        cells = [domain & ~same]
        for c in _bits(closure[1 - side]):
            cells = [part for cell in cells for part in (cell & on[c], cell & ~on[c]) if part]
        reps = domain & same
        for cell in cells:
            reps |= cell & -cell
        return reps

    def run(self) -> Configuration | None:
        return self._solve(0, (0, 0))  # nothing chosen: the empty closure

    def _solve(self, pos: int, closure) -> Configuration | None:
        """The first solution below this point, if any; closure is that of
        the values chosen at the branch points above, or None."""
        while pos < len(self.order):
            side, x = self.order[pos]
            doms = self.dom[side]
            domain = doms[x]
            if not domain & (domain - 1):  # one value: already fixed
                pos += 1
                continue
            domain = self._orbit_representatives(closure, side, domain)
            while domain:
                bit = domain & -domain  # lowest index first
                domain ^= bit
                self.stats.nodes_expanded += 1
                if self.stats.nodes_expanded > self.budget:
                    raise _Budget
                trail = [(doms, x, doms[x])]
                doms[x] = bit
                if self._narrow(side, x, trail):
                    below = None if closure is None else _extended_closure(
                        self.q, closure, side, bit.bit_length() - 1
                    )
                    found = self._solve(pos + 1, below)
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
    F = field(q)  # rejects an unsupported order
    stats = SearchStats()
    try:
        counterexample = None
        if mat.entry(1, 1) != 1:  # a +1 conclusion can never be violated
            counterexample = _Searcher(mat, q, True, stats, node_budget).run()
        if counterexample is not None:
            if not verify_configuration(mat, counterexample) or incident(
                F, counterexample.points[0], counterexample.lines[0]
            ):
                raise AssertionError("the search returned no counterexample")
            return Verdict("counterexample", counterexample, stats)
        witness = _Searcher(mat, q, False, stats, node_budget).run()
        if witness is None:
            return Verdict("vacuous", None, stats)
        return Verdict("true", None, stats)
    except _Budget:
        return Verdict("resource_exceeded", None, stats)
