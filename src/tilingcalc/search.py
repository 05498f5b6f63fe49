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
an earlier subtree (Crawford, Ginsberg, Luks & Roy, KR 1996), so the
counterexample found is still the first one in that order.  Where the
variables still open fall into parts that share no matrix cell, each
part is solved alone, so the search explores their sum instead of their
product (Bayardo & Pehoushek, AAAI 2000).  The projective collineations
cut at every branch point until the elements those values fix hold a
quadrangle; past it, over a field of prime-power but not prime order,
the field automorphisms still cut while the values lie in one subplane
over a proper subfield.  SearchStats counts the values tried at branch
points (nodesExpanded) and the values forced because a domain narrowed
to one (propagationsForced).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from itertools import combinations, islice
from math import lcm

from .fields import UnsupportedField, field  # UnsupportedField is re-exported
from .plane import Configuration, all_points, check_sizes, incident, normalize
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
    """True iff every +1 cell is an incidence and every -1 cell is not.
    Each cell's dot product is read from the field's own addition and
    multiplication tables, so the check shares nothing with the search's
    plane tables."""
    check_sizes(mat, config)
    F = field(config.q)
    add, mul = F._add, F._mul
    for (a, b, c), row in zip(config.points, mat.rows()):
        mul_a, mul_b, mul_c = mul[a], mul[b], mul[c]
        for (x, y, z), v in zip(config.lines, row):
            if v and (add[add[mul_a[x]][mul_b[y]]][mul_c[z]] == 0) != (v == 1):
                return False
    return True


class _Budget(Exception):
    pass


class _PlaneTables:
    """Per-order tables: the canonical point list, which also indexes the
    lines; for each index the bitmask of the indices incident with it
    (the rows are symmetric, so one list serves points and lines) and its
    complement; and the index permutation of the Frobenius map x -> x^p
    applied to every coordinate, which fixes the standard frame."""

    def __init__(self, q: int):
        F = field(q)
        add, mul = F.add, F.mul
        self.universe = all_points(F)
        scaled = {  # every nonzero triple to the index of its point
            (mul(s, a), mul(s, b), mul(s, c)): i
            for i, (a, b, c) in enumerate(self.universe)
            for s in range(1, q)
        }
        self.full = (1 << len(self.universe)) - 1
        self.on = []
        for a, b, c in self.universe:  # the line ax + by + cz = 0 holds ...
            if a:  # ... (-b - tc, 1, t) for each t, and (-c, 0, 1)
                u, v = (F.sub(0, b), 1, 0), (F.sub(0, c), 0, 1)
            elif b:  # ... (1, -tc, t) for each t, and (0, -c, 1)
                u, v = (1, 0, 0), (0, F.sub(0, c), 1)
            else:  # ... (1, t, 0) for each t, and (0, 1, 0)
                u, v = (1, 0, 0), (0, 1, 0)
            mask = 1 << scaled[v]
            for t in range(q):
                w = (add(u[0], mul(t, v[0])), add(u[1], mul(t, v[1])), add(u[2], mul(t, v[2])))
                mask |= 1 << scaled[w]
            self.on.append(mask)
        self.off = [self.full & ~mask for mask in self.on]
        power = [reduce(mul, [x] * F.p) for x in range(q)]  # keeps 0 and 1
        self.frobenius = [scaled[tuple(power[v] for v in p)] for p in self.universe]


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


def _frame(q: int, values) -> tuple[int, int, int, int] | None:
    """Four points, no three collinear, of the closure of the values
    (side, index) under joins and meets alone, or None when that closure
    holds none; the closure is built only until it holds one."""
    on = _plane_tables(q).on
    sets = [0, 0]
    new = list(values)
    while new:
        s, v = new.pop()
        if sets[s] >> v & 1:
            continue
        new.extend((1 - s, (on[v] & on[w]).bit_length() - 1) for w in _bits(sets[s]))
        if s == POINT:
            for three in combinations(_bits(sets[POINT]), 3):
                four = (*three, v)
                if not any(on[a] & on[b] & on[c] for a, b, c in combinations(four, 3)):
                    return four
        sets[s] |= 1 << v
    return None


@lru_cache(maxsize=64)
def _conjugate_frobenius(q: int, frame) -> tuple[list[int], list[int]]:
    """g f g^-1 as index permutations of the points and of the lines, for
    the Frobenius map f and the collineation g taking the standard frame
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1) to frame."""
    F = field(q)
    tables = _plane_tables(q)
    uni, on = tables.universe, tables.on
    index = {p: i for i, p in enumerate(uni)}

    def adjugate(A):  # proportional to the inverse
        return [
            [
                F.sub(
                    F.mul(A[(j + 1) % 3][(i + 1) % 3], A[(j + 2) % 3][(i + 2) % 3]),
                    F.mul(A[(j + 1) % 3][(i + 2) % 3], A[(j + 2) % 3][(i + 1) % 3]),
                )
                for j in range(3)
            ]
            for i in range(3)
        ]

    def apply(A, p):
        return [F.add(F.add(F.mul(r[0], p[0]), F.mul(r[1], p[1])), F.mul(r[2], p[2])) for r in A]

    *basis, unit = (uni[i] for i in frame)
    M = [list(row) for row in zip(*basis)]  # columns: the first three points
    scale = apply(adjugate(M), unit)  # g = M diag(scale) takes (1, 1, 1) to unit
    g = [[F.mul(x, s) for x, s in zip(row, scale)] for row in M]
    g_inv = adjugate(g)
    to_frame = [index[normalize(F, apply(g, p))] for p in uni]
    from_frame = [index[normalize(F, apply(g_inv, p))] for p in uni]
    points = [to_frame[tables.frobenius[i]] for i in from_frame]
    first_two = [list(islice(_bits(on[c]), 2)) for c in range(len(uni))]
    lines = [(on[points[a]] & on[points[b]]).bit_length() - 1 for a, b in first_two]
    return points, lines


class _ProjectiveCells:
    """The cells before the first quadrangle: chosen holds the values
    chosen so far (past it they pick the frame), closure their closure T
    and reps the lowest element of each cell per side; see _Searcher."""

    __slots__ = ("q", "closure", "chosen", "reps")

    def __init__(self, q: int, closure: tuple[int, int], chosen: tuple):
        self.q, self.closure, self.chosen = q, closure, chosen
        self.reps = _closure_reps(q, closure)

    def extended(self, side: int, x: int):
        """The cells once value x is chosen on this side."""
        chosen = self.chosen + ((side, x),)
        below = _extended_closure(self.q, self.closure, side, x)
        if below is None:
            return _frobenius_cells(self.q, chosen)
        return _ProjectiveCells(self.q, below, chosen)


@lru_cache(maxsize=4096)
def _closure_reps(q: int, closure: tuple[int, int]) -> tuple[int, int]:
    """Per side, each element of the closure and the lowest value of each
    cell, the values with the same incidences on the closure's other side."""
    tables = _plane_tables(q)
    out = []
    for side in (POINT, LINE):
        lowest = {}  # each cell by its incidences, to its lowest value
        for x in _bits(tables.full & ~closure[side]):
            lowest.setdefault(tables.on[x] & closure[1 - side], x)
        out.append(reduce(int.__or__, (1 << x for x in lowest.values()), closure[side]))
    return tuple(out)


class _FrobeniusCells:
    """The cells past the first quadrangle for q = p^k with k > 1: the
    orbits, on each side, of the group generated by h^d for h = g f g^-1
    (see _conjugate_frobenius), where g takes the standard frame to frame
    and the values chosen so far lie in g PG(2, p^d); see _Searcher.
    reps holds the lowest element of each orbit."""

    __slots__ = ("q", "frame", "d", "h", "reps")

    def __init__(self, q: int, frame, d: int):
        self.q, self.frame, self.d = q, frame, d
        self.h = _conjugate_frobenius(q, frame)
        self.reps = []
        for h in self.h:
            step = h
            for _ in range(d - 1):
                step = [h[y] for y in step]
            reps = 0
            for x in range(len(h)):  # the lowest of its orbit: back at x before going lower
                y = step[x]
                while y > x:
                    y = step[y]
                reps |= (y == x) << x
            self.reps.append(reps)

    def extended(self, side: int, x: int):
        """The cells once value x is chosen on this side, or None when the
        group fixing the chosen values is trivial."""
        h, e, y = self.h[side], 1, self.h[side][x]
        while y != x:  # x lies in g PG(2, p^e) for its orbit length e under h
            e, y = e + 1, h[y]
        d = lcm(self.d, e)  # h^d fixes x exactly when e divides d
        return self if d == self.d else _frobenius_state(self.q, self.frame, d)


@lru_cache(maxsize=256)
def _frobenius_state(q: int, frame, d: int) -> _FrobeniusCells | None:
    """The cells for values in the subplane over GF(p^d) that the frame
    spans, or None when that subfield is GF(q) and the group trivial."""
    return None if q == field(q).p ** d else _FrobeniusCells(q, frame, d)


@lru_cache(maxsize=256)
def _frobenius_cells(q: int, chosen: tuple) -> _FrobeniusCells | None:
    """The cells below the branch point whose chosen values first close to
    a quadrangle, or None when q is prime, the join-and-meet closure of
    chosen holds no frame or the group fixing chosen is trivial."""
    frame = None if q == field(q).p else _frame(q, chosen)
    cells = frame and _frobenius_state(q, frame, 1)
    for side, x in chosen:
        if cells is None:
            break
        cells = cells.extended(side, x)
    return cells


class _Searcher:
    """One backtracking search with forward checking over point and line
    variables.

    Variables have one flat index: points 0..m-1 and lines m..m+n-1.  The
    plane is self-dual, so both sides share one code path and each side's
    constraints read the other side's values.  Each variable holds a
    bitmask domain over the indices of the canonical point list, and a
    variable is assigned exactly when its domain has one value.  Fixing a
    value narrows every neighbour's domain to the values that agree with
    it, and a neighbour left with one value is fixed in turn; an empty
    domain cuts the branch.  The constraint table (see _constraints)
    holds, per variable, the bitmask of its neighbours and of those it
    shares a +1 cell with, so narrowing is one AND per neighbour, with
    the on mask of the value for a +1 cell and the off mask for a -1 cell.
    The table is built once per matrix and serves both phases; the
    counterexample phase adds that point 0 misses line 0 as one more -1
    cell, two OR-ed bits.  Narrowing visits only the variables not yet
    propagated (free): a propagated variable's one value was ANDed into
    every neighbour that was free then, so checking it cannot prune (the
    idea of watched literals in Minion; Gent, Jefferson & Miguel, CP 2006).

    Symmetry breaking.  Every constraint is an incidence or a
    non-incidence, so PΓL(3, q) maps solutions to solutions.  At a branch
    point, let S be the values chosen at the branch points above it on
    the current path and G the group of collineations in PGL(3, q) fixing
    each of them.  The closure T of S is a pair of bitmasks (points,
    lines) of elements that G fixes:
    it adds the join of every two points and the meet of every two lines,
    every point of a line holding three of its points, and every line
    through a point on three of its lines, until nothing changes.  (The
    stabilizer of a line induces PGL(2, q) on it, which is sharply
    3-transitive, so G fixes each point of such a line.)  Once T holds a
    quadrangle G is trivial, and the Frobenius cells below take over.
    (Four lines, no three concurrent, meet in a quadrangle, so the points
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
    in the tests.)  _ProjectiveCells holds them, with the lowest
    element of each cell (reps) memoised per closure.

    Frobenius cells.  Past the quadrangle, for q = p^k with k > 1, the
    group G' fixing S in PΓL(3, q) = PGL(3, q) x| Gal(GF(q)/GF(p))
    (Hirschfeld 1998) need not be trivial; the Galois group is generated
    by the Frobenius map f: x -> x^p on every coordinate.  The frame is
    taken from the closure J of S under joins and meets alone, not from
    T: G' fixes J, since it keeps joins and meets, but not T's filled
    lines and pencils, since f fixes (1, 0, 0), (0, 1, 0) and (1, 1, 0)
    but moves each point (1, t, 0) of their line with t outside GF(p).
    (Were J without a quadrangle, its points would lie on one line and
    one more point, and filling keeps that, so J holds a frame once T
    holds a quadrangle.)  Let g take the standard frame (1, 0, 0),
    (0, 1, 0), (0, 0, 1), (1, 1, 1) to J's frame.  PGL(3, q) is sharply
    transitive on ordered frames and f fixes the standard one, so the
    elements fixing J's frame are the g f^e g^-1, and such an element
    fixes a value v exactly when f^e fixes the normalized coordinates of
    g^-1 v.  So G' = <g f^d g^-1> for the subfield K = GF(p^d) those
    coordinates generate over all of S: S lies in the subplane
    g PG(2, K), and G' fixes each element of it.  A value chosen inside
    the subplane keeps d; one outside it raises d to the least common
    multiple with its own degree, and at d = k G' is trivial and the
    cells None (at once when k is prime).  _FrobeniusCells holds the
    orbits of G' and their lowest elements (reps); the tests check them
    against all of PΓL(3, 4).

    One scan rule.  In both phases every domain at a branch point is a
    union of orbits of the group fixing S (G, then G'): domains start
    full, narrowing ANDs them with the elements incident, or not, with
    values fixed by the group (which shrinks as S grows), and an
    invariant domain of one value is a fixed value.  So the branch point
    scans its domain ANDed with reps, one value per orbit inside it, or
    the whole domain once the group is trivial.  With nothing chosen
    that is one value; after one value v it is at most two, {v} and the
    rest on v's side or the values on v and the rest on the other.

    The lowest solution in the search order survives.  Were its value x
    at some branch point not the lowest of its orbit, the lowest y < x
    of that orbit would lie in the domain too, and some g in the group
    with g(x) = y maps the solution to one with the same values at the
    branch points above, the same values at every variable narrowing
    fixed (those are the only values the branch values above allow) and
    y here: a lower solution.  So every verdict and every counterexample
    is that of the unbroken search.  The argument holds for any group of
    collineations that fixes S, one branch point at a time.

    Independent parts.  The part table (see _constraints) holds, per
    position of the order, the components of the constraint graph on the
    variables from that position on.  The current part, the variables a
    _solve call decides, is every variable or one such component, and a
    component at a later position lies inside one at an earlier one.  At
    a branch point every variable of the current part earlier in the
    order is fixed, so the components there that hold its free variables
    share no constraint through a free variable, and the solutions below
    are the product of each one's solutions.  Where there are two or
    more, _solve decides them one after another, each as the current
    part: in the branching order while the cut acts, since the first
    keeps the whole group and later ones start with less of it, and
    smallest first once the cut has ended, since a small part is the
    cheapest to refute.  An empty factor empties the product, so a
    failing part fails the branch point, and no part's values are
    retried for another part's failure: the search explores the sum of
    the parts, not their product.  In any interleaving of the parts'
    variables the lowest element of a product is the product of each
    factor's lowest, so the first solution is still that of the unbroken
    search.  A later part starts from the cells the earlier one ended
    with.  The group fixing those values lies inside the group at the
    split, so every domain, a union of orbits of the larger group, stays
    a union of orbits of the smaller, and the argument that the lowest
    solution survives holds inside each part as it does above.
    """

    def __init__(self, table, q, forbid_conclusion, stats, node_budget):
        self.tables = _plane_tables(q)
        self.q = q
        self.stats = stats
        self.budget = node_budget
        self.m, self.nbr, self.plus, self.order, self.parts = table
        if forbid_conclusion:  # after the order, which it must not change
            self.nbr = list(self.nbr)
            self.nbr[0] |= 1 << self.m
            self.nbr[self.m] |= 1
        self.dom = [self.tables.full] * len(self.nbr)
        self.free = (1 << len(self.nbr)) - 1
        self.part = self.free  # the variables the current _solve call decides
        self.cells = None  # the cells the last solved part ended with

    def _narrow(self, u: int) -> bool:
        """Propagate the one value of variable u: AND each free neighbour's
        domain with its mask for that value (see the class docstring),
        fixing neighbours left with one value, and drop each propagated
        variable from free.  False when a domain empties; the caller
        restores the domains and free it saved."""
        dom, nbr, plus = self.dom, self.nbr, self.plus
        on, off = self.tables.on, self.tables.off
        free, forced, fixed = self.free, 0, [u]
        while fixed:
            u = fixed.pop()
            free ^= 1 << u
            value = dom[u].bit_length() - 1
            on_u, off_u, plus_u = on[value], off[value], plus[u]
            rest = nbr[u] & free
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                old = dom[w]
                new = old & (on_u if plus_u & low else off_u)
                if new != old:
                    if not new:
                        self.stats.propagations_forced += forced
                        return False
                    dom[w] = new
                    if not new & (new - 1):
                        forced += 1
                        fixed.append(w)
        self.stats.propagations_forced += forced
        self.free = free
        return True

    def run(self) -> Configuration | None:
        """The first solution, or None."""
        if not self.satisfiable():
            return None
        uni, m = self.tables.universe, self.m
        values = [uni[d.bit_length() - 1] for d in self.dom]
        return Configuration(self.q, tuple(values[:m]), tuple(values[m:]))

    def satisfiable(self) -> bool:
        """Whether a solution exists; the domains then hold the first one."""
        return self._solve(0, _ProjectiveCells(self.q, (0, 0), ()))  # nothing chosen

    def _solve(self, pos: int, cells) -> bool:
        """Whether a solution of the current part lies below this point,
        leaving the first one in the domains and the cells it ended with
        in self.cells; cells are those of the values chosen at the branch
        points above, or None once the cut has ended."""
        dom, order, stats, part = self.dom, self.order, self.stats, self.part
        while pos < len(order):
            u = order[pos]
            domain = dom[u]
            if not domain & (domain - 1) or not part >> u & 1:  # fixed, or another part's
                pos += 1
                continue
            parts, open_ = self.parts[pos], part & self.free
            if parts is not None and open_ & ~parts[0]:  # open parts besides u's
                split = [c for c in parts if c & open_]
                if cells is None:  # no cut left for the first part to keep
                    split.sort(key=int.bit_count)
                for self.part in split:
                    solved = self._solve(pos, cells)
                    if not solved:  # the product of the parts' solutions is empty
                        break
                    cells = self.cells
                self.part = part
                return solved
            side = LINE if u >= self.m else POINT
            if cells is not None:  # one value per orbit; see the class docstring
                domain &= cells.reps[side]
            free = self.free
            while domain:
                bit = domain & -domain  # lowest index first
                domain ^= bit
                stats.nodes_expanded += 1
                if stats.nodes_expanded > self.budget:
                    raise _Budget
                saved = dom[:]
                dom[u] = bit
                if self._narrow(u):
                    below = cells and cells.extended(side, bit.bit_length() - 1)
                    if self._solve(pos + 1, below):
                        return True
                dom[:] = saved
                self.free = free
            return False
        self.cells = cells
        return True


def _constraints(mat: IncidenceMatrix):
    """The search's constraint table for mat: m, and per flat variable
    (points 0..m-1, lines m..m+n-1) the bitmask of its neighbours and of
    those it shares a +1 cell with, the branching order, most neighbours
    first and then by index, and the part table: per position of the
    order, the components of the constraint graph on the variables from
    that position on, with the conclusion cell as one more edge so that
    both phases share it: the one holding the variable at that position
    first, then in the order they are first reached, or None where there
    is one.  Built once per matrix and kept in its private slot _search."""
    if mat._search is not None:
        return mat._search
    rows = mat.rows()
    m = len(rows)
    size = m + len(rows[0])
    nbr, plus = [0] * size, [0] * size
    for i, row in enumerate(rows):
        for j, v in enumerate(row, m):
            if v:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
                if v == 1:
                    plus[i] |= 1 << j
                    plus[j] |= 1 << i
    order = sorted(range(size), key=lambda u: -nbr[u].bit_count())
    parts, components = [None] * size, []
    for pos in range(size - 1, -1, -1):  # add each variable, merging what it links
        u = order[pos]
        links = nbr[u] | (u == 0) << m | (u == m)
        merged, rest = 1 << u, []
        for c in components:
            if c & links:
                merged |= c
            else:
                rest.append(c)
        components = [merged, *rest]
        if rest:
            parts[pos] = tuple(components)
    table = m, nbr, plus, order, parts
    object.__setattr__(mat, "_search", table)
    return table


def check_theorem(mat: IncidenceMatrix, q: int, node_budget: int = 10**8) -> Verdict:
    """Complete search verdict for the theorem with this matrix over the
    plane of order q."""
    F = field(q)  # rejects an unsupported order
    stats = SearchStats()
    table = _constraints(mat)
    try:
        counterexample = None
        if mat.entry(1, 1) != 1:  # a +1 conclusion can never be violated
            counterexample = _Searcher(table, q, True, stats, node_budget).run()
        if counterexample is not None:
            if not verify_configuration(mat, counterexample) or incident(
                F, counterexample.points[0], counterexample.lines[0]
            ):
                raise AssertionError("the search returned no counterexample")
            return Verdict("counterexample", counterexample, stats)
        if not _Searcher(table, q, False, stats, node_budget).satisfiable():
            return Verdict("vacuous", None, stats)
        return Verdict("true", None, stats)
    except _Budget:
        return Verdict("resource_exceeded", None, stats)
