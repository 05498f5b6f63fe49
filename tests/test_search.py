import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tilingcalc
from tilingcalc.catalog import (
    axiom_matrix,
    fano_closure_matrix,
    hexagon_closure_matrix,
    hexagon_counterexample,
    hexagon_would_be_matrix,
    line_count_matrix,
    pappus_base_matrix,
    warmup_matrix,
)
from tilingcalc.complexes import (
    bijective_pappus_torus,
    desargues_tetrahedron,
    nine_gon_grope,
    non_grope_complex,
    one_line_complex,
)
from tilingcalc.fields import SUPPORTED_ORDERS, field, prime_power
from tilingcalc.plane import (
    Configuration,
    DimensionMismatch,
    all_points,
    dot,
    incident,
    join,
    normalize,
)
from tilingcalc import search
from tilingcalc.search import (
    LINE,
    POINT,
    UnsupportedField,
    _bits,
    _closure_reps,
    _extended_closure,
    _plane_tables,
    _ProjectiveCells,
    _Searcher,
    check_theorem,
    verify_configuration,
)
from tilingcalc.surfaces import generate_theorem
from tilingcalc.ternary import IncidenceMatrix


def naive_check(mat: IncidenceMatrix, q: int) -> str:
    """Independent oracle, with no propagation or ordering heuristics.

    It enumerates every assignment of the side with fewer elements.  Once
    that side is fixed, each element of the other side is constrained only
    by it, so the matrix is satisfiable iff every such element has a value
    in its own candidate set, and refutable iff in addition element 0 has
    a candidate missing fixed element 0.  Incidence is symmetric, so the
    same loop serves points and lines as the fixed side.
    """
    F = field(q)
    triples = all_points(F)  # every point, and every line
    on = [[incident(F, p, l) for l in triples] for p in triples]
    universe = range(len(triples))
    grid = mat.rows()
    if mat.m > mat.n:  # fix the lines instead: transpose
        grid = tuple(zip(*grid))
    satisfiable = False
    for fixed in itertools.product(universe, repeat=len(grid)):
        candidates = [
            [
                v for v in universe
                if all(row[b] == 0 or on[x][v] == (row[b] == 1) for x, row in zip(fixed, grid))
            ]
            for b in range(len(grid[0]))
        ]
        if all(candidates):
            satisfiable = True
            if any(not on[fixed[0]][v] for v in candidates[0]):
                return "counterexample"
    return "true" if satisfiable else "vacuous"


class TestVerifyConfiguration:
    def test_all_zero_matrix_accepts_anything(self):
        mat = IncidenceMatrix([[0, 0], [0, 0]])
        c = Configuration(3, ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)))
        assert verify_configuration(mat, c)

    def test_dimension_mismatch(self):
        mat = IncidenceMatrix([[0, 0], [0, 0]])
        c = Configuration(3, ((1, 0, 0),), ((0, 0, 1),))
        with pytest.raises(DimensionMismatch):
            verify_configuration(mat, c)

    def test_plus_one_violation_detected(self):
        mat = IncidenceMatrix([[1]])
        c = Configuration(2, ((1, 0, 0),), ((1, 0, 0),))
        assert not verify_configuration(mat, c)

    def test_hexagon_documented_counterexample(self):
        # the known refutation over order 3: six affine points, the two
        # carrier lines, and the six sides satisfy the matrix while the
        # conclusion incidence (vertex 1 on side 23) fails
        F = field(3)
        c = hexagon_counterexample()
        Q, R = c.points[6], c.points[7]
        S23, S56 = c.lines[0], c.lines[5]
        assert incident(F, Q, S56) and incident(F, R, S23)
        mat = hexagon_closure_matrix()
        assert verify_configuration(mat, c)
        assert not incident(F, c.points[0], c.lines[0])


class TestCheckTheoremGolden:
    def test_line_count_true_over_matching_order(self):
        assert check_theorem(line_count_matrix(2), 2).outcome == "true"

    @pytest.mark.parametrize("q", [3, 4])
    def test_line_count_fails_over_larger_order(self, q):
        v = check_theorem(line_count_matrix(2), q)
        assert v.outcome == "counterexample"
        assert verify_configuration(line_count_matrix(2), v.counterexample)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_warmup_true(self, q):
        assert check_theorem(warmup_matrix(), q).outcome == "true"

    def test_fano_counterexample_over_order_2(self):
        v = check_theorem(fano_closure_matrix(), 2)
        assert v.outcome == "counterexample"

    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_fano_true_over_odd_orders(self, q):
        assert check_theorem(fano_closure_matrix(), q).outcome == "true"

    def test_hexagon_counterexample_over_order_3(self):
        v = check_theorem(hexagon_closure_matrix(), 3)
        assert v.outcome == "counterexample"


class TestSoundnessAndStats:
    def test_counterexample_violates_conclusion(self):
        mat = line_count_matrix(2)
        v = check_theorem(mat, 3)
        c = v.counterexample
        assert verify_configuration(mat, c)
        assert not incident(field(3), c.points[0], c.lines[0])

    def test_stats_populated(self):
        v = check_theorem(warmup_matrix(), 2)
        assert v.stats.nodes_expanded > 0

    def test_verdict_json_shape(self):
        v = check_theorem(line_count_matrix(2), 3)
        obj = v.to_json_obj()
        assert obj["outcome"] == "counterexample"
        assert set(obj["stats"]) == {"nodesExpanded", "propagationsForced"}
        assert Configuration.from_json_obj(obj["counterexample"]) == v.counterexample

    def test_self_check_survives_optimize_flag(self):
        # python -O strips assert statements; the check of the search's own
        # counterexample must still raise there
        code = "\n".join([
            "from tilingcalc import search",
            "from tilingcalc.catalog import line_count_matrix",
            "from tilingcalc.plane import Configuration",
            "bad = Configuration(3, ((0, 0, 1),) * 3, ((0, 0, 1),) * 4)",
            "search._Searcher.run = lambda self: bad",
            "try:",
            "    search.check_theorem(line_count_matrix(2), 3)",
            "except AssertionError:",
            "    raise SystemExit(0)",
            "raise SystemExit(1)",
        ])
        src = str(Path(tilingcalc.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env)
        assert done.returncode == 0

    def test_unsupported_field(self):
        with pytest.raises(UnsupportedField):
            check_theorem(warmup_matrix(), 6)

    def test_resource_exceeded(self):
        # Desargues over order 9 takes far more than 100 nodes
        v = check_theorem(generate_theorem(desargues_tetrahedron()), 9, node_budget=100)
        assert v.outcome == "resource_exceeded"
        assert v.counterexample is None


def frobenius(F, triple):
    """Each coordinate raised to the power p, the characteristic, by
    repeated multiplication."""
    def power(x):
        y = 1
        for _ in range(F.p):
            y = F.mul(y, x)
        return y

    return tuple(map(power, triple))


class TestPlaneTables:
    @pytest.mark.parametrize("q", SUPPORTED_ORDERS)
    def test_masks_are_those_of_the_dot_product(self, q):
        # the tables list each line's q + 1 points; asking dot about every
        # point-line pair must give the same masks
        F = field(q)
        tables = _plane_tables(q)
        uni = tables.universe
        assert tables.on == [
            sum(1 << i for i, l in enumerate(uni) if dot(F, p, l) == 0) for p in uni
        ]
        assert tables.off == [tables.full & ~mask for mask in tables.on]
        assert [uni[i] for i in tables.frobenius] == [frobenius(F, p) for p in uni]


class TestVacuous:
    def test_contradictory_matrix_is_vacuous(self):
        # rows 1 and 2 both lie on the two distinct lines 2 and 3, so they
        # must coincide at the meet; rows 3 and 4 keep the lines distinct,
        # while the -1 cells of rows 1 and 2 separate them -- impossible
        mat = IncidenceMatrix(
            [[0, 1, 1, -1], [0, 1, 1, 1], [0, 1, -1, 0], [0, -1, 1, 0]]
        )
        v = check_theorem(mat, 2)
        assert v.outcome == "vacuous"

    def test_single_cell_contradiction(self):
        # smallest contradictory seed: three mutual points of two lines
        mat = IncidenceMatrix(
            [[1, 1], [1, 1], [1, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]]
        )
        assert naive_check(mat, 2) == check_theorem(mat, 2).outcome


class TestCompletenessOracle:
    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(2024)
        for q in (2, 3):
            for _ in range(50):
                m = rng.randint(1, 3)
                n = rng.randint(1, 3)
                rows = [
                    [rng.choice([-1, 0, 0, 1, 1]) for _ in range(n)] for _ in range(m)
                ]
                mat = IncidenceMatrix(rows)
                assert check_theorem(mat, q).outcome == naive_check(mat, q), (rows, q)


class TestDuality:
    def test_transposed_matrix_gives_the_dual_verdict(self):
        # the plane is self-dual: swapping points and lines maps models of
        # a matrix to models of its transpose and keeps the conclusion cell
        rng = random.Random(77)
        for _ in range(300):
            q = rng.choice([2, 3, 4, 5])
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.choice([-1, 0, 0, 1, 1]) for _ in range(n)] for _ in range(m)]
            mat = IncidenceMatrix(rows)
            dual = check_theorem(IncidenceMatrix(zip(*rows)), q)
            assert dual.outcome == check_theorem(mat, q).outcome, (rows, q)
            if dual.outcome == "counterexample":
                cex = dual.counterexample
                swapped = Configuration(q, cex.lines, cex.points)
                assert verify_configuration(mat, swapped), (rows, q)
                assert not incident(field(q), swapped.points[0], swapped.lines[0])


class TestSubfieldMonotonicity:
    @pytest.mark.parametrize("sub,ext", [(2, 4), (2, 8), (3, 9)])
    def test_true_over_extension_implies_true_over_subfield(self, sub, ext):
        rng = random.Random(100 * ext + sub)
        tested = 0
        while tested < 8:
            m = rng.randint(2, 3)
            n = rng.randint(2, 3)
            rows = [
                [rng.choice([-1, 0, 1]) for _ in range(n)] for _ in range(m)
            ]
            mat = IncidenceMatrix(rows)
            if check_theorem(mat, ext).outcome == "true":
                assert check_theorem(mat, sub).outcome in ("true", "vacuous")
                tested += 1


# The first counterexample in the search order (variables most-constrained
# first, values in canonical point order).  Pruning that drops only
# subtrees without solutions must keep finding exactly these.
PINNED_COUNTEREXAMPLES = [
    pytest.param(
        fano_closure_matrix, 2,
        ((1, 1, 1), (1, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)),
        ((0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1), (1, 1, 0)),
        id="fano-2",
    ),
    pytest.param(
        hexagon_closure_matrix, 3,
        ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0), (1, 0, 2), (1, 2, 0), (0, 1, 2),
         (1, 2, 1)),
        ((1, 0, 2), (0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 2, 2), (1, 1, 1), (1, 2, 1),
         (1, 1, 0)),
        id="hexagon-3",
    ),
    pytest.param(
        lambda: line_count_matrix(2), 3,
        ((0, 1, 1), (0, 0, 1), (0, 1, 0)),
        ((0, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        id="line-count-2-3",
    ),
    pytest.param(
        lambda: generate_theorem(nine_gon_grope()), 4,
        ((1, 2, 2), (0, 0, 1), (0, 1, 0), (1, 0, 3), (1, 3, 1), (1, 3, 0), (1, 2, 0),
         (1, 2, 3), (1, 2, 2), (1, 3, 2), (1, 1, 2), (1, 1, 3), (1, 1, 1), (1, 0, 0),
         (1, 0, 1), (0, 1, 2)),
        ((1, 0, 0), (1, 1, 2), (1, 2, 0), (0, 0, 1), (1, 3, 0), (1, 3, 0), (1, 0, 3),
         (1, 0, 3), (1, 1, 0), (1, 0, 2), (0, 1, 1), (0, 1, 0), (1, 0, 1), (1, 3, 2),
         (0, 1, 3), (1, 2, 1), (1, 3, 2), (0, 1, 3), (1, 2, 1), (1, 3, 2), (0, 1, 3),
         (1, 2, 1)),
        id="nine-gon-4",
    ),
    pytest.param(
        lambda: generate_theorem(non_grope_complex()), 5,
        ((1, 3, 2), (0, 0, 1), (0, 1, 0), (1, 2, 3), (1, 0, 3), (1, 2, 4), (1, 0, 3),
         (1, 1, 1), (1, 1, 0), (1, 2, 0), (1, 4, 4), (1, 4, 3), (1, 1, 4), (1, 0, 0),
         (1, 0, 4), (0, 1, 1)),
        ((1, 0, 0), (1, 1, 3), (1, 4, 0), (0, 0, 1), (1, 2, 4), (1, 1, 0), (1, 0, 3),
         (1, 2, 0), (1, 0, 3), (1, 1, 3), (0, 1, 1), (0, 1, 1), (0, 1, 0), (0, 1, 0),
         (1, 0, 1), (1, 0, 1), (1, 2, 3), (0, 1, 4), (1, 4, 1), (1, 2, 3), (0, 1, 4),
         (1, 4, 1)),
        id="non-grope-5",
    ),
]


class TestDeterminism:
    def test_counterexample_is_reproducible(self):
        mat = hexagon_closure_matrix()
        a = check_theorem(mat, 3).counterexample
        b = check_theorem(mat, 3).counterexample
        assert a == b

    @pytest.mark.parametrize("build,q,points,lines", PINNED_COUNTEREXAMPLES)
    def test_first_counterexample_is_pinned(self, build, q, points, lines):
        v = check_theorem(build(), q)
        assert v.outcome == "counterexample"
        assert v.counterexample == Configuration(q, points, lines)


class TestForwardChecking:
    @pytest.mark.parametrize(
        "build,q",
        [
            # forward checking decides these in about 1.2k and 2.1k nodes;
            # checking values only against assigned neighbours needs more
            # than 12,000 for each
            pytest.param(warmup_matrix, 4, id="warm-up-4"),
            pytest.param(lambda: line_count_matrix(3), 3, id="line-count-3-3"),
            # these need the symmetry breaking at the first two branch
            # points as well; each holds over the field of order q (Pappus
            # and Desargues over every field, Fano's closure in odd
            # characteristic, the warm-up in every plane)
            pytest.param(pappus_base_matrix, 3, id="pappus-3"),
            pytest.param(
                lambda: generate_theorem(desargues_tetrahedron()), 3, id="desargues-3"
            ),
            pytest.param(fano_closure_matrix, 5, id="fano-5"),
            pytest.param(fano_closure_matrix, 7, id="fano-7"),
            pytest.param(fano_closure_matrix, 9, id="fano-9"),
            pytest.param(warmup_matrix, 8, id="warm-up-8"),
            pytest.param(warmup_matrix, 9, id="warm-up-9"),
            # these need the symmetry breaking at every branch point while
            # the chosen values span at most a triangle; Pappus and
            # Desargues hold over every field
            pytest.param(pappus_base_matrix, 7, id="pappus-7"),
            pytest.param(pappus_base_matrix, 8, id="pappus-8"),
            pytest.param(pappus_base_matrix, 9, id="pappus-9"),
            pytest.param(
                lambda: generate_theorem(desargues_tetrahedron()), 5, id="desargues-5"
            ),
        ],
    )
    def test_decided_within_benchmark_budget(self, build, q):
        assert check_theorem(build(), q, node_budget=12_000).outcome == "true"


def without_cut(monkeypatch):
    """Turn the symmetry cut off: the root state of every search is None,
    so each branch point scans its whole domain (the plain search)."""
    monkeypatch.setattr(search, "_ProjectiveCells", lambda q, closure, chosen: None)


class TestSymmetryBreaking:
    @staticmethod
    def cases():
        rng = random.Random(909)
        cases = []
        for _ in range(300):
            q = rng.choice([2, 3, 4, 5, 7])
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.choice([-1, 0, 0, 1, 1]) for _ in range(n)] for _ in range(m)]
            cases.append((IncidenceMatrix(rows), q))
        return cases

    def test_agrees_with_unbroken_search(self, monkeypatch):
        # scanning every value at every branch point is the plain search;
        # the cut must keep its outcome and its first counterexample
        cases = self.cases()
        pruned = [check_theorem(mat, q) for mat, q in cases]
        without_cut(monkeypatch)
        plain = [check_theorem(mat, q) for mat, q in cases]
        for (mat, q), a, b in zip(cases, pruned, plain):
            assert (a.outcome, a.counterexample) == (b.outcome, b.counterexample), (
                mat.rows(), q)
        assert sum(v.stats.nodes_expanded for v in pruned) < sum(
            v.stats.nodes_expanded for v in plain
        )

    def test_domains_are_unions_of_orbits(self, monkeypatch):
        # a branch point before the first quadrangle scans domain & reps,
        # one value per orbit only if every domain is a union of orbits of
        # the collineations fixing the values chosen above it
        orbit_masks = functools.lru_cache(maxsize=None)(
            lambda q, chosen: [
                [sum(1 << x for x in orbit) for orbit in orbits]
                for orbits in stabilizer_orbits(q, chosen)
            ]
        )
        solve, entries = _Searcher._solve, []

        def checked_solve(self, pos, cells):
            if type(cells) is _ProjectiveCells:
                masks = orbit_masks(self.q, frozenset(cells.chosen))
                sides = self.dom[: self.m], self.dom[self.m :]  # points, lines
                for side in (POINT, LINE):
                    for domain in sides[side]:
                        for orbit in masks[side]:
                            assert domain & orbit in (0, orbit), (cells.chosen, side)
                entries.append(len(cells.chosen))
            return solve(self, pos, cells)

        monkeypatch.setattr(_Searcher, "_solve", checked_solve)
        for mat, q in self.cases():
            if q in (2, 3):
                check_theorem(mat, q)
        assert len(entries) > 700 and max(entries) >= 5


@functools.lru_cache(maxsize=None)
def collineation_group(q: int):
    """PGL(3, q) as permutations of the canonical point list, closed by
    breadth-first search from the transvections I + E_ij and diag(w, 1, 1)
    for a primitive element w, which generate GL(3, q); the group order is
    checked.  Built from fields and plane alone."""
    F = field(q)
    pts = all_points(F)
    index = {p: i for i, p in enumerate(pts)}

    def permutation(M):
        def image(p):
            return tuple(
                F.add(F.add(F.mul(r[0], p[0]), F.mul(r[1], p[1])), F.mul(r[2], p[2]))
                for r in M
            )
        return tuple(index[normalize(F, image(p))] for p in pts)

    def order(a):
        k, x = 1, a
        while x != 1:
            k, x = k + 1, F.mul(x, a)
        return k

    w = next(a for a in range(1, q) if order(a) == q - 1)
    gens = [permutation([[w, 0, 0], [0, 1, 0], [0, 0, 1]])]
    for i, j in itertools.permutations(range(3), 2):
        M = [[int(a == b) for b in range(3)] for a in range(3)]
        M[i][j] = 1
        gens.append(permutation(M))
    group = {tuple(range(len(pts)))}
    frontier = list(group)
    while frontier:
        new = {tuple(map(g.__getitem__, h)) for g in frontier for h in gens} - group
        group |= new
        frontier = list(new)
    assert len(group) == q**3 * (q**3 - 1) * (q**2 - 1)
    # each line through two of its points, and the index of every join
    through = [[i for i, p in enumerate(pts) if incident(F, p, l)][:2] for l in pts]
    joins = [[index.get(join(F, a, b)) for b in pts] for a in pts]
    return list(group), through, joins


@functools.lru_cache(maxsize=None)
def semilinear_group(q: int):
    """PΓL(3, q): collineation_group(q) closed under the Frobenius map
    x -> x^p on every coordinate; the group order is checked."""
    group, through, joins = collineation_group(q)
    F = field(q)
    pts = all_points(F)
    index = {p: i for i, p in enumerate(pts)}
    f = tuple(index[frobenius(F, p)] for p in pts)
    closed, frontier = set(group), group
    while frontier:
        new = {tuple(map(f.__getitem__, g)) for g in frontier} - closed
        closed |= new
        frontier = list(new)
    assert len(closed) == prime_power(q)[1] * len(group)
    return list(closed), through, joins


def stabilizer_orbits(q: int, fixed, semilinear: bool = False) -> list:
    """The orbits on points and on lines of the collineations (in PΓL(3, q)
    when semilinear, else in PGL(3, q)) fixing each (side, index) value in
    fixed."""
    group, through, joins = (semilinear_group if semilinear else collineation_group)(q)
    stab = group
    for side, v in fixed:
        if side == POINT:
            stab = [g for g in stab if g[v] == v]
        else:
            a, b = through[v]
            stab = [g for g in stab if joins[g[a]][g[b]] == v]
    images = (
        lambda x: {g[x] for g in stab},
        lambda x: {joins[g[through[x][0]]][g[through[x][1]]] for g in stab},
    )
    out = []
    for image in images:
        orbits, seen = [], set()
        for x in range(len(through)):
            if x not in seen:
                orbits.append(frozenset(image(x)))
                seen |= orbits[-1]
        out.append(orbits)
    return out


class TestOrbitOracle:
    """Wherever the search accepts the closure of the chosen values, its
    cells on each side are the orbits of the group fixing those values."""

    def accepted_closure(self, q, values):
        """The closure of the values, checked against the orbits, or None
        when the search gives up on it."""
        closure = (0, 0)
        for side, v in values:
            closure = _extended_closure(q, closure, side, v)
            if closure is None:
                return None
        reps = _closure_reps(q, closure)
        for side, orbits in zip((POINT, LINE), stabilizer_orbits(q, frozenset(values))):
            # each orbit holds exactly one representative, so a domain that
            # is a union of orbits keeps one value of each under domain & reps
            assert reps[side].bit_count() == len(orbits), (values, side)
            for orbit in orbits:
                rep = reps[side] & sum(1 << x for x in orbit)
                assert rep and rep & (rep - 1) == 0, (values, side, sorted(orbit))
        return closure

    def test_every_short_sequence_over_order_2(self):
        values = [(side, v) for side in (POINT, LINE) for v in range(7)]
        accepted = sum(
            self.accepted_closure(2, seq) is not None
            for k in (1, 2, 3)
            for seq in itertools.product(values, repeat=k)
        )
        assert accepted > 1000

    @pytest.mark.parametrize("q,samples", [(3, 150), (4, 150)])
    def test_random_sequences(self, q, samples):
        # at q = 4 three collinear points leave two values of their line
        # in one cell but in two orbits (a cross-ratio) unless the closure
        # takes in the whole line; at q <= 3 that line has no two such values
        rng = random.Random(q)
        n = q * q + q + 1
        accepted = 0
        for _ in range(samples):
            k = rng.randint(1, 4)
            seq = [(rng.choice((POINT, LINE)), rng.randrange(n)) for _ in range(k)]
            accepted += self.accepted_closure(q, seq) is not None
        assert accepted > samples // 3

    @pytest.mark.parametrize("q,samples,filled", [(3, 200, 60), (4, 300, 90)])
    def test_incident_sequences(self, q, samples, filled):
        # each value is incident with an earlier one 70% of the time, so
        # the closures often hold three collinear points or three
        # concurrent lines, and then take in the whole line (or pencil)
        on = _plane_tables(q).on
        rng = random.Random(100 + q)
        n = q * q + q + 1
        accepted = 0
        for _ in range(samples):
            seq = [(rng.choice((POINT, LINE)), rng.randrange(n))]
            for _ in range(rng.randint(3, 5)):
                side, v = rng.choice(seq)
                if rng.random() < 0.7:
                    seq.append((1 - side, rng.choice(list(_bits(on[v])))))
                else:
                    seq.append((rng.choice((POINT, LINE)), rng.randrange(n)))
            closure = self.accepted_closure(q, seq)
            # more than three points or lines: a filled line or pencil
            accepted += closure is not None and max(map(int.bit_count, closure)) > 3
        assert accepted >= filled


def search_cells(q: int, state, side: int) -> list:
    """The cells past the first quadrangle on this side, of which the
    search scans one value each: the orbits of h^d for Frobenius cells,
    and single values once the cut has ended (state None)."""
    cells, seen = [], set()
    for x in range(q * q + q + 1):
        if x in seen:
            continue
        cell, y = {x}, x
        while state is not None:
            for _ in range(state.d):
                y = state.h[side][y]
            if y == x:
                break
            cell.add(y)
        cells.append(frozenset(cell))
        seen |= cell
    return cells


class TestSemilinearOrbitOracle:
    """Past the first quadrangle, at q = 4, every cell of the search lies
    in one orbit of the group of collineations and field automorphisms
    (PΓL(3, 4), order 120,960) fixing the chosen values, and where the
    join-and-meet closure of those values holds a frame the cells are
    exactly those orbits."""

    @staticmethod
    def sequence(rng, q):
        """Five to eight values: four random ones, which often close to a
        frame, then each the join or meet of two earlier ones, incident
        with an earlier one, or random, so that the values often stay
        inside the subplane the frame spans for a while."""
        on = _plane_tables(q).on
        seq = []
        for _ in range(rng.randint(5, 8)):
            r = rng.random()
            pairs = [
                (side, pair)
                for side in (POINT, LINE)
                for pair in itertools.combinations(sorted({v for s, v in seq if s == side}), 2)
            ]
            if len(seq) >= 4 and pairs and r < 0.5:
                side, (a, b) = rng.choice(pairs)
                seq.append((1 - side, (on[a] & on[b]).bit_length() - 1))
            elif len(seq) >= 4 and r < 0.8:
                side, v = rng.choice(seq)
                seq.append((1 - side, rng.choice(list(_bits(on[v])))))
            else:
                seq.append((rng.choice((POINT, LINE)), rng.randrange(q * q + q + 1)))
        return seq

    def test_seeded_sequences(self):
        q = 4
        rng = random.Random(2804)
        frames = gave_up = 0
        for _ in range(100):
            seq = self.sequence(rng, q)
            state = _ProjectiveCells(q, (0, 0), ())
            for k, value in enumerate(seq, 1):
                if state is not None:
                    state = state.extended(*value)
                if type(state) is _ProjectiveCells:  # before the quadrangle: TestOrbitOracle
                    continue
                orbits = stabilizer_orbits(q, frozenset(seq[:k]), semilinear=True)
                for side in (POINT, LINE):
                    cells = search_cells(q, state, side)
                    assert all(any(c <= o for o in orbits[side]) for c in cells), (seq[:k], side)
                    if state is not None:  # the frame comes from the closure
                        assert sorted(map(sorted, cells)) == sorted(map(sorted, orbits[side]))
                        # the search scans domain & reps: the lowest of each orbit
                        assert state.reps[side] == sum(1 << min(o) for o in orbits[side])
                    else:  # the search gives up only where the group is trivial
                        assert all(len(o) == 1 for o in orbits[side]), (seq[:k], side)
                frames += state is not None
                gave_up += state is None
        assert frames > 80 and gave_up > 30


GENERATED = {
    "desargues": desargues_tetrahedron,
    "one-line": one_line_complex,
    "pappus-torus": bijective_pappus_torus,
    "nine-gon": nine_gon_grope,
    "non-grope": non_grope_complex,
}
CATALOG = {
    "axiom": axiom_matrix,
    "warm-up": warmup_matrix,
    "line-count-2": lambda: line_count_matrix(2),
    "line-count-3": lambda: line_count_matrix(3),
    "fano": fano_closure_matrix,
    "hexagon": hexagon_closure_matrix,
    "would-be-hexagon": hexagon_would_be_matrix,
    "pappus": pappus_base_matrix,
}


class TestFrobeniusCells:
    """The cut past the first quadrangle keeps every verdict and first
    counterexample, over the orders 4, 8 and 9 where it applies."""

    @staticmethod
    def outcomes(cases, budget):
        return [
            (v.outcome, v.counterexample, v.stats.nodes_expanded)
            for v in (check_theorem(mat, q, node_budget=budget) for mat, q in cases)
        ]

    def test_agrees_with_plain_search(self, monkeypatch):
        # random matrices rarely branch past a quadrangle, so these keep
        # about four in five cells of a generated theorem; the plain search
        # (every cut off) decides most of them within its budget
        rng = random.Random(28)
        bases = [generate_theorem(build()).rows() for build in GENERATED.values()]
        cases = []
        for _ in range(300):
            rows = [[v if rng.random() < 0.8 else 0 for v in row] for row in rng.choice(bases)]
            cases.append((IncidenceMatrix(rows), rng.choice([4, 8, 9])))
        pruned = self.outcomes(cases, 12_000)
        monkeypatch.setattr(search, "_frobenius_cells", lambda q, chosen: None)
        projective = self.outcomes(cases, 12_000)
        without_cut(monkeypatch)
        plain = self.outcomes(cases, 5_000)
        decided = cut = 0
        for (mat, q), a, b, c in zip(cases, pruned, projective, plain):
            if c[0] != "resource_exceeded":
                assert a[:2] == c[:2], (mat.rows(), q)
                decided += 1
                cut += a[2] < b[2]
        assert decided >= 250 and cut >= 30

    def test_catalog_and_generated_theorems(self, monkeypatch):
        # the plain search decides few of these at orders 8 and 9, so each
        # is held to the search without the Frobenius cells, which
        # TestSymmetryBreaking holds to the plain one
        cases = [
            (build() if name in CATALOG else generate_theorem(build()), q)
            for name, build in {**CATALOG, **GENERATED}.items()
            for q in (4, 8, 9)
        ]
        pruned = self.outcomes(cases, 12_000)
        monkeypatch.setattr(search, "_frobenius_cells", lambda q, chosen: None)
        projective = self.outcomes(cases, 12_000)
        for (mat, q), a, b in zip(cases, pruned, projective):
            assert a[:2] == b[:2] and a[2] <= b[2], (mat.rows(), q)
        assert sum(a[2] for a in pruned) < sum(b[2] for b in projective) // 2

    @pytest.mark.parametrize(
        "build,q,ceiling",
        [
            pytest.param(nine_gon_grope, 8, 1_000, id="nine-gon-8"),
            pytest.param(nine_gon_grope, 9, 2_200, id="nine-gon-9"),
            pytest.param(non_grope_complex, 8, 1_600, id="non-grope-8"),
        ],
    )
    def test_node_ceiling(self, build, q, ceiling):
        # without the Frobenius cells these take 2,373, 4,054 and 4,432 nodes
        mat = generate_theorem(build())
        start = time.perf_counter()
        verdict = check_theorem(mat, q, node_budget=ceiling)
        assert time.perf_counter() - start < 1.0
        assert verdict.outcome == "true"


@functools.lru_cache(maxsize=None)
def pinned_cases() -> list:
    """(matrix, q, node budget): the catalog and generated theorems at
    every order up to 9, with the benchmark's node budget, then the random
    cases of TestSymmetryBreaking."""
    cases = [
        (build() if name in CATALOG else generate_theorem(build()), q, 12_000)
        for name, build in {**CATALOG, **GENERATED}.items()
        for q in (2, 3, 4, 5, 7, 8, 9)
    ]
    return cases + [(mat, q, 10**8) for mat, q in TestSymmetryBreaking.cases()]


@functools.lru_cache(maxsize=None)
def pinned_verdicts() -> list:
    """The verdicts over pinned_cases()."""
    return [check_theorem(mat, q, node_budget=budget) for mat, q, budget in pinned_cases()]


class TestPinnedVerdicts:
    """A change to how the search runs keeps its answers: OUTCOMES, the
    digest of the verdicts' JSON without their stats, is that of the
    search before the flat variable index, and STATS, the digest of the
    stats, is that of the search that solves independent parts one after
    another from the part table (see search._constraints)."""

    OUTCOMES = "403fe01afb082ce9ac65068ef9d8eb22a789f70eb759996c3ac14a9c46d9760f"
    STATS = "445ce0a87a7a529c8a831f74f95d52db47250e940b6734a4ad114cd67fa3848a"

    @staticmethod
    def digest(objs) -> str:
        return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()

    def test_outcomes_and_counterexamples(self):
        objs = [v.to_json_obj() for v in pinned_verdicts()]
        assert self.digest([{**obj, "stats": None} for obj in objs]) == self.OUTCOMES

    def test_stats(self):
        assert self.digest([v.stats.to_json_obj() for v in pinned_verdicts()]) == self.STATS

    def test_counterexamples_are_canonical(self):
        found = [v.counterexample for v in pinned_verdicts() if v.counterexample]
        assert len(found) > 150
        for c in found:
            assert Configuration.from_json_obj(c.to_json_obj()) == c
            F = field(c.q)
            for triple in c.points + c.lines:
                assert triple == normalize(F, triple)
                assert all(type(v) is int for v in triple)


def without_parts(monkeypatch):
    """Empty the part table: every _solve call then scans the open
    variables in the branching order, as one part (the unsplit search)."""
    constraints = search._constraints

    def unsplit(mat):
        m, nbr, plus, order, parts = constraints(mat)
        return m, nbr, plus, order, [None] * len(parts)

    monkeypatch.setattr(search, "_constraints", unsplit)


def block_diagonal_cases() -> list:
    """200 seeded (matrix, q): two random blocks of at most 4 x 4 on the
    diagonal, zero elsewhere, so the points and lines of each block share
    no cell with the other block's."""
    rng = random.Random(1100)
    cases = []
    for _ in range(200):
        blocks = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(2)]
        n = sum(b for _, b in blocks)
        rows, col = [], 0
        for a, b in blocks:
            for _ in range(a):
                row = [0] * n
                row[col : col + b] = [rng.choice([-1, 0, 1, 1]) for _ in range(b)]
                rows.append(row)
            col += b
        cases.append((IncidenceMatrix(rows), rng.choice([2, 3, 4, 5, 7])))
    return cases


class TestIndependentParts:
    """Solving the parts that share no matrix cell one after another keeps
    every verdict and first counterexample of the unsplit search."""

    @staticmethod
    def verdicts(cases) -> list:
        return [check_theorem(mat, q, node_budget=budget) for mat, q, budget in cases]

    def test_agrees_with_unsplit_search(self, monkeypatch):
        blocks = [(mat, q, 10**8) for mat, q in block_diagonal_cases()]
        solve, restricted = _Searcher._solve, []

        def counted_solve(self, pos, cells):  # a call deciding one part of several
            restricted.append(self.part != (1 << len(self.dom)) - 1)
            return solve(self, pos, cells)

        monkeypatch.setattr(_Searcher, "_solve", counted_solve)
        split = pinned_verdicts() + self.verdicts(blocks)
        monkeypatch.setattr(_Searcher, "_solve", solve)
        assert sum(restricted) >= 2 * len(blocks)  # both blocks of each, at least
        without_parts(monkeypatch)
        cases = pinned_cases() + blocks
        for (mat, q, _), a, b in zip(cases, split, self.verdicts(cases)):
            assert (a.outcome, a.counterexample) == (b.outcome, b.counterexample), (
                mat.rows(), q)

    def test_non_grope_node_ceiling(self):
        # past branch position 9 its open variables fall into parts of 6
        # and 19 variables; the unsplit search takes 2,145 nodes
        verdict = check_theorem(generate_theorem(non_grope_complex()), 7, node_budget=600)
        assert verdict.outcome == "true"
