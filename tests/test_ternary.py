import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingcalc import catalog, certificates
from tilingcalc.fields import field
from tilingcalc.plane import all_points, incident
from tilingcalc.ternary import (
    GENERIC_LINE,
    GENERIC_POINT,
    LINE_THROUGH_TWO_POINTS,
    POINT_ON_TWO_LINES,
    IncidenceMatrix,
    NotNegative,
    PatternWitness,
    SeedConflict,
    aux_join,
    contradiction_form,
    contradicts_incidence_axiom,
    is_tautology,
    propagate,
)

# Independent oracle: check every 3x3 submatrix against every row/column
# permutation of the forbidden pattern.  Deliberately dumb.

_PATTERN = ((-1, 1, None), (1, 1, 1), (1, 1, -1))


def brute_force_witness(mat):
    g = mat.rows()
    for rows in itertools.combinations(range(mat.m), 3):
        for cols in itertools.combinations(range(mat.n), 3):
            for rp in itertools.permutations(rows):
                for cp in itertools.permutations(cols):
                    ok = True
                    for a in range(3):
                        for b in range(3):
                            want = _PATTERN[a][b]
                            if want is not None and g[rp[a]][cp[b]] != want:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        return rows, cols
    return None


def tri_matrices(max_m=5, max_n=5):
    return st.integers(2, max_m).flatmap(
        lambda m: st.integers(2, max_n).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    ).map(IncidenceMatrix)


class TestPatternDetection:
    def test_canonical_pattern_found(self):
        m = IncidenceMatrix([[-1, 1, 0], [1, 1, 1], [1, 1, -1]])
        w = contradicts_incidence_axiom(m)
        assert w is not None
        assert sorted(w.rows) == [1, 2, 3]
        assert sorted(w.cols) == [1, 2, 3]

    @pytest.mark.parametrize("star", [-1, 0, 1])
    def test_wildcard_matches_all_values(self, star):
        m = IncidenceMatrix([[-1, 1, star], [1, 1, 1], [1, 1, -1]])
        assert contradicts_incidence_axiom(m) is not None

    def test_all_zero_clean(self):
        m = IncidenceMatrix([[0] * 3 for _ in range(3)])
        assert contradicts_incidence_axiom(m) is None

    def test_axiom_matrix_with_negated_corner(self):
        m = catalog.axiom_matrix().with_entry(1, 1, -1)
        assert contradicts_incidence_axiom(m) is not None

    def test_axiom_matrix_itself_clean(self):
        assert contradicts_incidence_axiom(catalog.axiom_matrix()) is None

    def test_embedded_and_permuted(self):
        # pattern rows/cols scattered inside a larger matrix
        base = [[0] * 6 for _ in range(6)]
        # place pattern at rows (5,1,3), cols (4,0,2) in scrambled order
        vals = {(5, 4): -1, (5, 0): 1, (5, 2): 0,
                (1, 4): 1, (1, 0): 1, (1, 2): 1,
                (3, 4): 1, (3, 0): 1, (3, 2): -1}
        for (r, c), v in vals.items():
            base[r][c] = v
        m = IncidenceMatrix(base)
        assert contradicts_incidence_axiom(m) is not None
        assert brute_force_witness(m) is not None

    @settings(max_examples=300, deadline=None)
    @given(tri_matrices())
    def test_agrees_with_brute_force(self, mat):
        assert (contradicts_incidence_axiom(mat) is not None) == (
            brute_force_witness(mat) is not None
        )

    @settings(max_examples=100, deadline=None)
    @given(tri_matrices(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, mat, rnd):
        rows = list(mat.rows())
        rnd.shuffle(rows)
        cols = list(range(mat.n))
        rnd.shuffle(cols)
        permuted = IncidenceMatrix([[row[c] for c in cols] for row in rows])
        assert (contradicts_incidence_axiom(mat) is None) == (
            contradicts_incidence_axiom(permuted) is None
        )

    def test_witness_submatrix_matches(self):
        m = catalog.pappus_case3_golden()
        w = contradicts_incidence_axiom(m.with_entry(10, 4, 1))
        assert isinstance(w, PatternWitness)
        sub = IncidenceMatrix(
            [[m.with_entry(10, 4, 1).entry(r, c) for c in w.cols] for r in w.rows]
        )
        assert brute_force_witness(sub) is not None


class TestTautology:
    def test_plus_corner(self):
        assert is_tautology(IncidenceMatrix([[1]]))

    def test_zero_corner(self):
        assert not is_tautology(IncidenceMatrix([[0]]))

    def test_pappus_not_tautology(self):
        assert not is_tautology(catalog.pappus_base_matrix())


class TestPropagate:
    def test_no_zeros_no_seeds_unchanged(self):
        m = IncidenceMatrix([[1, -1], [-1, 1]])
        assert propagate(m) == m

    def test_seed_conflict(self):
        m = IncidenceMatrix([[1, 0], [0, 0]])
        with pytest.raises(SeedConflict):
            propagate(m, seeds=[(1, 1, -1)])

    @pytest.mark.parametrize("seed", [(0, 0, -1), (-1, 2, 1), (3, 1, 1), (1, 3, -1)])
    def test_seed_out_of_range(self, seed):
        m = IncidenceMatrix([[1, 0], [0, 0]])
        with pytest.raises(IndexError):
            propagate(m, seeds=[seed])

    def test_seed_on_equal_value_ok(self):
        m = IncidenceMatrix([[1, 0], [0, 0]])
        assert propagate(m, seeds=[(1, 1, 1)]).entry(1, 1) == 1

    def test_monotone_refinement(self):
        before = catalog.pappus_aux12_matrix()
        after = propagate(before, seeds=[(10, 4, -1)])
        for i in range(1, before.m + 1):
            for j in range(1, before.n + 1):
                v = before.entry(i, j)
                if v != 0:
                    assert after.entry(i, j) == v
                else:
                    assert after.entry(i, j) in (0, -1) or (i, j) == (10, 4)

    def test_idempotent_at_fixpoint(self):
        m = propagate(catalog.pappus_aux12_matrix(), seeds=[(10, 4, -1)])
        assert propagate(m) == m

    def test_golden_case1(self):
        out = propagate(catalog.pappus_aux12_matrix(), seeds=[(10, 4, -1)])
        assert out == catalog.pappus_case1_golden()

    def test_golden_case2(self):
        out = propagate(
            catalog.pappus_aux16_matrix(), seeds=[(1, 1, -1), (10, 10, -1)]
        )
        assert out == catalog.pappus_case2_golden()
        assert out.zero_cells() == [(10, 4), (11, 2), (12, 3)]

    def test_golden_case3(self):
        out = propagate(
            catalog.pappus_aux16_matrix(), seeds=[(1, 1, -1), (10, 10, 1)]
        )
        assert out == catalog.pappus_case3_golden()
        assert out.entry(10, 4) == -1

    @pytest.mark.parametrize(
        "fixture,seeds",
        [
            (catalog.pappus_aux12_matrix, [(10, 4, -1)]),
            (catalog.pappus_aux16_matrix, [(1, 1, -1), (10, 10, -1)]),
            (catalog.pappus_aux16_matrix, [(1, 1, -1), (10, 10, 1)]),
        ],
    )
    def test_three_sweeps_equal_fixpoint(self, fixture, seeds):
        # The historical procedure stops after three sweeps; on the golden
        # inputs that must already be the fixpoint.  A failure here means
        # the two procedures genuinely diverge and must be investigated,
        # not silenced.
        m = fixture()
        assert propagate(m, seeds, max_sweeps=3) == propagate(m, seeds)


def naive_propagate(mat, seeds=(), max_sweeps="fixpoint"):
    """The propagation rule read literally: each tentative +1 is checked
    with a full pattern search on a fresh matrix."""
    grid = [list(r) for r in mat.rows()]
    for i, j, v in seeds:
        grid[i - 1][j - 1] = v
    sweeps = 0
    while max_sweeps == "fixpoint" or sweeps < max_sweeps:
        changed = False
        for i in range(mat.m):
            for j in range(mat.n):
                if grid[i][j] != 0:
                    continue
                grid[i][j] = 1
                if contradicts_incidence_axiom(IncidenceMatrix(grid)) is not None:
                    grid[i][j] = -1
                    changed = True
                else:
                    grid[i][j] = 0
        sweeps += 1
        if not changed:
            break
    return IncidenceMatrix(grid)


def random_matrix(rng, m, n):
    """Either random signs, or the incidences of random points and lines
    of PG(2, q) with some cells hidden (which never holds the pattern,
    so propagation runs long)."""
    if rng.random() < 0.5:
        density = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
        return [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
    q = rng.choice((2, 3, 5))
    plane = [(1, y, z) for y in range(q) for z in range(q)]
    plane += [(0, 1, z) for z in range(q)] + [(0, 0, 1)]
    points = [rng.choice(plane) for _ in range(m)]
    lines = [rng.choice(plane) for _ in range(n)]
    hide = rng.choice((0.2, 0.4, 0.6))
    return [[0 if rng.random() < hide
             else 1 if sum(a * b for a, b in zip(p, l)) % q == 0 else -1
             for l in lines] for p in points]


def planted_matrix(rng, m, n, q):
    """The incidences of m random points and n random lines of PG(2, q),
    with some cells hidden."""
    F = field(q)
    plane = all_points(F)
    points = [rng.choice(plane) for _ in range(m)]
    lines = [rng.choice(plane) for _ in range(n)]
    hide = rng.choice((0.2, 0.4, 0.6))
    return IncidenceMatrix(
        [[0 if rng.random() < hide else 1 if incident(F, p, l) else -1 for l in lines]
         for p in points]
    )


# The position of a cell in the forbidden pattern _PATTERN (rows r1..r3,
# columns c1..c3), by the role it plays; the wildcard plays none.
_ROLE_AT = {(0, 1): "r1c2", (1, 2): "r2c3", (0, 0): "r1c1", (2, 2): "r3c3",
            (1, 0): "shared", (1, 1): "shared", (2, 0): "shared", (2, 1): "shared"}


def roles_through(mat, i, j):
    """The roles the 1-based cell (i, j) plays in the forbidden patterns
    of mat that use it, by brute force."""
    g = mat.rows()
    roles = set()
    for rows in itertools.permutations(range(mat.m), 3):
        if i - 1 not in rows:
            continue
        for cols in itertools.permutations(range(mat.n), 3):
            if j - 1 in cols and all(
                want is None or g[r][c] == want
                for r, wants in zip(rows, _PATTERN)
                for c, want in zip(cols, wants)
            ):
                roles.add(_ROLE_AT.get((rows.index(i - 1), cols.index(j - 1))))
    return roles - {None}


# For each role a cell can play, a matrix whose first zero cell completes a
# pattern in that role only, with the sign it takes there.  For a -1 role,
# the +1 there completes some pattern first, so the scan commits -1, and
# a later zero cell turns -1 only because the grid then holds a pattern:
# no pattern passes through it.
ROLE_CASES = [
    ("r1c2", 1, [[0, -1, -1], [1, -1, 1], [1, 1, 1]]),
    ("r2c3", 1, [[-1, 1, 1], [0, 1, 1], [-1, -1, 1]]),
    ("shared", 1, [[-1, 1, -1], [1, 1, 1], [0, 1, -1]]),
    ("r1c1", -1, [[-1, 1, 0, 1, 1], [-1, -1, 1, 0, 0], [-1, 1, 1, 1, -1], [1, 0, 1, 1, 0]]),
    ("r3c3", -1, [[-1, -1, -1, 1, -1], [1, -1, 1, 0, 0], [0, 1, 1, 1, -1], [1, 0, 1, 1, 0],
                  [1, 0, -1, 0, -1]]),
]


class TestChangedCellRoles:
    @pytest.mark.parametrize("role,sign,rows", ROLE_CASES, ids=[c[0] for c in ROLE_CASES])
    def test_only_this_role_completes_a_pattern(self, role, sign, rows):
        mat = IncidenceMatrix(rows)
        assert contradicts_incidence_axiom(mat) is None
        (i, j), *later = mat.zero_cells()
        assert roles_through(mat.with_entry(i, j, sign), i, j) == {role}
        if sign == -1:
            assert roles_through(mat.with_entry(i, j, 1), i, j)
            minus = mat.with_entry(i, j, -1)
            assert any(not roles_through(minus.with_entry(*z, 1), *z) for z in later)
        else:
            assert not later
        for sweeps in ("fixpoint", 1):
            out = propagate(mat, max_sweeps=sweeps)
            assert out == naive_propagate(mat, max_sweeps=sweeps)
            assert out.entry(i, j) == -1 and not out.zero_cells()


class TestPropagateOracle:
    def test_agrees_on_random_matrices(self):
        rng = random.Random(20261018)
        for _ in range(1500):
            mat = IncidenceMatrix(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
            zeros = mat.zero_cells()
            cells = rng.sample(zeros, min(len(zeros), rng.randint(0, 2)))
            seeds = [(i, j, rng.choice((-1, 1))) for i, j in cells]
            for sweeps in ("fixpoint", 1, 2):
                assert propagate(mat, seeds, sweeps) == naive_propagate(mat, seeds, sweeps), (
                    mat, seeds, sweeps)
        for _ in range(100):
            mat = IncidenceMatrix(random_matrix(rng, rng.randint(6, 16), rng.randint(6, 12)))
            assert propagate(mat) == naive_propagate(mat), mat

    def test_agrees_on_planted_matrices_with_single_seeds(self):
        rng = random.Random(20261020)
        # the orders up to nine, fixed: the seeded draw depends on this tuple
        cases = [(q, rng.randint(3, 16), rng.randint(3, 22)) for q in (2, 3, 4, 5, 7, 8, 9) * 2]
        for q, m, n in cases + [(9, 16, 22)]:
            mat = planted_matrix(rng, m, n, q)
            i, j = rng.choice(mat.zero_cells())
            for v in (-1, 1):
                for sweeps in ("fixpoint", 1, 2):
                    assert propagate(mat, [(i, j, v)], sweeps) == naive_propagate(
                        mat, [(i, j, v)], sweeps), (mat, (i, j, v), sweeps)

    def test_agrees_on_every_certificate_replay_call(self, monkeypatch):
        calls = []

        def recorded(mat, seeds=(), max_sweeps="fixpoint"):
            out = propagate(mat, seeds, max_sweeps)
            calls.append((mat, seeds, max_sweeps, out))
            return out

        monkeypatch.setattr(certificates, "propagate", recorded)
        for build in certificates.SHIPPED_CERTIFICATES.values():
            assert certificates.validate_certificate(build()).ok
        assert len(calls) == 10
        for mat, seeds, max_sweeps, out in calls:
            assert out == naive_propagate(mat, seeds, max_sweeps)

    def test_seeded_pattern_turns_every_zero_to_minus(self):
        mat = IncidenceMatrix([[-1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]])
        out = propagate(mat, seeds=[(3, 3, -1)])
        assert out == naive_propagate(mat, [(3, 3, -1)])
        assert all(out.entry(i, j) == -1 for i, j in mat.zero_cells())

    def test_minus_commit_completes_a_pattern_mid_sweep(self):
        # The -1 committed at (1, 3) completes a pattern on rows 1, 4, 3.
        # From then on every zero cell becomes -1; (2, 5) would stay 0 if
        # only the patterns through its own cell were asked about.
        mat = IncidenceMatrix(
            [[-1, 1, 0, 1, 1], [-1, -1, 1, 0, 0], [-1, 1, 1, 1, -1], [1, 0, 1, 1, 0]]
        )
        assert contradicts_incidence_axiom(mat) is None
        out = propagate(mat, max_sweeps=1)
        assert out == IncidenceMatrix(
            [[-1, 1, -1, 1, 1], [-1, -1, 1, -1, -1], [-1, 1, 1, 1, -1], [1, -1, 1, 1, -1]]
        )
        assert out == naive_propagate(mat, max_sweeps=1)
        assert contradicts_incidence_axiom(out) is not None


class TestAuxJoin:
    def test_point_on_two_lines_rows(self):
        out = catalog.pappus_base_matrix()
        for a, b in [(2, 3), (3, 4), (2, 4)]:
            out = aux_join(out, POINT_ON_TWO_LINES, a, b)
        assert out == catalog.pappus_aux12_matrix()

    def test_generic_line_on_tiny(self):
        out = aux_join(IncidenceMatrix([[0]]), GENERIC_LINE)
        assert out.rows() == ((0, -1),)

    def test_generic_point_on_warmup(self):
        out = aux_join(catalog.warmup_matrix(), GENERIC_POINT)
        assert out.m == 5 and out.n == 4
        assert out.rows()[-1] == (-1, -1, -1, -1)
        assert out.rows()[:4] == catalog.warmup_matrix().rows()

    def test_line_through_two_points(self):
        out = aux_join(IncidenceMatrix([[0], [0], [0]]), LINE_THROUGH_TWO_POINTS, 1, 3)
        assert out.rows() == ((0, 1), (0, 0), (0, 1))

    def test_repeated_index_allowed(self):
        out = aux_join(IncidenceMatrix([[0, 0]]), POINT_ON_TWO_LINES, 2, 2)
        assert out.rows()[-1] == (0, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            aux_join(IncidenceMatrix([[0]]), POINT_ON_TWO_LINES, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(tri_matrices())
    def test_grows_one_dimension_preserves_rest(self, mat):
        out = aux_join(mat, GENERIC_POINT)
        assert (out.m, out.n) == (mat.m + 1, mat.n)
        assert out.rows()[: mat.m] == mat.rows()
        out2 = aux_join(mat, GENERIC_LINE)
        assert (out2.m, out2.n) == (mat.m, mat.n + 1)
        assert all(r[:-1] == s for r, s in zip(out2.rows(), mat.rows()))


class TestContradictionForm:
    def test_identity_when_target_is_corner(self):
        m = IncidenceMatrix([[-1, 0], [0, 1]])
        assert contradiction_form(m, 1, 1) == m

    def test_requires_minus(self):
        with pytest.raises(NotNegative):
            contradiction_form(IncidenceMatrix([[0, 1], [1, 0]]), 1, 2)

    def test_row_swap_only(self):
        m = IncidenceMatrix([[0, 1], [-1, 0]])
        out = contradiction_form(m, 2, 1)
        assert out.rows() == ((-1, 0), (-1, 1))

    def test_case2_target(self):
        m = catalog.pappus_case2_golden()
        out = contradiction_form(m, 14, 8)
        assert out.entry(1, 1) == -1
        # the old (1,1), forced to -1 first, lands at (14,8)
        assert out.entry(14, 8) == -1
        # row 2 is untouched by the swaps apart from columns 1 and 8
        assert out.entry(2, 2) == m.entry(2, 2)


class TooManyZeros(ValueError):
    """case_split refused: too many zero cells to enumerate."""


def case_split(mat, cap=20):
    """Yield all sign completions of the zero cells.

    Enumeration is lexicographic over the row-major list of zero cells
    with -1 before +1, so 2**k matrices come out in a fixed order.
    """
    zeros = mat.zero_cells()
    if len(zeros) > cap:
        raise TooManyZeros(f"{len(zeros)} zero cells exceeds cap {cap}")

    def rec(current, todo):
        if not todo:
            yield current
            return
        (i, j), rest = todo[0], todo[1:]
        for v in (-1, 1):
            yield from rec(current.with_entry(i, j, v), rest)

    return rec(mat, zeros)


class TestCaseSplit:
    def test_single_zero(self):
        m = IncidenceMatrix([[0, 1], [1, 1]])
        out = list(case_split(m))
        assert [x.entry(1, 1) for x in out] == [-1, 1]

    def test_axiom_matrix_cases(self):
        out = list(case_split(catalog.axiom_matrix().with_entry(1, 3, -1)))
        assert len(out) == 2
        taut = [x for x in out if is_tautology(x)]
        contra = [x for x in out if contradicts_incidence_axiom(x)]
        assert len(taut) == 1 and len(contra) == 1

    def test_eight_distinct_for_three_zeros(self):
        m = IncidenceMatrix([[0, 0], [0, 1]])
        out = list(case_split(m))
        assert len(out) == 8
        assert len(set(out)) == 8
        assert all(not x.zero_cells() for x in out)

    def test_cap(self):
        m = IncidenceMatrix([[0] * 5 for _ in range(5)])
        with pytest.raises(TooManyZeros):
            list(case_split(m, cap=20))

    def test_lexicographic_minus_first(self):
        m = IncidenceMatrix([[0, 0]])
        out = [x.rows()[0] for x in case_split(m)]
        assert out == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


class TestSerialization:
    def test_round_trip(self):
        m = catalog.pappus_aux16_matrix()
        assert IncidenceMatrix.from_json(m.to_json()) == m

    def test_json_shape(self):
        obj = catalog.warmup_matrix().to_json_obj()
        assert obj["m"] == 4 and obj["n"] == 4
        assert obj["entries"][0] == [0, 1, -1, 0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IncidenceMatrix.from_json_obj({"m": 2, "n": 1, "entries": [[0]]})

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", None])
    def test_non_integer_entry_rejected(self, bad):
        with pytest.raises(ValueError):
            IncidenceMatrix([[1, bad]])
        with pytest.raises(ValueError):
            IncidenceMatrix.from_json('{"entries": [[1, %s]]}' % json.dumps(bad))
        # declared dimensions are integers too: 1.0 and true equal 1 in Python
        for obj in ({"m": bad, "entries": [[1, 0]]}, {"n": bad, "entries": [[1], [0]]}):
            with pytest.raises(ValueError):
                IncidenceMatrix.from_json(json.dumps(obj))
