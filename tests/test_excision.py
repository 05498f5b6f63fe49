import gc
import itertools
import random
import weakref
from importlib.resources import files

import pytest

from tilingcalc.complexes import (
    desargues_tetrahedron,
    non_grope_complex,
    one_line_complex,
    pappus_torus_case1,
    pappus_torus_case2,
    would_be_6_gon,
)
from tilingcalc.excision import (
    Cochain,
    _det,
    _factorisation,
    _oracle_solutions,
    GroupSpec,
    TooLarge,
    boundary_matrix,
    can_excise,
    failing_cochain,
    oracle_can_excise,
    smith_normal_form,
    torsion_coprime,
    witness_modulus,
)
from tilingcalc.gropes import random_closed_surface
from tilingcalc.surfaces import (
    DeltaComplex,
    FaceNotFound,
    Labeling,
    MarkedComplex,
    closing_signs,
    generate_theorem,
    octahedral_subdivide,
    validate_elementary_proof,
)

FIXTURES = [
    desargues_tetrahedron,
    one_line_complex,
    pappus_torus_case1,
    pappus_torus_case2,
    non_grope_complex,
]


def diag(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


class TestGroupSpec:
    def test_named_models(self):
        assert GroupSpec.reals() == GroupSpec(True, (2,))
        assert GroupSpec.complexes() == GroupSpec(True, "full")
        assert GroupSpec.finite_field(5) == GroupSpec(False, (4,))
        assert GroupSpec.rational_functions(4) == GroupSpec(True, (3,))

    def test_json_round_trip(self):
        for g in (GroupSpec.reals(), GroupSpec.complexes(), GroupSpec(False, (3, 5))):
            assert GroupSpec.from_json(g.to_json()) == g

    def test_bad_order(self):
        with pytest.raises(ValueError):
            GroupSpec(False, (0,))

    def test_field_orders_are_prime_powers(self):
        def is_prime_power(q):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            while q % p == 0:
                q //= p
            return q == 1

        for q in range(2, 3000):
            for model in (GroupSpec.finite_field, GroupSpec.rational_functions):
                if is_prime_power(q):
                    assert model(q).torsion == (q - 1,)
                else:
                    with pytest.raises(ValueError, match="not a prime power"):
                        model(q)
        for q in (65521 * 65537, 2**16 * 3, 10**6):
            with pytest.raises(ValueError, match="not a prime power"):
                GroupSpec.finite_field(q)
        for q in (2**32 - 5, 2**31, 65521**2):  # 2**32 - 5 is the largest prime below 2**32
            assert GroupSpec.finite_field(q).torsion == (q - 1,)
        for q in (0, 1, 2**32):
            with pytest.raises(ValueError, match="field order must be in"):
                GroupSpec.finite_field(q)


def permutation_det(mat) -> int:
    """The Leibniz expansion: a signed product per permutation."""
    n, total = len(mat), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


class TestSmithNormalForm:
    def test_det_agrees_with_permutation_expansion(self):
        rng = random.Random(120)
        for n in range(7):
            for _ in range(40):
                bound = rng.choice([1, 3, 50])
                mat = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                if n > 1 and rng.random() < 0.2:  # a repeated row: singular
                    mat[-1] = list(mat[0])
                assert _det(mat) == permutation_det(mat), mat

    def test_diag_2_3(self):
        _, D, _ = smith_normal_form([[2, 0], [0, 3]])
        assert diag(D) == [1, 6]

    def test_zero_matrix(self):
        U, D, V = smith_normal_form([[0, 0], [0, 0], [0, 0]])
        assert D == [[0, 0]] * 3
        assert U == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_tetrahedron_minus_one_face(self):
        rows = boundary_matrix(desargues_tetrahedron().complex)
        _, D, _ = smith_normal_form(rows[1:])
        assert diag(D) == [1, 1, 1]

    def test_first_divisor_is_entry_gcd(self):
        rng = random.Random(31)
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            _, D, _ = smith_normal_form(A)  # internal assertions audit U, V
            entries = [x for row in A for x in row if x]
            d = diag(D)
            if entries:
                g = entries[0]
                for x in entries[1:]:
                    while x:
                        g, x = x, g % x
                assert d[0] == abs(g)
            else:
                assert all(x == 0 for x in d)

    def test_rank_matches_rational_rank(self):
        from fractions import Fraction

        rng = random.Random(77)
        for _ in range(25):
            m = rng.randint(2, 5)
            n = rng.randint(2, 5)
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            _, D, _ = smith_normal_form(A)
            snf_rank = sum(1 for x in diag(D) if x)
            a = [[Fraction(x) for x in row] for row in A]
            rank = 0
            for c in range(n):
                p = next((r for r in range(rank, m) if a[r][c]), None)
                if p is None:
                    continue
                a[rank], a[p] = a[p], a[rank]
                for r in range(m):
                    if r != rank and a[r][c]:
                        f = a[r][c] / a[rank][c]
                        for k in range(n):
                            a[r][k] -= f * a[rank][k]
                rank += 1
            assert snf_rank == rank


class TestBoundaryMatrix:
    def test_tetrahedron_rows(self):
        rows = boundary_matrix(desargues_tetrahedron().complex)
        assert rows[3] == [1, 0, -1, 0, 1, 0]
        assert all(abs(x) <= 3 for row in rows for x in row)

    def test_double_traversal_multiplicity(self):
        K = one_line_complex().complex
        rows = boundary_matrix(K)
        assert rows[0] == rows[1] == [1, 1, -1]

    def test_hexagon_fan_wraps_twice(self):
        K = non_grope_complex().complex
        total = [0] * len(K.edges)
        for row in boundary_matrix(K)[:6]:  # the six fan faces
            total = [a + b for a, b in zip(total, row)]
        # the spokes cancel and the first side family is traversed twice
        assert total == [2, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0]


class TestOracleAgreement:
    @pytest.mark.parametrize("builder", FIXTURES)
    def test_oracle_equals_kill_test_everywhere(self, builder):
        K = builder().complex
        for f in range(len(K.faces)):
            for n in range(2, 9):
                assert can_excise(K, f, GroupSpec(False, (n,))) == oracle_can_excise(
                    K, f, n
                ), (builder.__name__, f, n)

    def test_thirty_edge_surface(self):
        # 20 faces, 30 edges (the oracle's cap) and 3^11 labelings mod 3,
        # so the oracle must not form the edge labeling V·w for each
        K = random_closed_surface(random.Random(3), max_faces=20)
        assert (len(K.faces), len(K.edges)) == (20, 30)
        assert oracle_can_excise(K, 0, 3) == can_excise(K, 0, GroupSpec(False, (3,)))

    def test_torus_face_over_5(self):
        K = pappus_torus_case1().complex
        assert all(oracle_can_excise(K, f, 5) for f in range(6))

    def test_too_large_modulus(self):
        with pytest.raises(TooLarge):
            oracle_can_excise(one_line_complex().complex, 0, 13)

    def test_face_not_found(self):
        with pytest.raises(FaceNotFound):
            oracle_can_excise(one_line_complex().complex, 9, 3)
        with pytest.raises(FaceNotFound):
            can_excise(one_line_complex().complex, 9, GroupSpec.reals())


class TestCanExcise:
    def test_tetrahedron_any_face_any_cyclic_group(self):
        K = desargues_tetrahedron().complex
        for f in range(4):
            for n in range(2, 13):
                assert can_excise(K, f, GroupSpec(False, (n,)))

    def test_surfaces_excise_over_infinite_groups(self):
        for builder in (desargues_tetrahedron, one_line_complex, pappus_torus_case1):
            K = builder().complex
            for f in range(len(K.faces)):
                assert can_excise(K, f, GroupSpec.reals())
                assert can_excise(K, f, GroupSpec.complexes())

    def test_non_grope_marked_face(self):
        mc = non_grope_complex()
        K, f = mc.complex, mc.marked
        assert can_excise(K, f, GroupSpec.reals())
        assert not can_excise(K, f, GroupSpec.finite_field(5))
        assert can_excise(K, f, GroupSpec.finite_field(2))
        assert not can_excise(K, f, GroupSpec.complexes())
        assert can_excise(K, f, GroupSpec.rational_functions(3))

    def test_non_grope_marked_cyclic_profile(self):
        mc = non_grope_complex()
        got = {n: oracle_can_excise(mc.complex, mc.marked, n) for n in range(2, 9)}
        assert got == {2: True, 3: True, 4: False, 5: True, 6: True, 7: True, 8: False}

    @pytest.mark.parametrize("builder", FIXTURES)
    def test_subgroup_monotonicity(self, builder):
        K = builder().complex
        for f in range(len(K.faces)):
            for m in range(2, 13):
                if not can_excise(K, f, GroupSpec(False, (m,))):
                    continue
                for d in range(1, m + 1):
                    if m % d == 0:
                        assert can_excise(K, f, GroupSpec(False, (d,)))


    @pytest.mark.parametrize("G", [GroupSpec(False, ()), GroupSpec(False, (1,))])
    def test_trivial_group_excises_every_face(self, G):
        from tilingcalc.complexes import nine_gon_grope

        for builder in (*FIXTURES, nine_gon_grope, would_be_6_gon):
            K = builder().complex
            for f in range(len(K.faces)):
                assert can_excise(K, f, G)
            for f in (-1, len(K.faces)):
                with pytest.raises(FaceNotFound):
                    can_excise(K, f, G)


class TestMemo:
    def test_only_the_latest_complex_is_kept(self):
        first = one_line_complex().complex
        assert can_excise(first, 0, GroupSpec.reals())
        ref = weakref.ref(first)
        del first
        assert can_excise(desargues_tetrahedron().complex, 0, GroupSpec.reals())
        gc.collect()
        assert ref() is None


class TestFailingCochain:
    def test_non_grope_witness_checks_out(self):
        mc = non_grope_complex()
        K = mc.complex
        u = failing_cochain(K, mc.marked, 4)
        assert isinstance(u, Cochain) and u.modulus == 4
        rows = boundary_matrix(K)
        for f, row in enumerate(rows):
            value = sum(c * v for c, v in zip(row, u.values)) % 4
            if f == mc.marked:
                assert value != 0
            else:
                assert value == 0

    @pytest.mark.parametrize("name", [
        "desargues-tetrahedron.json", "one-line-octahedron.json", "pappus-torus-case1.json",
        "pappus-torus-case2.json", "ninegon-grope.json", "non-grope.json", "would-be-6-gon.json",
    ])
    def test_first_failing_labeling_of_the_oracle(self, name):
        # the witness read off the class is the oracle's first labeling
        # with a nonzero value on the face, wherever the oracle can run
        K = MarkedComplex.from_json((files("tilingcalc") / "fixtures" / name).read_text()).complex
        # each octahedron face excises with five free coordinates: n^5
        # labelings to exhaust, seconds in all past n = 8
        top = 8 if name == "one-line-octahedron.json" else 12
        for f in range(len(K.faces)):
            for n in range(2, top + 1):
                try:
                    w = next((w for w, value in _oracle_solutions(K, f, n) if value), None)
                except TooLarge:
                    continue
                expected = None
                if w is not None:
                    V = _factorisation(K, f)[2]
                    expected = Cochain(n, tuple(sum(a * b for a, b in zip(row, w)) % n for row in V))
                assert failing_cochain(K, f, n) == expected, (name, f, n)

    def test_witness_modulus(self):
        # non-grope's marked class has one nonzero torsion coordinate,
        # (-2, 4): it fails over Z/n exactly when 4 divides n
        mc = non_grope_complex()
        for G, n in ((GroupSpec.finite_field(9), 8), (GroupSpec(False, (6, 8)), 8),
                     (GroupSpec.complexes(), 4)):
            assert not can_excise(mc.complex, mc.marked, G)
            assert witness_modulus(mc.complex, mc.marked, G) == n
        # the would-be 6-gon's class has free coordinates x = +-1: Z/2 fails
        mc = would_be_6_gon()
        assert witness_modulus(mc.complex, mc.marked, GroupSpec(True, (1,))) == 2

    def test_none_when_excisable(self):
        K = desargues_tetrahedron().complex
        assert failing_cochain(K, 0, 6) is None

    def test_cochain_json(self):
        obj = Cochain(3, (0, 1, 2)).to_json_obj()
        assert obj == {"modulus": 3, "values": {"1": 0, "2": 1, "3": 2}}


class TestTorsionCoprime:
    def test_reals_are_odd(self):
        for k in range(2, 12):
            assert torsion_coprime(k, GroupSpec.reals()) == (k % 2 == 1)

    def test_order_4_field_vs_3(self):
        assert not torsion_coprime(3, GroupSpec.finite_field(4))
        assert torsion_coprime(3, GroupSpec.finite_field(8))

    def test_trivial_group(self):
        assert torsion_coprime(7, GroupSpec(False, ()))

    def test_full_torsion_never(self):
        assert not torsion_coprime(5, GroupSpec.complexes())

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            torsion_coprime(1, GroupSpec.reals())


class TestValidateIntegration:
    def test_validation_with_group_checks_excision(self):
        from tilingcalc.catalog import pappus_case1_golden
        from tilingcalc.surfaces import validate_elementary_proof

        report = validate_elementary_proof(
            pappus_torus_case1(), pappus_case1_golden(), GroupSpec.finite_field(3)
        )
        assert report.excisable is True and report.ok

    def test_validation_flags_inexcisable_marked_face(self):
        from tilingcalc.surfaces import generate_theorem, validate_elementary_proof

        mc = non_grope_complex()
        report = validate_elementary_proof(
            mc, generate_theorem(mc), GroupSpec.finite_field(5)
        )
        assert report.excisable is False and not report.ok
        good = validate_elementary_proof(mc, generate_theorem(mc), GroupSpec.reals())
        assert good.excisable is True and good.ok


class TestClosingSigns:
    """Closing signs let `validate_elementary_proof` excise a marked face
    without a Smith normal form; they must agree with `can_excise`."""

    GROUPS = [
        GroupSpec.reals(),
        GroupSpec.complexes(),
        GroupSpec(False, (2,)),
        GroupSpec(False, (3,)),
        GroupSpec(False, (4,)),
        GroupSpec(True, (6,)),
    ]
    SURFACES = [desargues_tetrahedron, one_line_complex, pappus_torus_case1, pappus_torus_case2]

    def assert_faces_excise(self, K, faces):
        assert closing_signs(K) is not None
        for f in faces:
            assert all(can_excise(K, f, G) for G in self.GROUPS), f

    @pytest.mark.parametrize("builder", SURFACES)
    def test_every_face_of_a_fixture_and_its_subdivision_excises(self, builder):
        K = builder().complex
        self.assert_faces_excise(K, range(len(K.faces)))
        sub = octahedral_subdivide(builder())
        K = sub.complex
        # a Smith normal form per face costs about 60 ms on the 60-face
        # subdivided tori, so those take the marked face and two others
        faces = range(len(K.faces))
        if len(faces) > 40:
            faces = [sub.marked] + random.Random(len(faces)).sample(faces, 2)
        self.assert_faces_excise(K, faces)

    def test_every_face_of_random_closed_surfaces_excises(self):
        for seed in range(50):
            K = random_closed_surface(random.Random(seed), max_faces=12)
            self.assert_faces_excise(K, range(len(K.faces)))

    def spy_snf(self, monkeypatch):
        import tilingcalc.excision as excision

        calls = []

        def spy(A):
            calls.append(len(A))
            return smith_normal_form(A)

        monkeypatch.setattr(excision, "smith_normal_form", spy)
        _factorisation.cache_clear()
        excision._classes.cache_clear()
        return calls

    @pytest.mark.parametrize("name,snf", [("desargues", False), ("pappus", False), ("nine-gon", True)])
    def test_certificate_leaves_need_a_smith_normal_form_only_off_surfaces(
        self, monkeypatch, name, snf
    ):
        from dataclasses import replace

        from tilingcalc.certificates import SHIPPED_CERTIFICATES, validate_certificate

        cert = SHIPPED_CERTIFICATES[name]()
        # The shipped nine-gon certificate is over F_2*, the trivial group,
        # where every face excises without a Smith normal form; over R* and
        # F_3* its leaf, off any closed surface, still needs one.
        groups = [GroupSpec.reals(), GroupSpec.finite_field(3)] if name == "nine-gon" else [cert.group]
        for group in groups:
            calls = self.spy_snf(monkeypatch)
            assert validate_certificate(replace(cert, group=group)).ok
            assert bool(calls) == snf, group

    def test_no_smith_normal_form_over_the_trivial_group(self, monkeypatch):
        from tilingcalc.certificates import nine_gon_certificate, validate_certificate

        cert = nine_gon_certificate()
        assert cert.group == GroupSpec.finite_field(2) == GroupSpec(False, (1,))
        calls = self.spy_snf(monkeypatch)
        assert validate_certificate(cert).ok
        assert not calls

    def test_other_complexes_fall_through_with_the_same_verdicts(self, monkeypatch):
        from tilingcalc.complexes import nine_gon_grope
        from tilingcalc.ternary import IncidenceMatrix

        # a Klein bottle: one vertex, three loops, faces a·b·c⁻¹ and a·b⁻¹·c;
        # each edge lies on two face sides, but no signs orient them
        K = DeltaComplex(
            1, ((0, 0), (0, 0), (0, 0)), (((0, 1), (1, 1), (2, -1)), ((0, 1), (1, -1), (2, 1)))
        )
        klein_bottle = MarkedComplex(K, Labeling((2,), (1, 3, 4), (1, 2), (3, 4, 5)), 0)
        grope = nine_gon_grope()
        for mc, mat in (
            (klein_bottle, IncidenceMatrix([[0] * 5] * 4)),
            (grope, generate_theorem(grope)),
        ):
            assert closing_signs(mc.complex) is None
            verdicts = set()
            for G in self.GROUPS:
                calls = self.spy_snf(monkeypatch)
                report = validate_elementary_proof(mc, mat, G)
                assert calls
                assert report.excisable == can_excise(mc.complex, mc.marked, G)
                verdicts.add(report.excisable)
            assert verdicts == {True, False}


class TestRandomClosedSurfaces:
    def test_every_face_of_a_sphere_or_torus_excises(self):
        # subdivided fixtures give larger spheres and tori
        from tilingcalc.surfaces import octahedral_subdivide

        rng = random.Random(5)
        specs = [GroupSpec.reals(), GroupSpec.complexes()] + [
            GroupSpec(rng.choice([False, True]), tuple(rng.sample(range(2, 13), rng.randint(0, 2))))
            for _ in range(6)
        ]
        for builder in (one_line_complex, pappus_torus_case1):
            K = octahedral_subdivide(builder()).complex
            faces = rng.sample(range(len(K.faces)), 4)
            for f in faces:
                for G in specs:
                    assert can_excise(K, f, G)
