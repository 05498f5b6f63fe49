import random
from fractions import Fraction

import pytest

from tilingcalc.noncomm import (
    Commuting,
    DegenerateDenominator,
    FlatnessViolated,
    NotADisc,
    NotCollinear,
    Quaternion,
    SkewConfiguration,
    TriangulatedDisc,
    coboundary_values,
    collinear,
    desargues_soundness_sample,
    divide,
    evaluate_boundary,
    free_faces,
    hexagon_edge_values,
    homothety,
    incident_line,
    left_bracket,
    line_through,
    menelaus_check,
    pappus_counterexample,
    random_disc,
    random_quaternion,
    shell,
    verify_skew_configuration,
)
from tilingcalc.surfaces import DeltaComplex

ONE = Quaternion.one()
I, J, K = Quaternion.i(), Quaternion.j(), Quaternion.k()


def rational_point(rng):
    return (
        Quaternion.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
        Quaternion.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
    )


def single_triangle_disc():
    K_ = DeltaComplex(
        3, ((0, 1), (1, 2), (0, 2)), (((0, 1), (1, 1), (2, -1)),), simplicial=True
    )
    return TriangulatedDisc(K_, (0, 1, 2))


def two_triangle_disc():
    K_ = DeltaComplex(
        4,
        ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3)),
        (((0, 1), (1, 1), (2, -1)), ((2, 1), (3, 1), (4, -1))),
        simplicial=True,
    )
    return TriangulatedDisc(K_, (0, 1, 2, 3))


def disjoint_union(A, B):
    """A and B side by side, B's vertices and edges numbered after A's."""
    nv, ne = A.vertex_count, len(A.edges)
    edges = A.edges + tuple((t + nv, h + nv) for t, h in B.edges)
    faces = A.faces + tuple(tuple((e + ne, d) for e, d in f) for f in B.faces)
    return DeltaComplex(nv + B.vertex_count, edges, faces)


class TestQuaternion:
    def test_basis_products(self):
        assert I * J == K and J * I == -K
        assert J * K == I and K * J == -I
        assert K * I == J and I * K == -J
        assert I * I == J * J == K * K == Quaternion.of(-1)

    def test_random_ring_axioms(self):
        rng = random.Random(4)
        for _ in range(30):
            a, b, c = (random_quaternion(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c

    def test_inverse(self):
        rng = random.Random(9)
        for _ in range(20):
            q = random_quaternion(rng, nonzero=True)
            assert q * q.inverse() == ONE and q.inverse() * q == ONE
        with pytest.raises(DegenerateDenominator):
            Quaternion.zero().inverse()

    def test_json_round_trip(self):
        q = Quaternion.of(Fraction(1, 2), -3, Fraction(7, 5), 0)
        assert Quaternion.from_json(q.to_json()) == q
        assert q.to_json_obj() == ["1/2", "-3", "7/5", "0"]


class TestLeftBracket:
    def test_y_equals_x(self):
        X = (ONE, I)
        Z = (J, K)
        assert left_bracket(X, Z, X) == Quaternion.zero()

    def test_commutative_subcase_matches_rational_ratio(self):
        rng = random.Random(13)
        for _ in range(50):
            A, B = rational_point(rng), rational_point(rng)
            if A == B:
                continue
            k = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if k == 1:
                continue
            X = divide(A, B, Quaternion.of(k))
            # (A - X) = k (B - X) componentwise over the rationals
            assert left_bracket(A, B, X) == Quaternion.of(k)

    def test_constructed_quaternion_ratio(self):
        X = (Quaternion.of(1), Quaternion.of(2))
        Z = (Quaternion.of(2), Quaternion.of(1, 1))
        d = (Z[0] - X[0], Z[1] - X[1])
        Y = (I * d[0] + X[0], I * d[1] + X[1])
        assert left_bracket(Y, Z, X) == I

    def test_not_collinear(self):
        with pytest.raises(NotCollinear):
            left_bracket(
                (ONE, ONE), (Quaternion.of(2), Quaternion.zero()), (Quaternion.zero(), Quaternion.zero())
            )

    def test_degenerate_denominator(self):
        X = (ONE, ONE)
        with pytest.raises(DegenerateDenominator):
            left_bracket((Quaternion.of(2), ONE), X, X)


class TestMenelaus:
    def test_thousand_rational_transversals(self):
        rng = random.Random(2026)
        done = 0
        while done < 1000:
            A, B, C = (rational_point(rng) for _ in range(3))
            if collinear(A, B, C):
                continue
            k1 = Quaternion.of(Fraction(rng.randint(1, 9), rng.randint(1, 3)) + 1)
            k2 = Quaternion.of(-Fraction(rng.randint(1, 9), rng.randint(1, 3)))
            k3 = (k1 * k2).inverse()
            if ONE in (k1, k2, k3):
                continue
            D = divide(A, B, k1)
            E = divide(B, C, k2)
            F = divide(C, A, k3)
            assert menelaus_check(A, B, C, D, E, F)
            assert collinear(D, E, F)
            done += 1

    def test_quaternionic_perturbation_breaks_collinearity(self):
        A = (Quaternion.zero(), Quaternion.zero())
        B = (Quaternion.of(1), Quaternion.zero())
        C = (Quaternion.zero(), Quaternion.of(1))
        D = divide(A, B, I * Quaternion.of(2))
        E = divide(B, C, J)
        # the closing ratio is off by a non-unit factor
        F = divide(C, A, (I * Quaternion.of(2) * J).inverse() * Quaternion.of(3))
        assert not menelaus_check(A, B, C, D, E, F)
        assert not collinear(D, E, F)

    def test_degenerate_division_point(self):
        A = (Quaternion.zero(), Quaternion.zero())
        B = (Quaternion.of(1), Quaternion.zero())
        C = (Quaternion.zero(), Quaternion.of(1))
        with pytest.raises(ValueError):
            menelaus_check(A, B, C, A, divide(B, C, J), divide(C, A, K))

    def test_homothety_triple_with_unit_product_translates(self):
        rng = random.Random(3)
        for _ in range(20):
            C1, C2, C3 = (rational_point(rng) for _ in range(3))
            k1 = random_quaternion(rng, nonzero=True)
            k2 = random_quaternion(rng, nonzero=True)
            k3 = (k2 * k1).inverse()
            h = lambda X: homothety(C3, k3)(homothety(C2, k2)(homothety(C1, k1)(X)))
            P, Q = rational_point(rng), (I, J * Quaternion.of(2))
            dP = (h(P)[0] - P[0], h(P)[1] - P[1])
            dQ = (h(Q)[0] - Q[0], h(Q)[1] - Q[1])
            assert dP == dQ  # the composition is a translation


class TestDiscs:
    def test_single_face(self):
        D = single_triangle_disc()
        assert free_faces(D) == [0]
        assert shell(D) == []

    def test_two_faces_both_free(self):
        D = two_triangle_disc()
        assert free_faces(D) == [0, 1]
        assert shell(D) == [0]

    def test_not_a_disc(self):
        walk = ((0, 1), (1, 1), (2, -1))
        sphere = DeltaComplex(3, ((0, 1), (1, 2), (0, 2)), (walk, walk))
        with pytest.raises(NotADisc):
            TriangulatedDisc(sphere, (0, 1, 2))
        D = single_triangle_disc()
        with pytest.raises(NotADisc):
            TriangulatedDisc(D.complex, (0, 2, 1, 0))
        from tilingcalc.complexes import pappus_torus_case1
        from tilingcalc.gropes import fan_disc, triangle_sphere

        # a disc beside a closed surface: the sphere spoils the alternating
        # count, the torus (alternating count 0) only connectivity
        for closed in (triangle_sphere(), pappus_torus_case1().complex):
            with pytest.raises(NotADisc):
                TriangulatedDisc(disjoint_union(fan_disc(6).complex, closed), range(6))

    def test_two_hundred_random_discs_shell(self):
        rng = random.Random(97)
        sizes = []
        for _ in range(200):
            D = random_disc(rng, 50)
            nf = len(D.complex.faces)
            sizes.append(nf)
            assert nf == 1 or len(free_faces(D)) >= 2
            assert len(shell(D)) == nf - 1
        assert max(sizes) >= 40


class TestEvaluateBoundary:
    def test_coboundary_gives_identity(self):
        rng = random.Random(8)
        for _ in range(25):
            D = random_disc(rng, 30)
            gauge = [
                random_quaternion(rng, nonzero=True)
                for _ in range(D.complex.vertex_count)
            ]
            assert evaluate_boundary(D, coboundary_values(D.complex, gauge)) == ONE

    def test_flatness_violation(self):
        D = two_triangle_disc()
        gauge = [Quaternion.of(n + 1) for n in range(4)]
        vals = list(coboundary_values(D.complex, gauge))
        vals[3] = vals[3] * I
        with pytest.raises(FlatnessViolated):
            evaluate_boundary(D, tuple(vals))


class TestPappusCounterexample:
    def test_edge_values_flat_except_marked(self):
        from tilingcalc.complexes import pappus_torus_case1

        vals = hexagon_edge_values(I, J)
        mc = pappus_torus_case1()
        K, lab = mc.complex, mc.labeling
        for f, walk in enumerate(K.faces):
            acc = ONE
            for e, d in walk:
                v = vals[lab.p_edge[e]]
                acc = acc * (v if d == 1 else v.inverse())
            if f == mc.marked:
                assert acc == I * J * I.inverse() * J.inverse() == Quaternion.of(-1)
            else:
                assert acc == ONE

    def test_configuration_satisfies_hypotheses(self):
        from tilingcalc.complexes import pappus_torus_case1
        from tilingcalc.surfaces import mandated_cells

        cfg = pappus_counterexample(I, J)
        for kind, i, j, p, l, sign in mandated_cells(pappus_torus_case1()):
            on = incident_line(cfg.points[p - 1], cfg.lines[l - 1])
            assert on == (sign == 1), (kind, i, j)
        # the conclusion fails
        assert not incident_line(cfg.points[0], cfg.lines[0])

    def test_conclusion_ratio_product_is_minus_one(self):
        cfg = pappus_counterexample(I, J)
        A, B, C = cfg.points[9], cfg.points[10], cfg.points[11]
        product = (
            left_bracket(A, B, cfg.points[6])
            * left_bracket(B, C, cfg.points[0])
            * left_bracket(C, A, cfg.points[1])
        )
        assert product == Quaternion.of(-1)

    def test_commuting_rejected(self):
        with pytest.raises(Commuting):
            pappus_counterexample(I, I)
        with pytest.raises(Commuting):
            pappus_counterexample(Quaternion.of(2), J)

    def test_one_plus_i_one_plus_j(self):
        cfg = pappus_counterexample(Quaternion.of(1, 1), Quaternion.of(1, 0, 1))
        assert not incident_line(cfg.points[0], cfg.lines[0])

    def test_verify_against_matrix_form(self):
        from tilingcalc.complexes import pappus_torus_case1
        from tilingcalc.surfaces import mandated_cells
        from tilingcalc.ternary import IncidenceMatrix

        grid = [[0] * 9 for _ in range(12)]
        for _, _, _, p, l, sign in mandated_cells(pappus_torus_case1()):
            assert grid[p - 1][l - 1] != -sign
            grid[p - 1][l - 1] = sign
        grid[0][0] = -1  # refuted conclusion
        mat = IncidenceMatrix(grid)
        cfg = pappus_counterexample(I, J)
        assert verify_skew_configuration(mat, cfg)
        assert not verify_skew_configuration(
            mat.with_entry(1, 1, 1), cfg
        )

    def test_verify_rejects_size_mismatch(self):
        from tilingcalc.plane import DimensionMismatch
        from tilingcalc.ternary import IncidenceMatrix

        cfg = pappus_counterexample(I, J)  # 12 points, 9 lines
        for mat in (IncidenceMatrix([[0]]), IncidenceMatrix([[0] * 10] * 13)):
            with pytest.raises(DimensionMismatch):
                verify_skew_configuration(mat, cfg)

    def test_coincident_points_span_no_line(self):
        P = (Quaternion.of(1, 2), J)
        assert line_through(P, P) is None
        assert incident_line(P, line_through(P, (ONE, K)))

    def test_json_round_trip(self):
        cfg = pappus_counterexample(I, J)
        assert SkewConfiguration.from_json_obj(cfg.to_json_obj()) == cfg


class TestDesarguesSoundness:
    def test_hundred_trials_all_pass(self):
        report = desargues_soundness_sample(100, seed=2026)
        assert report["trials"] == 100 and report["passes"] == 100

    def test_zero_trials(self):
        assert desargues_soundness_sample(0)["passes"] == 0

    def test_degenerate_sample_rejected_and_regenerated(self):
        state = {"first": True}

        def sampler(rng):
            from tilingcalc.noncomm import _default_sampler

            base, gauge = _default_sampler(rng)
            if state["first"]:
                state["first"] = False
                base = [base[0], base[0], base[1], base[2]]  # collinear triple
            return base, gauge

        report = desargues_soundness_sample(3, seed=5, sampler=sampler)
        assert report["rejected"] >= 1 and report["passes"] == 3
