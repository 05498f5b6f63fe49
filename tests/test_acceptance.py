"""End-to-end acceptance checks, one test per headline claim.

Each test is self-contained and runs at desk scale; `pytest -v` prints
one pass/fail line per item.
"""

import random
from fractions import Fraction

from tilingcalc.catalog import (
    fano_closure_matrix,
    hexagon_closure_matrix,
    hexagon_counterexample,
    line_count_matrix,
    pappus_aux12_matrix,
    pappus_aux16_matrix,
    pappus_case1_golden,
    pappus_case2_golden,
    pappus_case3_golden,
    warmup_matrix,
)
from tilingcalc.certificates import SHIPPED_CERTIFICATES, validate_certificate
from tilingcalc.complexes import (
    bijective_pappus_torus,
    desargues_tetrahedron,
    nine_gon_grope,
    non_grope_complex,
    one_line_complex,
    pappus_torus_case1,
)
from tilingcalc.excision import (
    GroupSpec,
    can_excise,
    failing_cochain,
    oracle_can_excise,
)
from tilingcalc.fields import field
from tilingcalc.gropes import (
    fan_disc,
    grope_base,
    grope_glue,
    random_closed_surface,
    random_grope,
    triangle_sphere,
    two_stage_grope_complex,
)
from tilingcalc.noncomm import (
    Quaternion,
    coboundary_values,
    collinear,
    desargues_soundness_sample,
    divide,
    evaluate_boundary,
    free_faces,
    incident_line,
    left_bracket,
    menelaus_check,
    pappus_counterexample,
    random_disc,
)
from tilingcalc.plane import incident
from tilingcalc.realize import multiplicative_cochain, realize_from_cochain
from tilingcalc.search import check_theorem, verify_configuration
from tilingcalc.surfaces import generate_theorem, octahedral_subdivide
from tilingcalc.ternary import propagate


def test_01_propagation_reproduces_the_recorded_case_matrices():
    assert propagate(pappus_aux12_matrix(), [(10, 4, -1)]) == pappus_case1_golden()
    case2 = propagate(pappus_aux16_matrix(), [(1, 1, -1), (10, 10, -1)])
    assert case2 == pappus_case2_golden()
    assert case2.zero_cells() == [(10, 4), (11, 2), (12, 3)]
    case3 = propagate(pappus_aux16_matrix(), [(1, 1, -1), (10, 10, 1)])
    assert case3 == pappus_case3_golden()
    assert case3.entry(10, 4) == -1


def test_02_finite_field_verdicts_for_the_three_reference_statements():
    line_full = line_count_matrix(2)
    assert check_theorem(line_full, 2).outcome == "true"
    assert check_theorem(line_full, 3).outcome == "counterexample"
    assert check_theorem(line_full, 4).outcome == "counterexample"
    for q in (2, 3, 5):
        assert check_theorem(warmup_matrix(), q).outcome == "true"
    assert check_theorem(fano_closure_matrix(), 2).outcome == "counterexample"
    assert check_theorem(fano_closure_matrix(), 3).outcome == "true"
    assert check_theorem(fano_closure_matrix(), 5).outcome == "true"


def test_03_documented_6_gon_counterexample_verifies_over_order_three():
    config = hexagon_counterexample()
    assert verify_configuration(hexagon_closure_matrix(), config)
    assert not incident(field(3), config.points[0], config.lines[0])


def test_04_excision_decision_agrees_with_the_exhaustive_oracle():
    fixtures = (
        desargues_tetrahedron().complex,
        octahedral_subdivide(one_line_complex()).complex,
        pappus_torus_case1().complex,
        nine_gon_grope().complex,
        two_stage_grope_complex().complex,
        non_grope_complex().complex,
    )
    for K in fixtures:
        for f in range(len(K.faces)):
            for n in range(2, 9):
                assert can_excise(K, f, GroupSpec(False, (n,))) == oracle_can_excise(
                    K, f, n
                )


def test_05_wrapped_9_gon_fails_exactly_over_three_torsion_and_realizes():
    mc = nine_gon_grope()
    K = mc.complex
    assert can_excise(K, mc.marked, GroupSpec.finite_field(2))
    assert can_excise(K, mc.marked, GroupSpec.finite_field(8))
    assert not can_excise(K, mc.marked, GroupSpec.finite_field(4))
    u = failing_cochain(K, mc.marked, 3)
    assert u is not None
    cfg = realize_from_cochain(mc, multiplicative_cochain(u, 4), 4)
    mat = generate_theorem(mc)
    assert cfg is not None and verify_configuration(mat, cfg)
    assert not incident(field(4), cfg.points[0], cfg.lines[0])
    assert check_theorem(mat, 2).outcome == "true"


def test_06_coupled_complex_fails_over_four_torsion_and_realizes():
    mc = non_grope_complex()
    K = mc.complex
    assert can_excise(K, mc.marked, GroupSpec.reals())
    assert not can_excise(K, mc.marked, GroupSpec.finite_field(5))
    u = failing_cochain(K, mc.marked, 4)
    assert u is not None
    cfg = realize_from_cochain(mc, multiplicative_cochain(u, 5), 5)
    assert cfg is not None and verify_configuration(generate_theorem(mc), cfg)
    assert not incident(field(5), cfg.points[0], cfg.lines[0])


def test_07_every_face_of_random_closed_surfaces_excises_over_random_groups():
    rng = random.Random(20260823)
    specs = [
        GroupSpec.reals(),
        GroupSpec.complexes(),
        GroupSpec.finite_field(4),
        GroupSpec.rational_functions(5),
    ] + [
        GroupSpec(
            rng.choice([False, True]),
            "full"
            if rng.random() < 0.15
            else tuple(rng.sample(range(1, 13), rng.randint(0, 3))),
        )
        for _ in range(16)
    ]
    assert len(specs) == 20
    genera = set()
    for _ in range(50):
        K = random_closed_surface(rng)
        assert len(K.faces) <= 40
        genera.add((2 - (K.vertex_count - len(K.edges) + len(K.faces))) // 2)
        for f in range(len(K.faces)):
            for G in specs:
                assert can_excise(K, f, G)
    assert genera <= {0, 1, 2}


def test_08_random_gropes_excise_and_coprimality_is_sharp():
    rng = random.Random(801)
    specs = [
        GroupSpec.reals(),
        GroupSpec.finite_field(2),
        GroupSpec.finite_field(8),
        GroupSpec.rational_functions(3),
    ]
    for _ in range(100):
        G = rng.choice(specs)
        gr = random_grope(rng, G, ks=(3, 5, 7))
        assert len(gr.gluings) <= 3
        for f in range(len(gr.complex.faces)):
            assert can_excise(gr.complex, f, G)
    # dropping torsion-coprimality breaks excision for each wrap count
    for k in (3, 5, 7):
        gr = grope_glue(
            grope_base(triangle_sphere()), 0, fan_disc(3 * k), k, GroupSpec.reals()
        )
        bad = GroupSpec(False, (k,))
        assert all(can_excise(gr.complex, f, GroupSpec.reals()) for f in range(len(gr.complex.faces)))
        assert not all(can_excise(gr.complex, f, bad) for f in range(len(gr.complex.faces)))


def test_09_shipped_certificates_validate_and_their_theorems_hold():
    for name, build in SHIPPED_CERTIFICATES.items():
        cert = build()
        report = validate_certificate(cert)
        assert report.ok, name
        if name == "pappus":
            assert len(report.leaves) == 4  # three real cases plus a tautology branch
        for q in (2, 3):
            if cert.group == GroupSpec.finite_field(q):
                assert check_theorem(cert.base_matrix, q).outcome == "true", name


def test_10_skew_field_suite():
    one = Quaternion.one()
    i, j = Quaternion.i(), Quaternion.j()
    # (a) ratio-product criterion matches collinearity on 1000 instances
    rng = random.Random(1009)
    point = lambda: (
        Quaternion.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
        Quaternion.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
    )
    done = 0
    while done < 1000:
        A, B, C = point(), point(), point()
        if collinear(A, B, C):
            continue
        k1 = Quaternion.of(Fraction(rng.randint(1, 9), rng.randint(1, 3)) + 1)
        k2 = Quaternion.of(-Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        k3 = (k1 * k2).inverse()
        if one in (k1, k2, k3):
            continue
        D, E, F = divide(A, B, k1), divide(B, C, k2), divide(C, A, k3)
        assert menelaus_check(A, B, C, D, E, F) and collinear(D, E, F)
        done += 1
    # (b) the quaternionic hexagon configuration refutes the conclusion
    cfg = pappus_counterexample(i, j)
    assert not incident_line(cfg.points[0], cfg.lines[0])
    A, B, C = cfg.points[9], cfg.points[10], cfg.points[11]
    product = (
        left_bracket(A, B, cfg.points[6])
        * left_bracket(B, C, cfg.points[0])
        * left_bracket(C, A, cfg.points[1])
    )
    assert product == Quaternion.of(-1) != one
    # (c) flat samples never violate the ten-point conclusion
    sample = desargues_soundness_sample(100)
    assert sample["trials"] == sample["passes"] == 100
    # (d) 200 generated discs: free faces exist and flat boundaries close
    rng = random.Random(1010)
    for _ in range(200):
        D = random_disc(rng)
        if len(D.complex.faces) > 1:
            assert len(free_faces(D)) >= 2
        gauge = [Quaternion.of(1, rng.randint(-2, 2), rng.randint(-2, 2), 1)
                 for _ in range(D.complex.vertex_count)]
        assert evaluate_boundary(D, coboundary_values(D.complex, gauge)) == one


def test_11_excisability_predicts_finite_field_verdicts_both_ways():
    cases = (
        (desargues_tetrahedron(), (2, 3)),
        (one_line_complex(), (2, 3)),
        (bijective_pappus_torus(), (2, 3)),
        (nine_gon_grope(), (2, 4)),
        (non_grope_complex(), (2, 3, 5)),
    )
    for mc, qs in cases:
        mat = generate_theorem(mc)
        for q in qs:
            if can_excise(mc.complex, mc.marked, GroupSpec.finite_field(q)):
                assert check_theorem(mat, q).outcome == "true", (q, mat)
            else:
                n = GroupSpec.finite_field(q).torsion[0]
                u = failing_cochain(mc.complex, mc.marked, n)
                assert u is not None
                cfg = realize_from_cochain(mc, multiplicative_cochain(u, q), q)
                assert cfg is not None and verify_configuration(mat, cfg)
                assert not incident(field(q), cfg.points[0], cfg.lines[0])


def test_12_field_spectrum_of_each_generated_complex_decides_the_search():
    # over every field order up to nine the tiling alone predicts the
    # verdict: where its face excises over F_q* the theorem holds, and where
    # it does not a failing cochain realizes a counterexample; the search at
    # the benchmark's 12,000-node budget must reach the same verdict
    for mc in (
        desargues_tetrahedron(),
        one_line_complex(),
        bijective_pappus_torus(),
        nine_gon_grope(),
        non_grope_complex(),
    ):
        mat = generate_theorem(mc)
        for q in (2, 3, 4, 5, 7, 8, 9):
            outcome = check_theorem(mat, q, node_budget=12_000).outcome
            if can_excise(mc.complex, mc.marked, GroupSpec.finite_field(q)):
                assert outcome == "true", (mat, q)
                continue
            u = failing_cochain(mc.complex, mc.marked, q - 1)
            cfg = realize_from_cochain(mc, multiplicative_cochain(u, q), q)
            assert cfg is not None and verify_configuration(mat, cfg), (mat, q)
            assert not incident(field(q), cfg.points[0], cfg.lines[0])
            assert outcome == "counterexample", (mat, q)


def test_13_field_spectrum_past_order_nine_decides_the_search():
    # test_12's check over the orders 11, 13 and 16 at a 20,000-node budget,
    # but 30,000 for non-grope over order 16, which holds there and takes
    # 24,464 nodes to show it.
    budgets = {11: 20_000, 13: 20_000, 16: 20_000}
    cases = (
        (desargues_tetrahedron(), budgets),
        (one_line_complex(), budgets),
        (bijective_pappus_torus(), budgets),
        (nine_gon_grope(), budgets),
        (non_grope_complex(), {**budgets, 16: 30_000}),
    )
    for mc, qs in cases:
        mat = generate_theorem(mc)
        for q, budget in qs.items():
            outcome = check_theorem(mat, q, node_budget=budget).outcome
            if can_excise(mc.complex, mc.marked, GroupSpec.finite_field(q)):
                assert outcome == "true", (mat, q)
                continue
            u = failing_cochain(mc.complex, mc.marked, q - 1)
            cfg = realize_from_cochain(mc, multiplicative_cochain(u, q), q)
            assert cfg is not None and verify_configuration(mat, cfg), (mat, q)
            assert not incident(field(q), cfg.points[0], cfg.lines[0])
            assert outcome == "counterexample", (mat, q)
