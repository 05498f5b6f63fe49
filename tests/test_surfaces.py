import contextlib
import hashlib
import io
import json
import random

import pytest

from tilingcalc.catalog import (
    axiom_matrix,
    one_line_matrix,
    pappus_case1_golden,
    pappus_case2_golden,
)
from tilingcalc.cli import main
from tilingcalc.complexes import (
    bijective_pappus_torus,
    desargues_tetrahedron,
    nine_gon_grope,
    non_grope_complex,
    one_line_complex,
    pappus_torus_case1,
    pappus_torus_case2,
)
from tilingcalc.excision import GroupSpec, can_excise, failing_cochain
from tilingcalc.gropes import random_closed_surface
from tilingcalc.noncomm import (
    Quaternion,
    coboundary_values,
    desargues_soundness_sample,
    divide,
    incident_line,
    line_through,
    random_disc,
)
from tilingcalc.realize import multiplicative_cochain, realize_from_cochain
from tilingcalc.search import check_theorem
from tilingcalc.surfaces import (
    BadComplex,
    DegenerateFace,
    DeltaComplex,
    Labeling,
    MarkedComplex,
    MarkedFaceMismatch,
    NotBijective,
    NotSimplicial,
    euler_characteristic,
    generate_theorem,
    is_closed_orientable_surface,
    octahedral_subdivide,
    mandated_cells,
    place_tiling,
    validate_elementary_proof,
)
from tilingcalc.ternary import contradiction_form


def one_vertex_complex(face2):
    """Two triangles over a single vertex and three loop edges a, b, c;
    the first face is always (a, b, c^-1)."""
    return DeltaComplex(
        1, ((0, 0), (0, 0), (0, 0)), (((0, 1), (1, 1), (2, -1)), face2)
    )


def pairwise_simplicial_violation(K):
    """The quadratic check that `DeltaComplex._check_simplicial` replaces,
    kept as its reference: the message of the first violation, or None."""
    for t, h in K.edges:
        if t == h:
            return "edge with equal endpoints"
    seen = {}
    for e, (t, h) in enumerate(K.edges):
        key = frozenset((t, h))
        if key in seen:
            return f"edges {seen[key]} and {e} share endpoints"
        seen[key] = e
    for f in range(len(K.faces)):
        if len(set(K.face_vertices(f))) != 3:
            return f"face {f} has repeated vertices"
    for f in range(len(K.faces)):
        for g in range(f + 1, len(K.faces)):
            shared_v = set(K.face_vertices(f)) & set(K.face_vertices(g))
            shared_e = set(K.face_edges(f)) & set(K.face_edges(g))
            if len(shared_e) > 1:
                return f"faces {f} and {g} share two edges"
            if len(shared_e) == 1:
                if shared_v != set(K.edges[next(iter(shared_e))]):
                    return f"faces {f} and {g} meet beyond their shared edge"
            elif len(shared_v) > 1:
                return f"faces {f} and {g} share vertices but no edge"
    return None


def random_triangle_soup(rng):
    """Triangles on random vertex triples of a few vertices, one edge per
    vertex pair, stored in a random direction."""
    n = rng.randint(4, 7)
    edges, index, faces = [], {}, []
    for _ in range(rng.randint(2, 10)):
        corners = rng.sample(range(n), 3)
        walk = []
        for k in range(3):
            a, b = corners[k], corners[(k + 1) % 3]
            key = frozenset((a, b))
            if key not in index:
                index[key] = len(edges)
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
            e = index[key]
            walk.append((e, 1 if edges[e] == (a, b) else -1))
        faces.append(tuple(walk))
    return DeltaComplex(n, tuple(edges), tuple(faces))


class TestDeltaComplex:
    def test_walk_must_chain(self):
        with pytest.raises(BadComplex):
            DeltaComplex(3, ((0, 1), (1, 2), (0, 2)), (((0, 1), (1, 1), (2, 1)),))

    def test_edge_out_of_range(self):
        with pytest.raises(BadComplex):
            DeltaComplex(2, ((0, 3),), ())

    def test_missing_edge_in_face(self):
        with pytest.raises(BadComplex):
            DeltaComplex(2, ((0, 1),), (((0, 1), (5, 1), (0, -1)),))

    def test_simplicial_rejects_loop(self):
        with pytest.raises(NotSimplicial):
            DeltaComplex(1, ((0, 0),), (), simplicial=True)

    def test_simplicial_rejects_parallel_edges(self):
        with pytest.raises(NotSimplicial):
            DeltaComplex(2, ((0, 1), (0, 1)), (), simplicial=True)

    def test_simplicial_check_matches_the_pairwise_reference(self):
        rng = random.Random(11)
        complexes = [random_closed_surface(rng, max_faces=16) for _ in range(100)]
        complexes += [random_triangle_soup(rng) for _ in range(400)]
        complexes += [
            octahedral_subdivide(builder()).complex
            for builder in (desargues_tetrahedron, one_line_complex, pappus_torus_case1)
        ]
        messages = []
        for K in complexes:
            try:
                DeltaComplex(K.vertex_count, K.edges, K.faces, simplicial=True)
                messages.append(None)
            except NotSimplicial as exc:
                messages.append(str(exc))
        assert messages == [pairwise_simplicial_violation(K) for K in complexes]
        assert {m is None for m in messages} == {True, False}

    def test_face_accessors(self):
        K = desargues_tetrahedron().complex
        assert K.face_vertices(3) == (0, 1, 3)
        assert sorted(K.faces_of_edge(0)) == [0, 3]

    def test_json_round_trip(self):
        K = pappus_torus_case1().complex
        assert DeltaComplex.from_json_obj(K.to_json_obj()) == K


class TestSurfaceRecognition:
    def test_tetrahedron_is_a_sphere(self):
        K = desargues_tetrahedron().complex
        assert is_closed_orientable_surface(K) is not None
        assert euler_characteristic(K) == 2

    def test_two_triangle_sphere(self):
        K = one_line_complex().complex
        assert is_closed_orientable_surface(K) is not None
        assert euler_characteristic(K) == 2

    def test_six_triangle_torus(self):
        for mc in (pappus_torus_case1(), pappus_torus_case2()):
            assert is_closed_orientable_surface(mc.complex) is not None
            assert euler_characteristic(mc.complex) == 0

    def test_orientation_signs_flip_with_a_reversed_face(self):
        mc = pappus_torus_case1()
        K = mc.complex
        flipped_face = tuple((e, -d) for e, d in reversed(K.faces[0]))
        K2 = DeltaComplex(
            K.vertex_count, K.edges, (flipped_face,) + K.faces[1:]
        )
        signs = is_closed_orientable_surface(K2)
        assert signs is not None

    def test_one_vertex_torus(self):
        K = one_vertex_complex(((0, -1), (1, -1), (2, 1)))
        assert is_closed_orientable_surface(K) is not None
        assert euler_characteristic(K) == 0

    def test_one_vertex_nonorientable_square(self):
        K = one_vertex_complex(((0, 1), (1, -1), (2, 1)))
        assert is_closed_orientable_surface(K) is None

    def test_edge_on_four_faces_rejected(self):
        K = non_grope_complex().complex
        assert is_closed_orientable_surface(K) is None

    def test_pinched_spheres_rejected(self):
        # two spheres wedged at vertex 0: the link there is two cycles
        walk_a = ((0, 1), (1, 1), (2, -1))
        walk_b = ((3, 1), (4, 1), (5, -1))
        K = DeltaComplex(
            5,
            ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)),
            (walk_a, walk_a, walk_b, walk_b),
        )
        assert is_closed_orientable_surface(K) is None

    def test_open_disc_rejected(self):
        K = DeltaComplex(3, ((0, 1), (1, 2), (0, 2)), (((0, 1), (1, 1), (2, -1)),))
        assert is_closed_orientable_surface(K) is None


class TestMarkedComplex:
    def test_marked_face_must_hold_the_labels_1_1_pair(self):
        mc = one_line_complex()
        with pytest.raises(MarkedFaceMismatch):
            MarkedComplex(mc.complex, mc.labeling, 1)

    def test_duplicate_unit_pairs_rejected(self):
        mc = one_line_complex()
        lab = mc.labeling
        bad = Labeling(lab.p_vertex, lab.p_edge, (1, 1), lab.l_edge)
        with pytest.raises(MarkedFaceMismatch):
            MarkedComplex(mc.complex, bad, 0)

    @pytest.mark.parametrize(
        "builder",
        [
            desargues_tetrahedron,
            one_line_complex,
            pappus_torus_case1,
            pappus_torus_case2,
            non_grope_complex,
        ],
    )
    def test_json_round_trip(self, builder):
        mc = builder()
        assert MarkedComplex.from_json(mc.to_json()) == mc

    def test_zero_pair_location(self):
        mc = desargues_tetrahedron()
        e, f = mc.zero_pair()
        assert f == mc.marked == 3
        assert mc.labeling.p_edge[e] == 1


class TestGenerateTheorem:
    def test_one_line_matrix_reproduced_exactly(self):
        assert generate_theorem(one_line_complex()) == one_line_matrix()

    def test_requires_bijective_labels(self):
        with pytest.raises(NotBijective):
            generate_theorem(pappus_torus_case1())

    def test_desargues_shape(self):
        mat = generate_theorem(desargues_tetrahedron())
        assert (mat.m, mat.n) == (10, 10)
        assert mat.entry(1, 1) == 0
        # the conclusion transversal carries the three marked-face side
        # points and nothing else is forced on it
        assert [mat.entry(i, 1) for i in range(1, 11)].count(1) == 2

    @pytest.mark.parametrize(
        "builder",
        [desargues_tetrahedron, one_line_complex, bijective_pappus_torus, non_grope_complex],
    )
    def test_generated_matrix_validates_its_own_complex(self, builder):
        mc = builder()
        report = validate_elementary_proof(mc, generate_theorem(mc))
        assert report.ok and report.excisable is None

    def test_non_grope_shape(self):
        mat = generate_theorem(non_grope_complex())
        assert (mat.m, mat.n) == (16, 22)


class TestValidation:
    def test_pappus_case1_against_golden(self):
        report = validate_elementary_proof(pappus_torus_case1(), pappus_case1_golden())
        assert report.ok
        assert report.zero_pairs == [(3, 5)]

    def test_pappus_case2_against_golden_contradiction_form(self):
        mat = contradiction_form(pappus_case2_golden(), 14, 8)
        report = validate_elementary_proof(pappus_torus_case2(), mat)
        assert report.ok

    def test_one_line_against_golden(self):
        assert validate_elementary_proof(one_line_complex(), one_line_matrix()).ok

    def test_plus_violation_reported(self):
        broken = pappus_case1_golden().with_entry(7, 1, 0)
        report = validate_elementary_proof(pappus_torus_case1(), broken)
        assert not report.ok
        assert ("ef", 2, 5, 7, 1) in report.plus_violations
        assert not report.minus_violations

    def test_minus_violation_reported(self):
        broken = pappus_case1_golden().with_entry(12, 3, 1)
        report = validate_elementary_proof(pappus_torus_case1(), broken)
        assert not report.ok
        assert report.minus_violations and not report.plus_violations

    def test_labels_beyond_matrix_rejected(self):
        with pytest.raises(ValueError):
            validate_elementary_proof(one_line_complex(), axiom_matrix())

    def test_report_json_shape(self):
        obj = validate_elementary_proof(
            one_line_complex(), one_line_matrix()
        ).to_json_obj()
        assert obj["ok"] is True
        assert obj["excisable"] is None
        assert obj["plusViolations"] == [] and obj["minusViolations"] == []


class TestOctahedralSubdivision:
    def test_one_line_becomes_the_octahedron(self):
        sub = octahedral_subdivide(one_line_complex())
        K = sub.complex
        assert K.simplicial
        assert (K.vertex_count, len(K.edges), len(K.faces)) == (6, 12, 8)
        assert euler_characteristic(K) == 2
        assert is_closed_orientable_surface(K) is not None
        # every vertex of the octahedron has degree four
        degree = [0] * 6
        for t, h in K.edges:
            degree[t] += 1
            degree[h] += 1
        assert degree == [4] * 6
        assert sub.labeling.l_face.count(1) == 1
        assert sub.labeling.l_face.count(2) == 7

    @pytest.mark.parametrize(
        "builder,euler",
        [
            (desargues_tetrahedron, 2),
            (one_line_complex, 2),
            (pappus_torus_case1, 0),
            (pappus_torus_case2, 0),
        ],
    )
    def test_surface_and_euler_preserved(self, builder, euler):
        sub = octahedral_subdivide(builder())
        assert sub.complex.simplicial
        assert euler_characteristic(sub.complex) == euler
        assert is_closed_orientable_surface(sub.complex) is not None

    def test_validation_preserved_one_line(self):
        sub = octahedral_subdivide(one_line_complex())
        assert validate_elementary_proof(sub, one_line_matrix()).ok

    def test_validation_preserved_desargues(self):
        mat = generate_theorem(desargues_tetrahedron())
        sub = octahedral_subdivide(desargues_tetrahedron())
        assert validate_elementary_proof(sub, mat).ok

    def test_validation_preserved_pappus_case1(self):
        sub = octahedral_subdivide(pappus_torus_case1())
        assert validate_elementary_proof(sub, pappus_case1_golden()).ok

    def test_marked_face_kept_whole(self):
        mc = pappus_torus_case1()
        sub = octahedral_subdivide(mc)
        assert sub.labeling.l_face[sub.marked] == 1
        marked_points = sorted(
            sub.labeling.p_edge[e] for e in sub.complex.face_edges(sub.marked)
        )
        original = sorted(
            mc.labeling.p_edge[e] for e in mc.complex.face_edges(mc.marked)
        )
        assert marked_points == original

    def test_degenerate_face_rejected(self):
        K = one_vertex_complex(((0, -1), (1, -1), (2, 1)))
        lab = Labeling((2,), (1, 3, 4), (1, 2), (5, 6, 7))
        mc = MarkedComplex(K, lab, 0)
        with pytest.raises(DegenerateFace):
            octahedral_subdivide(mc)


class TestGeneratedTheoremsHold:
    @pytest.mark.parametrize("q", [2, 3])
    def test_desargues_true_over_small_orders(self, q):
        mat = generate_theorem(desargues_tetrahedron())
        assert check_theorem(mat, q).outcome == "true"

    @pytest.mark.parametrize("q", [2, 3])
    def test_one_line_true_over_small_orders(self, q):
        mat = generate_theorem(one_line_complex())
        assert check_theorem(mat, q).outcome == "true"


class TestWouldBe6Gon:
    """The six-triangle 'proof' of the closed 6-gon statement is not a
    proof: the +1 mandates all hold, but the -1 mandates for vertex
    distinctness fail (the three corners may coincide)."""

    def test_structure_is_a_valid_marked_complex(self):
        from tilingcalc.complexes import would_be_6_gon

        mc = would_be_6_gon()
        assert mc.zero_pair() == (0, 5)
        assert euler_characteristic(mc.complex) == 1

    def test_minus_property_fails_at_corner_cells(self):
        from tilingcalc.catalog import hexagon_would_be_matrix
        from tilingcalc.complexes import would_be_6_gon

        report = validate_elementary_proof(would_be_6_gon(), hexagon_would_be_matrix())
        assert not report.ok
        assert not report.plus_violations
        cells = {(p, l) for *_, p, l in report.minus_violations}
        # the three corners are never forced apart: corner 9 may land on
        # the transversal (line 9), corners 10/11 on the wrong carrier
        assert {(9, 9), (10, 3), (11, 2)} <= cells


class TestPlaceTiling:
    """The tetrahedron placed in the quaternion plane from four base
    points and edge values g(tail)·g(head)⁻¹."""

    BASE = [(Quaternion.of(x), Quaternion.of(y)) for x, y in ((0, 0), (1, 0), (0, 1), (2, 3))]
    GAUGE = [Quaternion.of(2), Quaternion.i(), Quaternion.j(), Quaternion.of(1, 1, 1, 0)]

    def place(self, values):
        mc = desargues_tetrahedron()
        return place_tiling(mc, self.BASE, values, divide, line_through, incident_line)

    def test_flat_values_place_every_label(self):
        mc = desargues_tetrahedron()
        points, lines = self.place(coboundary_values(mc.complex, self.GAUGE))
        assert len(points) == mc.labeling.max_point() and None not in points
        assert len(lines) == mc.labeling.max_line() and None not in lines
        for _, _, _, p, l, sign in mandated_cells(mc):
            assert incident_line(points[p - 1], lines[l - 1]) == (sign == 1)
        # the values telescope around the marked face too: the conclusion holds
        assert incident_line(points[0], lines[0])

    def test_a_non_flat_face_places_nothing(self):
        mc = desargues_tetrahedron()
        K = mc.complex
        values = list(coboundary_values(K, self.GAUGE))
        # twist an edge whose two faces are both hypotheses
        e = next(
            e for e in range(len(K.edges)) if mc.marked not in K.faces_of_edge(e)
        )
        values[e] = values[e] * Quaternion.k()
        assert self.place(values) is None


def digest(objs) -> str:
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


class TestPinnedPlacements:
    """The configurations built from a labeled tiling and its edge values,
    over GF(q) and over the quaternions, and the random discs, pinned by
    SHA-256 digests of their JSON: a change to how a tiling is placed
    keeps every output byte for byte."""

    def test_quaternion_hexagon_reports(self):
        reports = []
        for u, v in (
            ("i", "j"),
            ("1,1,0,0", "1,0,1,0"),
            ("j", "k"),
            ("1/2,1,0,3", "2,0,1,-1"),
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["quat", "pappus", "--u", u, "--v", v]) == 1
            reports.append(out.getvalue())
        assert digest(reports) == (
            "000dac3a31fc6625c92195fef3a7de6567a86596b36b066624fcd0a23e672be9"
        )

    def test_finite_field_counterexamples(self):
        # every generated complex and order up to 16 where the marked face
        # fails to excise over F_q*: seven realized counterexamples
        configs = []
        for mc in (
            desargues_tetrahedron(),
            one_line_complex(),
            bijective_pappus_torus(),
            nine_gon_grope(),
            non_grope_complex(),
        ):
            for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
                if can_excise(mc.complex, mc.marked, GroupSpec.finite_field(q)):
                    continue
                u = failing_cochain(mc.complex, mc.marked, q - 1)
                cfg = realize_from_cochain(mc, multiplicative_cochain(u, q), q)
                configs.append(cfg.to_json_obj())
        assert len(configs) == 7
        assert digest(configs) == (
            "ac15b26e34e8895ada14265c6277dfb9c73e88a339529021adb492c72da939c3"
        )

    def test_sphere_soundness_sample(self):
        assert digest(desargues_soundness_sample(200, seed=7)) == (
            "56e1d5bc5b03c313a95989af62ca4fd61c721ad2f64ec8e2ba5daff1badc1dfe"
        )

    def test_random_discs(self):
        rng = random.Random(3)
        discs = []
        for _ in range(50):
            D = random_disc(rng, 40)
            discs.append([D.complex.to_json_obj(), list(D.boundary)])
        assert digest(discs) == (
            "644af8e23b007baeb6f563c00dd37a4bcd03035a5491b29a5a0f12fb35060329"
        )
