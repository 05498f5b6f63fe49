import random

import pytest

from tilingcalc.complexes import nine_gon_grope, pappus_torus_case1
from tilingcalc.excision import (
    GroupSpec,
    can_excise,
    oracle_can_excise,
)
from tilingcalc.gropes import (
    BadBoundary,
    BoundedSurface,
    Grope,
    NotAClosedOrientableSurface,
    NotTorsionCoprime,
    fan_disc,
    genus_two_surface,
    grope_base,
    grope_glue,
    nine_gon_grope_complex,
    random_closed_surface,
    random_grope,
    stellar_subdivide_face,
    triangle_sphere,
    two_stage_grope_complex,
)
from tilingcalc.surfaces import DeltaComplex, FaceNotFound, is_closed_orientable_surface

from test_surfaces import euler_characteristic


def from_triangles(nv, triangles):
    """Delta complex on nv vertices from vertex triples, with one edge
    per unordered pair stored low to high."""
    edges, faces = {}, []
    for tri in triangles:
        walk = []
        for a, b in zip(tri, tri[1:] + tri[:1]):
            key = (min(a, b), max(a, b))
            e = edges.setdefault(key, len(edges))
            walk.append((e, 1 if (a, b) == key else -1))
        faces.append(tuple(walk))
    return DeltaComplex(nv, tuple(edges), tuple(faces))


def disjoint_union(A, B):
    """A and B side by side, B's vertices and edges numbered after A's."""
    nv, ne = A.vertex_count, len(A.edges)
    edges = A.edges + tuple((t + nv, h + nv) for t, h in B.edges)
    faces = A.faces + tuple(tuple((e + ne, d) for e, d in f) for f in B.faces)
    return DeltaComplex(nv + B.vertex_count, edges, faces)


class TestFanDisc:
    def test_counts(self):
        disc = fan_disc(9)
        K = disc.complex
        assert (K.vertex_count, len(K.edges), len(K.faces)) == (10, 18, 9)
        assert euler_characteristic(K) == 1
        assert disc.boundary == tuple(range(9))

    def test_rim_edges_single_use(self):
        disc = fan_disc(6)
        for i in range(6):
            e, fwd = disc.rim_edge(i)
            assert fwd == 1
            assert len(disc.complex.faces_of_edge(e)) == 1

    def test_too_few_sides(self):
        with pytest.raises(ValueError):
            fan_disc(2)

    def test_bad_boundary_declaration(self):
        disc = fan_disc(6)
        with pytest.raises(BadBoundary):
            BoundedSurface(disc.complex, (0, 1, 2))
        with pytest.raises(BadBoundary):
            BoundedSurface(disc.complex, (0, 2, 4, 1, 3, 5))

    def test_moebius_band_rejected(self):
        # five triangles (i, i+1, i+2) mod 5: the rim is the 5-cycle of
        # the skipping edges, and the strip closes up with a half twist
        band = from_triangles(5, [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)])
        with pytest.raises(BadBoundary, match="non-orientable"):
            BoundedSurface(band, (0, 2, 4, 1, 3))

    def test_disc_plus_disjoint_sphere_rejected(self):
        K = disjoint_union(fan_disc(6).complex, triangle_sphere())
        with pytest.raises(BadBoundary, match="disconnected"):
            BoundedSurface(K, tuple(range(6)))


class TestGropeBase:
    def test_surfaces_accepted(self):
        for S in (triangle_sphere(), pappus_torus_case1().complex, genus_two_surface()):
            gr = grope_base(S)
            assert gr.complexity == 0

    def test_disc_rejected(self):
        with pytest.raises(NotAClosedOrientableSurface):
            grope_base(fan_disc(9).complex)

    def test_non_grope_rejected(self):
        from tilingcalc.complexes import non_grope_complex

        with pytest.raises(NotAClosedOrientableSurface):
            grope_base(non_grope_complex().complex)


class TestGropeGlue:
    def test_nine_gon_construction_matches_fixture(self):
        built = nine_gon_grope_complex().complex
        fixture = nine_gon_grope().complex
        assert built.vertex_count == fixture.vertex_count == 4
        assert len(built.edges) == len(fixture.edges) == 12
        assert len(built.faces) == len(fixture.faces) == 10
        profile = lambda K: sorted(
            tuple(oracle_can_excise(K, f, n) for n in range(2, 7))
            for f in range(len(K.faces))
        )
        assert profile(built) == profile(fixture)

    def test_boundary_edge_in_four_faces(self):
        K = nine_gon_grope_complex().complex
        assert is_closed_orientable_surface(K) is None
        counts = sorted(len(K.faces_of_edge(e)) for e in range(len(K.edges)))
        assert counts == [2] * 9 + [4] * 3

    def test_two_stage_complexity(self):
        g2 = two_stage_grope_complex()
        assert g2.complexity == 2
        assert [k for _, k in g2.gluings] == [3, 3]
        K = g2.complex
        assert (K.vertex_count, len(K.edges), len(K.faces)) == (5, 21, 18)

    def test_wrong_boundary_length(self):
        gr = grope_base(triangle_sphere())
        with pytest.raises(BadBoundary):
            grope_glue(gr, 0, fan_disc(8), 2, GroupSpec.reals())

    def test_torsion_coprimality_enforced(self):
        gr = grope_base(triangle_sphere())
        with pytest.raises(NotTorsionCoprime):
            grope_glue(gr, 0, fan_disc(9), 3, GroupSpec.finite_field(4))
        with pytest.raises(NotTorsionCoprime):
            grope_glue(gr, 0, fan_disc(9), 3, GroupSpec.complexes())

    def test_face_not_found(self):
        gr = grope_base(triangle_sphere())
        with pytest.raises(FaceNotFound):
            grope_glue(gr, 7, fan_disc(9), 3, GroupSpec.reals())

    def test_offset_rotates_covering(self):
        gr = grope_base(triangle_sphere())
        a = grope_glue(gr, 0, fan_disc(9), 3, GroupSpec.reals(), offset=0)
        b = grope_glue(gr, 0, fan_disc(9), 3, GroupSpec.reals(), offset=1)
        assert len(a.complex.faces) == len(b.complex.faces)
        assert a.complex.faces != b.complex.faces

    def test_json_round_trip(self):
        g2 = two_stage_grope_complex()
        assert Grope.from_json_obj(g2.to_json_obj()) == g2


class TestStellarSubdivision:
    def test_preserves_surface_and_genus(self):
        for S, chi in ((triangle_sphere(), 2), (genus_two_surface(), -2)):
            K = stellar_subdivide_face(S, 0)
            assert euler_characteristic(K) == chi
            assert is_closed_orientable_surface(K) is not None
            assert len(K.faces) == len(S.faces) + 2


class TestRandomSurfaceExcision:
    def test_fifty_random_surfaces_twenty_groups(self):
        # genus 0 to 2, up to 40 faces; every face excisable over every group
        rng = random.Random(2026)
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
            assert is_closed_orientable_surface(K) is not None
            genera.add((2 - euler_characteristic(K)) // 2)
            for f in range(len(K.faces)):
                for G in specs:
                    assert can_excise(K, f, G)
        assert genera == {0, 1, 2}


class TestRandomGropeExcision:
    def test_hundred_random_gropes_excise(self):
        rng = random.Random(97)
        specs = [
            GroupSpec.reals(),
            GroupSpec.finite_field(2),
            GroupSpec.finite_field(8),
            GroupSpec.rational_functions(3),
        ]
        built = 0
        positive_complexity = 0
        while built < 100:
            G = rng.choice(specs)
            gr = random_grope(rng, G, ks=(3, 5, 7))
            built += 1
            positive_complexity += gr.complexity > 0
            assert all(
                torsion_coprime_holds(k, G) for _, k in gr.gluings
            )
            for f in range(len(gr.complex.faces)):
                assert can_excise(gr.complex, f, G), (built, f, G)
        assert positive_complexity >= 50

    def test_dropping_coprimality_breaks_excision(self):
        # wrap count 3 over a group with 3-torsion: the construction
        # refuses it, and the complex built for a safe group indeed
        # fails excision over the unsafe one
        g = nine_gon_grope_complex()
        marked_like = 0  # the face kept from the base sphere
        assert not can_excise(g.complex, marked_like, GroupSpec.finite_field(4))
        assert can_excise(g.complex, marked_like, GroupSpec.finite_field(8))


def torsion_coprime_holds(k, G):
    from tilingcalc.excision import torsion_coprime

    return torsion_coprime(k, G)
