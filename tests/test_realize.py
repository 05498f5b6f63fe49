import pytest

from tilingcalc.complexes import (
    desargues_tetrahedron,
    nine_gon_grope,
    non_grope_complex,
    one_line_complex,
)
from tilingcalc.excision import failing_cochain
from tilingcalc.fields import field
from tilingcalc.plane import DEFAULT_CHART, dot, incident
from tilingcalc.realize import CochainViolatesF, multiplicative_cochain, realize_from_cochain
from tilingcalc.search import UnsupportedField, check_theorem, verify_configuration
from tilingcalc.surfaces import generate_theorem


def trivial(mc):
    return (1,) * len(mc.complex.edges)


class TestMultiplicativeCochain:
    def test_order_three_into_sixteen_minus_chart(self):
        u = failing_cochain(nine_gon_grope().complex, 9, 3)
        vals = multiplicative_cochain(u, 4)
        F = field(4)
        for v, raw in zip(vals, u.values):
            # every value is a cube root of unity, trivial iff raw is 0 mod 3
            assert F.mul(F.mul(v, v), v) == 1
            assert (v == 1) == (raw % 3 == 0)

    def test_modulus_must_divide_group_order(self):
        u = failing_cochain(non_grope_complex().complex, 9, 4)
        with pytest.raises(ValueError):
            multiplicative_cochain(u, 4)  # 4 does not divide 3

    def test_zero_maps_to_one(self):
        from tilingcalc.excision import Cochain

        assert multiplicative_cochain(Cochain(2, (0, 1)), 3) == (1, 2)


class TestTrivialCochain:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_tetrahedron_all_edge_points_improper(self, q):
        mc = desargues_tetrahedron()
        cfg = realize_from_cochain(mc, trivial(mc), q)
        assert cfg is not None
        assert verify_configuration(generate_theorem(mc), cfg)
        F = field(q)
        # the six edge points (labels 1..6) all sit on the chart line
        for label in range(1, 7):
            assert dot(F, cfg.points[label - 1], DEFAULT_CHART) == 0
        # the conclusion holds: point 1 on line 1
        assert incident(F, cfg.points[0], cfg.lines[0])

    @pytest.mark.parametrize(
        "builder", [one_line_complex, nine_gon_grope, non_grope_complex]
    )
    def test_other_fixtures_conclusion_holds(self, builder):
        mc = builder()
        cfg = realize_from_cochain(mc, trivial(mc), 2)
        assert cfg is not None
        assert verify_configuration(generate_theorem(mc), cfg)
        assert incident(field(2), cfg.points[0], cfg.lines[0])


class TestCounterexampleRealization:
    def test_nine_gon_over_order_four(self):
        mc = nine_gon_grope()
        u = failing_cochain(mc.complex, mc.marked, 3)
        assert u is not None
        cfg = realize_from_cochain(mc, multiplicative_cochain(u, 4), 4)
        assert cfg is not None and cfg.q == 4
        mat = generate_theorem(mc)
        assert verify_configuration(mat, cfg)
        assert not incident(field(4), cfg.points[0], cfg.lines[0])

    def test_non_grope_over_order_five(self):
        mc = non_grope_complex()
        u = failing_cochain(mc.complex, mc.marked, 4)
        assert u is not None
        cfg = realize_from_cochain(mc, multiplicative_cochain(u, 5), 5)
        assert cfg is not None and cfg.q == 5
        mat = generate_theorem(mc)
        assert verify_configuration(mat, cfg)
        assert not incident(field(5), cfg.points[0], cfg.lines[0])

    def test_search_agrees_with_realization(self):
        # the same matrices admit counterexamples by exhaustive search
        assert check_theorem(generate_theorem(nine_gon_grope()), 4).outcome == (
            "counterexample"
        )
        assert check_theorem(generate_theorem(non_grope_complex()), 5).outcome == (
            "counterexample"
        )

    def test_nine_gon_true_over_coprime_orders(self):
        mat = generate_theorem(nine_gon_grope())
        assert check_theorem(mat, 2).outcome == "true"


class TestRejections:
    def test_cochain_violating_face_relation(self):
        mc = desargues_tetrahedron()
        vals = (2,) + (1,) * 5  # one edge twisted: some face product != 1
        with pytest.raises(CochainViolatesF):
            realize_from_cochain(mc, vals, 3)

    def test_zero_value_rejected(self):
        mc = one_line_complex()
        with pytest.raises(ValueError):
            realize_from_cochain(mc, (0, 1, 1), 3)

    @pytest.mark.parametrize("bad", [1.9, True, 2.0])
    def test_non_integer_value_rejected(self, bad):
        # int() would turn 1.9 into 1 and True into 1 without a word
        mc = one_line_complex()
        with pytest.raises(ValueError, match="must be integers"):
            realize_from_cochain(mc, (bad, 1, 1), 3)

    def test_wrong_length_rejected(self):
        mc = one_line_complex()
        with pytest.raises(ValueError):
            realize_from_cochain(mc, (1, 1), 3)

    def test_unsupported_field(self):
        mc = one_line_complex()
        with pytest.raises(UnsupportedField):
            realize_from_cochain(mc, trivial(mc), 6)
