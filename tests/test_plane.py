import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingcalc.fields import GF, SUPPORTED_ORDERS, DivisionByZero, UnsupportedField, field
from tilingcalc.plane import (
    DEFAULT_CHART,
    INFINITY,
    Configuration,
    DegenerateChart,
    NotCollinear,
    _chart_scale,
    affine_point,
    all_points,
    dot,
    incident,
    join,
    meet,
    normalize,
    point_at_ratio,
)


def menelaus_ratio(F: GF, A, B, X):
    """The scalar k with A - X = k (B - X), in the default affine chart:
    the inverse of point_at_ratio in X.

    Returns INFINITY when X is improper (on the chart line).  A and B
    must be proper; the three points must be collinear.
    """
    A, B, X = (normalize(F, v) for v in (A, B, X))
    l_ab = join(F, A, B)
    if l_ab is not None and dot(F, X, l_ab) != 0:
        raise NotCollinear((A, B, X))
    a = _chart_scale(F, A)
    b = _chart_scale(F, B)
    if a is None or b is None:
        raise DegenerateChart("endpoint on the chart line")
    x = _chart_scale(F, X)
    if x is None:
        return INFINITY
    if B == X:
        raise DegenerateChart("B = X leaves the ratio undefined")
    num = tuple(F.sub(p, r) for p, r in zip(a, x))
    den = tuple(F.sub(p, r) for p, r in zip(b, x))
    k = None
    for nv, dv in zip(num, den):
        if dv != 0:
            cand = F.div(nv, dv)
            if k is None:
                k = cand
            elif k != cand:
                raise NotCollinear((A, B, X))
        elif nv != 0:
            raise NotCollinear((A, B, X))
    # k is None only when A - X and B - X are both zero: A = B = X
    return 1 if k is None else k


class TestFields:
    @pytest.mark.parametrize("q", SUPPORTED_ORDERS)
    def test_construction_passes_axiom_audit(self, q):
        F = field(q)
        add, mul, rng = F._add, F._mul, range(q)
        for a in rng:
            assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
            assert F.sub(a, a) == 0
            for b in rng:
                assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
                for c in rng:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a in range(1, q):
            assert mul[a][F.inv(a)] == 1

    @pytest.mark.parametrize(
        "q, modulus",
        [
            (4, [1, 1, 1]),            # x^2 + x + 1
            (8, [1, 1, 0, 1]),         # x^3 + x + 1
            (9, [1, 0, 1]),            # x^2 + 1
            (16, [1, 1, 0, 0, 1]),     # x^4 + x + 1
            (25, [2, 0, 1]),           # x^2 + 2
            (27, [1, 2, 0, 1]),        # x^3 + 2x + 1
            (32, [1, 0, 1, 0, 0, 1]),  # x^5 + x^2 + 1
        ] + [(p, [0, 1]) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)],
    )
    def test_rule_picks_least_irreducible_modulus(self, q, modulus):
        assert field(q).modulus == modulus

    def test_products_of_the_serialized_tables(self):
        # indices keep the meaning they had when three moduli were pinned
        assert field(4).mul(2, 2) == 3  # x * x = x + 1
        assert field(8).mul(2, 4) == 3  # x * x^2 = x + 1
        assert field(9).mul(3, 3) == 2  # x * x = -1
        assert field(9).add(4, 5) == 6  # (x + 1) + (x + 2) = 2x

    def test_supported_orders_are_the_prime_powers_to_32(self):
        assert SUPPORTED_ORDERS == (
            2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)

    def test_unsupported_order(self):
        assert issubclass(UnsupportedField, ValueError)
        for q in (1, 6, 33, 64, 10**100):
            with pytest.raises(UnsupportedField):
                GF(q)

    def test_mod5_inverse(self):
        F = field(5)
        assert F.inv(2) == 3
        assert F.mul(2, 3) == 1

    def test_order4_multiplicative_group_cyclic_of_order_3(self):
        F = field(4)
        for x in range(1, 4):
            assert F.mul(F.mul(x, x), x) == 1

    def test_order8_element_orders(self):
        F = field(8)
        for x in range(1, 8):
            acc = 1
            for _ in range(7):
                acc = F.mul(acc, x)
            assert acc == 1
        cubes_to_one = [x for x in range(1, 8) if F.mul(F.mul(x, x), x) == 1]
        assert cubes_to_one == [1]

    def test_order9_characteristic_3(self):
        F = field(9)
        for x in F.elements():
            assert F.add(F.add(x, x), x) == 0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            field(7).inv(0)


class TestPlane:
    @pytest.mark.parametrize("q", SUPPORTED_ORDERS)
    def test_point_count(self, q):
        assert len(all_points(field(q))) == q * q + q + 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_each_line_has_q_plus_1_points(self, q):
        F = field(q)
        pts = all_points(F)
        for line in pts:  # lines have the same coordinate set
            assert sum(incident(F, p, line) for p in pts) == q + 1

    def test_incidence_example(self):
        F = field(2)
        assert incident(F, (1, 0, 0), (0, 0, 1))

    def test_join_basic(self):
        F = field(3)
        assert join(F, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)

    def test_join_of_equal_points_none(self):
        F = field(5)
        assert join(F, (1, 2, 3), (1, 2, 3)) is None

    @pytest.mark.parametrize("q", [2, 3])
    def test_meet_exhaustive(self, q):
        F = field(q)
        pts = all_points(F)
        for l1, l2 in itertools.combinations(pts, 2):
            p = meet(F, l1, l2)
            assert p is not None
            assert incident(F, p, l1) and incident(F, p, l2)

    def test_fano_plane_counts(self):
        F = field(2)
        pts = all_points(F)
        assert len(pts) == 7
        for p in pts:
            assert sum(incident(F, p, l) for l in pts) == 3

    def test_duality(self):
        F = field(3)
        pts = all_points(F)
        for a in pts:
            for b in pts:
                assert incident(F, a, b) == incident(F, b, a)

    def test_normalization_canonical(self):
        F = field(9)
        for p in all_points(F):
            for s in range(1, 9):
                scaled = tuple(F.mul(s, v) for v in p)
                assert normalize(F, scaled) == p


class TestMenelausRatio:
    def test_x_equals_a_gives_zero(self):
        F = field(5)
        A, B = affine_point(F, 1, 0), affine_point(F, 0, 1)
        assert menelaus_ratio(F, A, B, A) == 0

    def test_documented_instance_mod5(self):
        F = field(5)
        A, B, X = affine_point(F, 1, 0), affine_point(F, 0, 1), affine_point(F, 3, 3)
        # A - X = (-2, -3) = (3, 2); B - X = (-3, -2) = (2, 3); over Z/5
        # 3 = k*2 and 2 = k*3 give k = 4
        assert menelaus_ratio(F, A, B, X) == 4

    def test_improper_point(self):
        F = field(5)
        A, B = affine_point(F, 0, 0), affine_point(F, 1, 0)
        X = (1, 0, 0)  # direction of the x-axis
        assert menelaus_ratio(F, A, B, X) == INFINITY

    def test_not_collinear(self):
        F = field(5)
        with pytest.raises(NotCollinear):
            menelaus_ratio(F, affine_point(F, 0, 0), affine_point(F, 1, 0), affine_point(F, 1, 1))

    def test_endpoint_on_chart_rejected(self):
        F = field(5)
        with pytest.raises(DegenerateChart):
            menelaus_ratio(F, (1, 0, 0), affine_point(F, 1, 0), affine_point(F, 2, 0))

    def test_point_at_ratio_round_trip(self):
        F = field(7)
        A, B = affine_point(F, 1, 2), affine_point(F, 4, 6)
        for k in list(range(7)) + [INFINITY]:
            if k == 1:
                continue
            X = point_at_ratio(F, A, B, k)
            assert menelaus_ratio(F, A, B, X) == k

    def test_menelaus_product_on_transversal(self):
        # triangle + transversal over Z/5: the three division ratios
        # multiply to 1
        F = field(5)
        A, B, C = affine_point(F, 0, 0), affine_point(F, 1, 0), affine_point(F, 0, 1)
        rng = random.Random(7)
        hits = 0
        while hits < 20:
            line = rng.choice(all_points(F))
            sides = [(A, B), (B, C), (C, A)]
            pts = []
            for P, Q in sides:
                X = meet(F, join(F, P, Q), line)
                pts.append(X)
            if any(
                X is None or X in (P, Q) for X, (P, Q) in zip(pts, sides)
            ) or any(dot(F, V, line) == 0 for V in (A, B, C)):
                continue
            ratios = []
            ok = True
            for X, (P, Q) in zip(pts, sides):
                r = menelaus_ratio(F, P, Q, X)
                if r == INFINITY:
                    ok = False
                    break
                ratios.append(r)
            if not ok:
                continue
            prod = 1
            for r in ratios:
                prod = F.mul(prod, r)
            assert prod == 1
            hits += 1

    def test_menelaus_product_iff_collinear(self):
        # sampled converse over Z/5: product 1 iff division points collinear
        F = field(5)
        A, B, C = affine_point(F, 0, 0), affine_point(F, 1, 0), affine_point(F, 0, 1)
        rng = random.Random(11)
        checked = 0
        while checked < 500:
            ks = [rng.randrange(5) for _ in range(3)]
            if 1 in ks:
                continue
            X = point_at_ratio(F, A, B, ks[0])
            Y = point_at_ratio(F, B, C, ks[1])
            Z = point_at_ratio(F, C, A, ks[2])
            if len({X, Y, Z}) < 3:
                continue
            prod = F.mul(F.mul(ks[0], ks[1]), ks[2])
            line = join(F, X, Y)
            collinear = line is not None and incident(F, Z, line)
            assert (prod == 1) == collinear
            checked += 1


class TestConfigurationJson:
    def test_round_trip(self):
        c = Configuration(3, ((1, 0, 0), (0, 1, 0)), ((0, 0, 1),))
        assert Configuration.from_json(c.to_json()) == c

    def test_normalizes_on_build(self):
        c = Configuration(3, ((2, 1, 0),), ())
        assert c.points[0] == (1, 2, 0)

    @pytest.mark.parametrize(
        "triple",
        [
            (0, 1, 2), (2, 1, 0), (1.0, 2.0, 0.0), (True, False, True), [0, 2, 1],
            (1, 2.5, 0), (0, 0, 0), (3, 0, 0), (1, 0), ("x", 0, 0), ("1", 0, 0),
            (1, [0], 0), [[1], 0, 0], None,
        ],
    )
    def test_builds_each_triple_as_normalize_does(self, triple):
        # canonical triples are looked up rather than normalized, which
        # must not change what any input gives or raises
        F = field(3)
        try:
            expected = normalize(F, triple)
        except (TypeError, ValueError) as error:
            with pytest.raises(type(error)) as raised:
                Configuration(3, (triple,), (triple,))
            assert (type(raised.value), str(raised.value)) == (type(error), str(error))
        else:
            c = Configuration(3, (triple,), (triple,))
            assert c.points == c.lines == (expected,)
            assert all(type(v) is int for v in c.points[0] + c.lines[0])
