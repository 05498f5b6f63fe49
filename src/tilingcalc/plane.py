"""The projective plane over a small Galois field.

Points and lines are coordinate triples of field-element indices,
normalized so the first nonzero coordinate is 1; a point and a line are
incident when their dot product vanishes.  The default affine chart puts
z = 0 at infinity: affine (x, y) embeds as the triple (x, y, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import GF, field
from .ternary import JsonText

INFINITY = "infinity"


class NotCollinear(ValueError):
    pass


class DegenerateChart(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


def check_sizes(mat, config) -> None:
    """Raise DimensionMismatch unless the configuration has one point per
    row and one line per column of the incidence matrix."""
    if len(config.points) != mat.m or len(config.lines) != mat.n:
        raise DimensionMismatch(
            f"matrix {mat.m}x{mat.n} vs {len(config.points)} points, "
            f"{len(config.lines)} lines"
        )


def normalize(F: GF, triple) -> tuple[int, int, int]:
    """Scale so the first nonzero coordinate is 1; canonical per class."""
    t = tuple(int(v) for v in triple)
    if len(t) != 3 or any(not 0 <= v < F.q for v in t):
        raise ValueError(f"bad triple {triple!r} for {F}")
    for v in t:
        if v != 0:
            s = F.inv(v)
            return tuple(F.mul(s, w) for w in t)
    raise ValueError("zero triple is not a projective element")


def dot(F: GF, a, b) -> int:
    mul = F.mul
    return F.add(F.add(mul(a[0], b[0]), mul(a[1], b[1])), mul(a[2], b[2]))


def cross(F: GF, a, b) -> tuple[int, int, int] | None:
    """Cross product, normalized; None when a and b are proportional."""
    c = (
        F.sub(F.mul(a[1], b[2]), F.mul(a[2], b[1])),
        F.sub(F.mul(a[2], b[0]), F.mul(a[0], b[2])),
        F.sub(F.mul(a[0], b[1]), F.mul(a[1], b[0])),
    )
    if c == (0, 0, 0):
        return None
    return normalize(F, c)


def incident(F: GF, point, line) -> bool:
    return dot(F, point, line) == 0


def join(F: GF, p, q):
    """The unique line through two distinct points; None if p = q.

    The plane is self-dual: the common point of two distinct lines is the
    same cross product, so `meet` is this function."""
    return cross(F, normalize(F, p), normalize(F, q))


meet = join


def all_points(F: GF) -> list[tuple[int, int, int]]:
    """All q^2 + q + 1 normalized triples, in lexicographic order."""
    return sorted(_canonical_triples(F.q))


@lru_cache(maxsize=None)
def _canonical_triples(q: int) -> dict:
    """Each normalized triple over the field of order q, to itself."""
    r = range(q)
    triples = [(0, 0, 1), *((0, 1, c) for c in r), *((1, b, c) for b in r for c in r)]
    return {t: t for t in triples}


DEFAULT_CHART = (0, 0, 1)  # the line z = 0 taken to infinity


def affine_point(F: GF, x: int, y: int) -> tuple[int, int, int]:
    """Affine coordinates in the default chart."""
    return normalize(F, (x, y, 1))


def _chart_scale(F: GF, p):
    """Representative of p scaled so <p, DEFAULT_CHART> = 1; None if p is
    on the chart line."""
    n = normalize(F, p)
    d = dot(F, n, DEFAULT_CHART)
    if d == 0:
        return None
    s = F.inv(d)
    return tuple(F.mul(s, v) for v in n)


def point_at_ratio(F: GF, A, B, k):
    """The point X on line AB with A - X = k (B - X) in the default affine
    chart, or the improper point of AB for k = INFINITY."""
    A, B = normalize(F, A), normalize(F, B)
    line = join(F, A, B)
    if line is None:
        raise ValueError("A = B does not span a line")
    if k == INFINITY:
        x = meet(F, line, DEFAULT_CHART)
        if x is None:
            raise DegenerateChart("line AB lies on the chart")
        return x
    a = _chart_scale(F, A)
    b = _chart_scale(F, B)
    if a is None or b is None:
        raise DegenerateChart("endpoint on the chart line")
    if k == 1:
        raise ValueError("k = 1 has no proper solution (A != B)")
    # X = (A - k B) / (1 - k), derived from A - X = k(B - X)
    s = F.inv(F.sub(1, k))
    x = tuple(F.mul(s, F.sub(av, F.mul(k, bv))) for av, bv in zip(a, b))
    return normalize(F, x)


@dataclass(frozen=True)
class Configuration(JsonText):
    """Concrete points and lines over one field order."""

    q: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        F = field(self.q)
        canonical = _canonical_triples(self.q)

        def lookup(t):
            try:
                return canonical[t]
            except (KeyError, TypeError):  # not canonical, or unhashable
                return normalize(F, t)

        object.__setattr__(self, "points", tuple(map(lookup, self.points)))
        object.__setattr__(self, "lines", tuple(map(lookup, self.lines)))

    def to_json_obj(self) -> dict:
        return {
            "q": self.q,
            "points": [list(p) for p in self.points],
            "lines": [list(l) for l in self.lines],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Configuration":
        q, points, lines = obj["q"], obj["points"], obj["lines"]
        coordinates = [v for triple in [*points, *lines] for v in triple]
        for v in [q, *coordinates]:
            if type(v) is not int:  # not a float, and not a bool
                raise ValueError(f"q and coordinates must be integers, not {v!r}")
        return cls(q, tuple(map(tuple, points)), tuple(map(tuple, lines)))
