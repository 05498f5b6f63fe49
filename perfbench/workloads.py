"""The three benchmark workloads: request generators, the timed call of
each request, and the check of each answer.

A workload is a sequence of rounds with one fixed request mix.  The seed
changes only the random content of a round (planted configurations,
renumberings, grope seeds), so runs on different seeds do the same kind
and amount of work.  Known answers come from the repository's tests or
from how an input was built; the benchmark never re-solves a request to
obtain its answer.

This module imports ``tilingcalc`` only inside functions, so that the
worker can time the library's import as set-up.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

OK, UNDECIDED, WRONG, RAISED, EXIT_CONTRACT = (
    "ok", "undecided", "wrong", "raised", "exit-contract",
)

TRUE, COUNTEREXAMPLE, VACUOUS = "true", "counterexample", "vacuous"
RESOURCE_EXCEEDED = "resource_exceeded"
HOLDS = (TRUE, VACUOUS)  # "no counterexample exists"

ORDERS = (2, 3, 4, 5, 7, 8, 9)
NODE_BUDGET = 12_000


@dataclass
class Request:
    label: str  # the request's kind, for reports
    call: object  # what the timed call hands to the library
    expect: object  # the known answer; never handed to the library


def _rng(*parts) -> random.Random:
    # string seeds hash with sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def _fixtures(root: Path) -> Path:
    return root / "src" / "tilingcalc" / "fixtures"


# -- pg-search ------------------------------------------------------------

CATALOG = (
    "warm-up", "axiom", "line-count-2", "line-count-3", "fano", "hexagon",
    "would-be-hexagon", "pappus",
)
# the marked complexes of test_11; desargues, nine-gon and non-grope are
# also shipped as fixtures
GENERATED = ("desargues", "one-line", "pappus-torus", "nine-gon", "non-grope")
# (order, rows, columns, density) of the four planted instances of each
# round.  Larger random instances over orders 4 and up exhaust the node
# budget at seed-dependent rates (about a third of 6 x 6 and 7 x 7 ones
# over orders 5 to 9, about 2% of 4 x 4 and 5 x 5 ones), and so does a
# larger planted share: either would make the undecided share and the
# latency quantiles depend on the seed.  The catalog requests keep the
# budget-bound searches in the mix.
PLANTED = ((2, 6, 6, 1.0), (3, 7, 7, 0.5), (5, 5, 5, 0.25), (9, 4, 4, 0.35))


def search_answer(name: str, q: int):
    """Verdicts allowed for a catalog or generated theorem over order q,
    or None where neither a test nor the construction pins one."""
    if name == "warm-up":  # test_02 pins q = 2, 3, 5; it holds in every plane
        return (TRUE,) if q in (2, 3, 5) else HOLDS
    if name == "axiom":  # the incidence axiom itself
        return HOLDS
    if name in ("line-count-2", "line-count-3"):
        # test_02 pins line-count-2 (true at 2, refuted at 3, 4): a line
        # has q + 1 points, so k + 1 of them fill it only when q = k,
        # leave room for a counterexample when q > k, and cannot be
        # distinct when q < k
        k = int(name[-1])
        if q == k:
            return (TRUE,) if k == 2 else HOLDS
        return (COUNTEREXAMPLE,) if q > k else (VACUOUS,)
    if name == "fano":  # test_02; fails exactly in characteristic 2
        return (COUNTEREXAMPLE,) if q % 2 == 0 else (TRUE,)
    if name == "hexagon":  # test_search: the documented order-3 counterexample
        return (COUNTEREXAMPLE,) if q == 3 else None
    if name == "pappus":  # test_09 pins q = 3; Pappus holds over every field
        return (TRUE,) if q == 3 else HOLDS
    if name in ("desargues", "one-line"):
        # test_11 pins q = 2, 3; Desargues and the one-line statement hold
        # over every field
        return (TRUE,) if q in (2, 3) else HOLDS
    if name == "pappus-torus":  # test_11
        return (TRUE,) if q in (2, 3) else None
    if name == "nine-gon":  # test_05 / test_11: fails exactly over 3-torsion
        if (q - 1) % 3 == 0:
            return (COUNTEREXAMPLE,)
        return (TRUE,) if q == 2 else HOLDS
    if name == "non-grope":  # test_06: fails over 4-torsion; test_11 pins 2, 3
        if (q - 1) % 4 == 0:
            return (COUNTEREXAMPLE,)
        return (TRUE,) if q in (2, 3) else None
    return None  # would-be-hexagon


def named_matrices() -> dict:
    from tilingcalc import catalog, complexes
    from tilingcalc.surfaces import generate_theorem

    return {
        "warm-up": catalog.warmup_matrix(),
        "axiom": catalog.axiom_matrix(),
        "line-count-2": catalog.line_count_matrix(2),
        "line-count-3": catalog.line_count_matrix(3),
        "fano": catalog.fano_closure_matrix(),
        "hexagon": catalog.hexagon_closure_matrix(),
        "would-be-hexagon": catalog.hexagon_would_be_matrix(),
        "pappus": catalog.pappus_base_matrix(),
        "desargues": generate_theorem(complexes.desargues_tetrahedron()),
        "one-line": generate_theorem(complexes.one_line_complex()),
        "pappus-torus": generate_theorem(complexes.bijective_pappus_torus()),
        "nine-gon": generate_theorem(complexes.nine_gon_grope()),
        "non-grope": generate_theorem(complexes.non_grope_complex()),
    }


def planted_rows(rng: random.Random, q: int, m: int, n: int, density: float):
    """An m x n matrix read off a random configuration over order q whose
    point 1 is off its line 1, keeping each cell with the given
    probability.  That configuration refutes the matrix's theorem."""
    from tilingcalc.fields import field
    from tilingcalc.plane import all_points, incident, join

    F = field(q)
    universe = all_points(F)  # also every line, as a coordinate triple
    points = rng.sample(universe, m)
    lines = []
    for j in range(n):
        while True:
            if rng.random() < 0.6:  # a join, so that +1 cells are common
                line = join(F, *rng.sample(points, 2))
            else:
                line = rng.choice(universe)
            if j > 0 or not incident(F, points[0], line):
                break
        lines.append(line)
    return [
        [
            (1 if incident(F, p, l) else -1) if rng.random() < density else 0
            for l in lines
        ]
        for p in points
    ]


class PgSearch:
    """check_theorem with one node budget over every supported order."""

    name = "pg-search"

    def __init__(self, seed: int, workdir: Path, root: Path):
        from tilingcalc import search

        self.search = search
        self.seed = seed
        self.matrices = named_matrices()

    @staticmethod
    def warm():
        from tilingcalc import search
        from tilingcalc.ternary import IncidenceMatrix

        trivial = IncidenceMatrix([[1]])
        for q in ORDERS:  # builds the field and plane tables of each order
            search.check_theorem(trivial, q)

    def round(self, r: int) -> list[Request]:
        from tilingcalc.ternary import IncidenceMatrix

        rng = _rng("pg-search", self.seed, r)
        out = []
        for q in ORDERS:
            for name in CATALOG + GENERATED:
                out.append(
                    Request(name, (self.matrices[name], q), search_answer(name, q))
                )
        for q, m, n, density in PLANTED:
            rows = planted_rows(rng, q, m, n, density)
            out.append(Request("planted", (IncidenceMatrix(rows), q), (COUNTEREXAMPLE,)))
        return out

    def execute(self, req: Request):
        mat, q = req.call
        return self.search.check_theorem(mat, q, node_budget=NODE_BUDGET)

    def check(self, req: Request, verdict) -> str:
        from tilingcalc.fields import field
        from tilingcalc.plane import incident

        if verdict.outcome == RESOURCE_EXCEEDED:
            return UNDECIDED
        if req.expect is not None and verdict.outcome not in req.expect:
            return WRONG
        if verdict.outcome == COUNTEREXAMPLE:
            mat, q = req.call
            cex = verdict.counterexample
            if cex is None or cex.q != q:
                return WRONG
            if not self.search.verify_configuration(mat, cex):
                return WRONG
            if incident(field(q), cex.points[0], cex.lines[0]):
                return WRONG
        return OK


# -- cert-replay ----------------------------------------------------------

CERTIFICATES = ("pappus", "desargues", "one-line", "nine-gon")
F4 = {"infinite": False, "torsion": [3]}  # F4*, which has 3-torsion


def prepare_cert_inputs(root: Path, workdir: Path) -> None:
    """Write the certificate templates and expected outputs that the
    cert-replay rounds are built from."""
    from tilingcalc.catalog import pappus_case1_golden
    from tilingcalc.complexes import one_line_complex
    from tilingcalc.surfaces import MarkedComplex, octahedral_subdivide

    fixtures = _fixtures(root)
    templates = {
        name: json.loads((fixtures / f"cert-{name}.json").read_text())
        for name in CERTIFICATES
    }
    for name in ("desargues", "one-line"):
        cert = copy.deepcopy(templates[name])
        leaf = cert["cases"]["leaf"]
        leaf["complex"] = octahedral_subdivide(
            MarkedComplex.from_json_obj(leaf["complex"])
        ).to_json_obj()
        templates[f"{name}-subdivided"] = cert
    cert = copy.deepcopy(templates["nine-gon"])
    cert["group"] = F4
    templates["nine-gon-over-F4"] = cert
    (workdir / "templates.json").write_text(json.dumps(templates))
    (workdir / "golden-case1.json").write_text(pappus_case1_golden().to_json())
    (workdir / "one-line.json").write_text(one_line_complex().to_json())


def _perm(rng: random.Random, k: int) -> list[int]:
    p = list(range(k))
    rng.shuffle(p)
    return p


def renumber_complex(obj: dict, rng: random.Random) -> dict:
    """An isomorphic copy of a marked complex's JSON: vertices, edges and
    faces permuted, edges reversed at random and face walks rotated.
    Every verdict about the complex is unchanged."""
    V, E, F = obj["vertices"], len(obj["edges"]), len(obj["faces"])
    pv, pe, pf = _perm(rng, V), _perm(rng, E), _perm(rng, F)
    flip = [rng.choice((1, -1)) for _ in range(E)]
    edges = [None] * E
    for e, (t, h) in enumerate(obj["edges"]):
        edges[pe[e]] = [pv[t], pv[h]] if flip[e] == 1 else [pv[h], pv[t]]
    faces = [None] * F
    for f, walk in enumerate(obj["faces"]):
        new = [
            (pe[abs(x) - 1] + 1) * (1 if x > 0 else -1) * flip[abs(x) - 1]
            for x in walk
        ]
        turn = rng.randrange(3)
        faces[pf[f]] = new[turn:] + new[:turn]
    p = {f"v{pv[v] + 1}": obj["p"][f"v{v + 1}"] for v in range(V)}
    p.update({f"e{pe[e] + 1}": obj["p"][f"e{e + 1}"] for e in range(E)})
    l = {f"f{pf[f] + 1}": obj["l"][f"f{f + 1}"] for f in range(F)}
    l.update({f"e{pe[e] + 1}": obj["l"][f"e{e + 1}"] for e in range(E)})
    return dict(obj, edges=edges, faces=faces, p=p, l=l, marked=pf[obj["marked"] - 1] + 1)


def _renumber_tree(node: dict, rng: random.Random) -> dict:
    if "leaf" in node:
        leaf = node["leaf"]
        if leaf.get("kind") == "elementary":
            leaf = dict(leaf, complex=renumber_complex(leaf["complex"], rng))
        return {"leaf": leaf}
    return dict(
        node,
        minus=_renumber_tree(node["minus"], rng),
        plus=_renumber_tree(node["plus"], rng),
    )


def renumber_certificate(cert: dict, rng: random.Random) -> dict:
    return dict(cert, cases=_renumber_tree(cert["cases"], rng))


def _internal_nodes(node: dict) -> list[dict]:
    if "leaf" in node:
        return []
    return [node] + _internal_nodes(node["minus"]) + _internal_nodes(node["plus"])


# (command, input, variant, expected outcome); a "fresh" variant is the
# shipped file in round 0 and a renumbering afterwards, so that every
# round decides each marked face on a complex the process has not seen
CERT_MIX = (
    ("prove-validate", "pappus", "fresh", "accepted"),
    ("prove-validate", "pappus", "renumbered", "accepted"),
    ("prove-validate", "desargues", "fresh", "accepted"),
    ("prove-validate", "desargues", "renumbered", "accepted"),
    ("prove-validate", "one-line", "fresh", "accepted"),
    ("prove-validate", "one-line", "renumbered", "accepted"),
    ("prove-validate", "nine-gon", "fresh", "accepted"),
    ("prove-validate", "nine-gon", "renumbered", "accepted"),
    ("prove-validate", "desargues-subdivided", "renumbered", "accepted"),
    ("prove-validate", "one-line-subdivided", "renumbered", "accepted"),
    ("prove-validate", "nine-gon-over-F4", "renumbered", "rejected"),
    ("prove-validate", "pappus", "coverage-gap", "coverage-gap"),
    ("prove-validate", "pappus", "swapped", "tampered"),
    ("propagate", "pappus12x9.json", "shipped", "golden-case1"),
    ("validate", "pappus-torus-case1.json", "renumbered", "accepted"),
    ("excise", "ninegon-grope.json", "renumbered", "not-excisable"),
    ("excise", "non-grope.json", "renumbered", "excisable"),
    ("generate", "desargues-tetrahedron.json", "renumbered", "desargues-matrix"),
    ("subdivide", "one-line.json", "shipped", "one-line-octahedron"),
)


class CertReplay:
    """tilingcalc.cli.main(argv) in-process, mostly prove-validate."""

    name = "cert-replay"

    def __init__(self, seed: int, workdir: Path, root: Path):
        from tilingcalc import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.fixtures = fixtures = _fixtures(root)
        self.templates = json.loads((workdir / "templates.json").read_text())
        self.golden = json.loads((workdir / "golden-case1.json").read_text())
        self.octahedron = json.loads((fixtures / "one-line-octahedron.json").read_text())
        self.complexes = {
            name: json.loads((fixtures / name).read_text())
            for name in (
                "pappus-torus-case1.json", "ninegon-grope.json", "non-grope.json",
                "desargues-tetrahedron.json",
            )
        }

    @staticmethod
    def warm():
        import tilingcalc.certificates  # noqa: F401  (cli imports these lazily)
        import tilingcalc.excision  # noqa: F401

    def _write(self, slot: int, obj) -> str:
        path = self.workdir / f"slot-{slot}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def _certificate(self, rng, r, name, variant) -> dict:
        cert = self.templates[name]
        if variant == "fresh" and r == 0:
            return cert
        cert = renumber_certificate(cert, rng)
        if variant == "coverage-gap":  # split on a cell the base already decides
            entries = cert["base"]["entries"]
            decided = [
                [i + 1, j + 1]
                for i, row in enumerate(entries)
                for j, v in enumerate(row)
                if v
            ]
            tree = cert["cases"]
            cert = dict(cert, cases={"cell": rng.choice(decided), "minus": tree, "plus": tree})
        elif variant == "swapped":
            node = rng.choice(_internal_nodes(cert["cases"]))
            node["minus"], node["plus"] = node["plus"], node["minus"]
        return cert

    def round(self, r: int) -> list[Request]:
        rng = _rng("cert-replay", self.seed, r)
        out = []
        for slot, (command, source, variant, expect) in enumerate(CERT_MIX):
            complex_obj = None
            if command == "prove-validate":
                path = self._write(slot, self._certificate(rng, r, source, variant))
                argv = [command, path]
            elif command == "propagate":
                argv = [command, str(self.fixtures / source), "--seed", "10,4,-1"]
            elif command == "subdivide":
                argv = [command, str(self.workdir / source)]
            else:
                complex_obj = renumber_complex(self.complexes[source], rng)
                argv = [command, self._write(slot, complex_obj)]
                if command == "validate":
                    argv += ["--matrix", str(self.workdir / "golden-case1.json"), "--group", "R*"]
                elif command == "excise":
                    group = "F4" if expect == "not-excisable" else "R*"
                    argv += ["--face", "marked", "--group", group]
            out.append(Request(f"{command}:{source}:{variant}", argv, (expect, complex_obj)))
        return out

    def execute(self, req: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(req.call))
        return code, out.getvalue()

    def check(self, req: Request, raw) -> str:
        code, text = raw
        if code not in (0, 1, 2):
            return EXIT_CONTRACT
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            # exits 0 and 1 carry a report; exit 2 is a usage error
            return EXIT_CONTRACT if code in (0, 1) else WRONG
        expect, complex_obj = req.expect
        if expect == "accepted":
            good = code == 0 and report["report"]["ok"] is True
        elif expect == "rejected":
            good = code == 1 and report["report"]["ok"] is False
        elif expect == "coverage-gap":
            good = code == 1 and "coverageGap" in report
        elif expect == "tampered":  # rejected, or split on a decided cell
            good = code == 1 and ("coverageGap" in report or report["report"]["ok"] is False)
        elif expect == "golden-case1":
            good = code == 0 and report["matrix"] == self.golden
        elif expect == "excisable":
            good = code == 0 and report["excisable"] is True
        elif expect == "not-excisable":
            cochain = report.get("failingCochain")
            good = (
                code == 1
                and report["excisable"] is False
                and cochain is not None
                and cochain_fails_only_at(
                    complex_obj, report["face"] - 1, cochain["modulus"],
                    [cochain["values"][str(e + 1)] for e in range(len(complex_obj["edges"]))],
                )
            )
        elif expect == "desargues-matrix":
            good = code == 0 and report["matrix"] == self.templates["desargues"]["base"]
        elif expect == "one-line-octahedron":
            good = code == 0 and report["complex"] == self.octahedron
        else:
            raise ValueError(expect)
        return OK if good else WRONG


def cochain_fails_only_at(K, face: int, n: int, values) -> bool:
    """Check an edge labeling mod n face by face against the boundary
    rows: every face but `face` sums to zero and `face` does not.  K is a
    DeltaComplex or its JSON."""
    from tilingcalc.excision import boundary_matrix
    from tilingcalc.surfaces import DeltaComplex

    if isinstance(K, dict):
        K = DeltaComplex.from_json_obj(K)
    for g, row in enumerate(boundary_matrix(K)):
        total = sum(c * v for c, v in zip(row, values)) % n
        if (total != 0) != (g == face):
            return False
    return True


# -- grope-excision -------------------------------------------------------

@dataclass(frozen=True)
class GropeSlot:
    kind: str  # "surface", "grope" or "sharp"
    group: str  # the group the complex is built for and asked over first
    faces: int  # face count of the complex
    second: str | None = None  # the group asked second, for every face
    ks: tuple[int, ...] = ()  # wrap counts random_grope draws from
    wrap: int = 0  # sharp: wrap count glued over R*, then asked over Z/wrap


# Every wrap count is coprime to the torsion of both groups of its slot.
# Exact face counts give each round the same spread of complex sizes, so
# the per-round cost varies little with the seed; the three largest
# gropes are alike, so the 90th percentile falls inside their cluster.
# Sharp complexes stay within the failing-cochain enumerator's 30 edges.
GROPE_MIX = (
    GropeSlot("surface", "C*", 8, "R*"),
    GropeSlot("surface", "R*", 14, "F9*"),
    GropeSlot("surface", "C*", 24, "F4*"),
    GropeSlot("grope", "R*", 8, "F9*", (3, 5, 7)),
    GropeSlot("grope", "F8*", 22, "F5*", (3, 5)),
    GropeSlot("grope", "F4*", 28, "F3*", (5, 7)),
    GropeSlot("grope", "R*", 36, "F2(X)*", (3, 5, 7)),
    GropeSlot("grope", "R*", 36, "F9*", (3, 5)),
    GropeSlot("grope", "F8*", 36, "F3*", (3, 5)),
    GropeSlot("sharp", "R*", 18, wrap=3),
    GropeSlot("sharp", "R*", 20, wrap=5),
)
SURFACE_MAX_FACES = 24


def group_spec(name):
    from tilingcalc.excision import GroupSpec

    if isinstance(name, int):
        return GroupSpec(False, (name,))
    if name == "R*":
        return GroupSpec.reals()
    if name == "C*":
        return GroupSpec.complexes()
    if name == "F2(X)*":
        return GroupSpec.rational_functions(2)
    return GroupSpec.finite_field(int(name[1:-1]))


class GropeExcision:
    """Build one complex per request and decide every face over two
    groups; sharp requests also extract a failing cochain."""

    name = "grope-excision"

    def __init__(self, seed: int, workdir: Path, root: Path):
        from tilingcalc import excision, gropes

        self.excision = excision
        self.gropes = gropes
        self.seed = seed
        self.seen: set[int] = set()

    @staticmethod
    def warm():
        import tilingcalc.complexes  # noqa: F401  (random_grope imports it lazily)
        import tilingcalc.gropes  # noqa: F401

    def _build(self, slot: GropeSlot, group, rng_seed: int, pick: int):
        g = self.gropes
        rng = random.Random(rng_seed)
        if slot.kind == "surface":
            return g.random_closed_surface(rng, max_faces=SURFACE_MAX_FACES)
        if slot.kind == "grope":
            return g.random_grope(rng, group, ks=slot.ks).complex
        k = slot.wrap
        # gluing removes one face and adds the 3k faces of the fan
        base = g.random_closed_surface(rng, max_faces=slot.faces + 1 - 3 * k)
        glued = g.grope_glue(
            g.grope_base(base), pick % len(base.faces), g.fan_disc(3 * k), k, group,
            offset=pick % 3,
        )
        return glued.complex

    def round(self, r: int) -> list[Request]:
        rng = _rng("grope-excision", self.seed, r)
        out = []
        for slot in GROPE_MIX:
            group = group_spec(slot.group)
            second = group_spec(slot.wrap if slot.kind == "sharp" else slot.second)
            # draw seeds until the complex has the slot's face count and is
            # new to this process
            for _ in range(2000):
                rng_seed, pick = rng.getrandbits(32), rng.getrandbits(16)
                K = self._build(slot, group, rng_seed, pick)
                key = hash((K.vertex_count, K.edges, K.faces))
                if len(K.faces) == slot.faces and key not in self.seen:
                    break
            else:
                raise RuntimeError(f"no new complex with {slot.faces} faces for {slot}")
            self.seen.add(key)
            label = f"{slot.kind}{slot.faces}:{slot.group}/{slot.second or f'Z/{slot.wrap}'}"
            out.append(Request(label, (slot, group, second, rng_seed, pick), slot.kind))
        return out

    def execute(self, req: Request):
        slot, group, second, rng_seed, pick = req.call
        K = self._build(slot, group, rng_seed, pick)
        can_excise = self.excision.can_excise
        faces = range(len(K.faces))
        over_first = [can_excise(K, f, group) for f in faces]
        over_second = [can_excise(K, f, second) for f in faces]
        witness = None
        if slot.kind == "sharp" and False in over_second:
            face = over_second.index(False)
            witness = (face, self.excision.failing_cochain(K, face, slot.wrap))
        return K, over_first, over_second, witness

    def check(self, req: Request, raw) -> str:
        K, over_first, over_second, witness = raw
        if not all(over_first):  # closed surfaces and coprime gropes (test_08)
            return WRONG
        if req.expect != "sharp":
            return OK if all(over_second) else WRONG
        # test_08: without coprimality some face is not excisable over Z/k
        if witness is None or witness[1] is None:
            return WRONG
        face, cochain = witness
        k = req.call[0].wrap
        ok = cochain.modulus == k and cochain_fails_only_at(K, face, k, cochain.values)
        return OK if ok else WRONG


WORKLOADS = {w.name: w for w in (PgSearch, CertReplay, GropeExcision)}


def prepare_inputs(name: str, root: Path, workdir: Path) -> None:
    """Set-up done once per run, before any worker starts."""
    if name == CertReplay.name:
        prepare_cert_inputs(root, workdir)
