"""Proof certificates: a replayable record of a complete case analysis.

A certificate bundles a base incidence matrix, an ordered list of
auxiliary constructions, and a binary case tree.  Each internal tree
node names a zero cell; the left branch seeds it to -1, the right branch
to +1, and constraint propagation runs after every seed.  Each leaf
claims one of three ways its branch is discharged:

* ``Tautology`` — the conclusion cell (1, 1) is already +1;
* ``AxiomContradiction`` — the forbidden two-points-on-two-lines
  pattern is present (optionally pinned to an expected witness);
* ``Elementary`` — a labeled marked complex whose mandated cells all
  appear in the propagated matrix and whose marked face is excisable
  over the certificate's group; an optional contradiction target (i, j)
  first moves a forced -1 into the conclusion slot.

``validate_certificate`` replays the whole argument and reports each
leaf's outcome.  Because every internal node carries both branches and
must name a cell that is still free when reached, the leaves jointly
cover all completions of the seeded cells; a node whose cell is already
decided raises ``CoverageGap``.

Certificates serialize to JSON; see ``Certificate.to_json_obj`` for the
schema and the ``fixtures/`` directory for shipped documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .excision import GroupSpec
from .surfaces import MarkedComplex, validate_elementary_proof
from .ternary import (
    AUX_KINDS,
    GENERIC_POINT,
    LINE_THROUGH_TWO_POINTS,
    POINT_ON_TWO_LINES,
    IncidenceMatrix,
    NotNegative,
    PatternWitness,
    aux_join,
    contradiction_form,
    contradicts_incidence_axiom,
    is_tautology,
    propagate,
)


class CertificateParseError(ValueError):
    """The JSON document does not encode a certificate."""


class CoverageGap(ValueError):
    """A case node names a cell that is not free at that point, so its
    two branches do not partition the remaining completions."""


# -- justifications --------------------------------------------------------


@dataclass(frozen=True)
class Tautology:
    kind = "tautology"

    def to_json_obj(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class AxiomContradiction:
    kind = "axiom-contradiction"
    expected: PatternWitness | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.expected is not None:
            obj["rows"] = list(self.expected.rows)
            obj["cols"] = list(self.expected.cols)
        return obj


@dataclass(frozen=True)
class Elementary:
    kind = "elementary"
    complex: MarkedComplex = None
    contradiction_target: tuple[int, int] | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind, "complex": self.complex.to_json_obj()}
        if self.contradiction_target is not None:
            obj["target"] = list(self.contradiction_target)
        return obj


def _is_index(value, bound: int) -> bool:
    return type(value) is int and 1 <= value <= bound  # bool is not int


def _cell_from_json(value, shape: tuple[int, int], what: str) -> tuple[int, int]:
    """A 1-based (row, column) pair inside a matrix of the given shape."""
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(_is_index(v, bound) for v, bound in zip(value, shape))
    ):
        raise CertificateParseError(
            f"{what} {value!r} is not a cell of the {shape[0]}x{shape[1]} start matrix"
        )
    return tuple(value)


def _justification_from_json(obj: dict, shape: tuple[int, int]):
    kind = obj.get("kind")
    if kind == Tautology.kind:
        return Tautology()
    if kind == AxiomContradiction.kind:
        expected = None
        if "rows" in obj or "cols" in obj:
            rows, cols = obj["rows"], obj["cols"]
            if not all(
                isinstance(ids, list) and len(ids) == 3 and all(_is_index(v, bound) for v in ids)
                for ids, bound in zip((rows, cols), shape)
            ):
                raise CertificateParseError(
                    f"witness rows {rows!r}, cols {cols!r} are not three rows and three "
                    f"columns of the {shape[0]}x{shape[1]} start matrix"
                )
            expected = PatternWitness(tuple(rows), tuple(cols))
        return AxiomContradiction(expected)
    if kind == Elementary.kind:
        target = _cell_from_json(obj["target"], shape, "target") if "target" in obj else None
        return Elementary(MarkedComplex.from_json_obj(obj["complex"]), target)
    raise CertificateParseError(f"unknown justification kind {kind!r}")


# -- case tree -------------------------------------------------------------


@dataclass(frozen=True)
class CaseLeaf:
    justification: Tautology | AxiomContradiction | Elementary

    def to_json_obj(self) -> dict:
        return {"leaf": self.justification.to_json_obj()}


@dataclass(frozen=True)
class CaseNode:
    cell: tuple[int, int]
    minus: "CaseNode | CaseLeaf"
    plus: "CaseNode | CaseLeaf"

    def to_json_obj(self) -> dict:
        return {
            "cell": list(self.cell),
            "minus": self.minus.to_json_obj(),
            "plus": self.plus.to_json_obj(),
        }


# Deepest case tree accepted; well below the interpreter's recursion
# limit, so the recursive parse and the validator's walk stay safe.
MAX_CASE_DEPTH = 200


def _tree_from_json(obj: dict, shape: tuple[int, int], depth: int = 0) -> CaseNode | CaseLeaf:
    if "leaf" in obj:
        return CaseLeaf(_justification_from_json(obj["leaf"], shape))
    if "cell" in obj:
        if depth == MAX_CASE_DEPTH:
            raise CertificateParseError(f"case tree nested deeper than {MAX_CASE_DEPTH}")
        for side in ("minus", "plus"):
            if side not in obj:
                raise CertificateParseError(f"case node missing {side!r} branch")
        return CaseNode(
            _cell_from_json(obj["cell"], shape, "case cell"),
            _tree_from_json(obj["minus"], shape, depth + 1),
            _tree_from_json(obj["plus"], shape, depth + 1),
        )
    raise CertificateParseError("tree node is neither a leaf nor a case node")


# -- certificate -----------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    base_matrix: IncidenceMatrix
    aux_steps: tuple[tuple[str, int | None, int | None], ...]
    case_tree: CaseNode | CaseLeaf
    group: GroupSpec

    def start_matrix(self) -> IncidenceMatrix:
        """The base matrix with all auxiliary constructions applied."""
        mat = self.base_matrix
        for kind, a, b in self.aux_steps:
            mat = aux_join(mat, kind, a, b)
        return mat

    def to_json_obj(self) -> dict:
        return {
            "format": "tiling-proof-certificate",
            "version": 1,
            "base": self.base_matrix.to_json_obj(),
            "aux": [
                {"kind": kind, **({"a": a, "b": b} if a is not None else {})}
                for kind, a, b in self.aux_steps
            ],
            "group": self.group.to_json_obj(),
            "cases": self.case_tree.to_json_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=1, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Certificate":
        if not isinstance(obj, dict):
            raise CertificateParseError("a certificate is a JSON object")
        try:
            if obj.get("format") != "tiling-proof-certificate":
                raise CertificateParseError("missing or wrong 'format' marker")
            if obj.get("version") != 1:
                raise CertificateParseError(f"unsupported version {obj.get('version')!r}")
            base = IncidenceMatrix.from_json_obj(obj["base"])
            m, n = base.m, base.n  # the shape after the steps so far
            steps = []
            for step in obj["aux"]:
                kind = step["kind"]
                if kind not in AUX_KINDS:
                    raise CertificateParseError(f"unknown aux kind {kind!r}")
                a, b = step.get("a"), step.get("b")
                if kind in (POINT_ON_TWO_LINES, LINE_THROUGH_TWO_POINTS):
                    bound = n if kind == POINT_ON_TWO_LINES else m
                    if not (_is_index(a, bound) and _is_index(b, bound)):
                        raise CertificateParseError(
                            f"{kind} indices {a!r}, {b!r} are not in 1..{bound}"
                        )
                if kind in (POINT_ON_TWO_LINES, GENERIC_POINT):
                    m += 1
                else:
                    n += 1
                steps.append((kind, a, b))
            group = GroupSpec.from_json_obj(obj["group"])
            tree = _tree_from_json(obj["cases"], (m, n))
        except CertificateParseError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CertificateParseError(str(exc)) from exc
        return cls(base, tuple(steps), tree, group)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise CertificateParseError(str(exc)) from exc
        return cls.from_json_obj(obj)


# -- validation ------------------------------------------------------------


@dataclass
class LeafReport:
    path: tuple[tuple[int, int, int], ...]  # (row, col, seeded sign) per node
    claimed: str
    ok: bool
    diagnostics: dict = dc_field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "path": [list(step) for step in self.path],
            "claimed": self.claimed,
            "ok": self.ok,
            "diagnostics": self.diagnostics,
        }


@dataclass
class Report:
    leaves: list[LeafReport]

    @property
    def ok(self) -> bool:
        return all(leaf.ok for leaf in self.leaves)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "leaves": [l.to_json_obj() for l in self.leaves]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=1, sort_keys=True)


def _check_leaf(leaf: CaseLeaf, mat: IncidenceMatrix, group: GroupSpec, path) -> LeafReport:
    j = leaf.justification
    if isinstance(j, Tautology):
        ok = is_tautology(mat)
        return LeafReport(path, j.kind, ok, {"conclusionCell": mat.entry(1, 1)})
    if isinstance(j, AxiomContradiction):
        found = contradicts_incidence_axiom(mat)
        diag: dict = {}
        if found is not None:
            diag["witness"] = {"rows": list(found.rows), "cols": list(found.cols)}
        ok = found is not None and (j.expected is None or found == j.expected)
        if j.expected is not None:
            diag["expected"] = {"rows": list(j.expected.rows), "cols": list(j.expected.cols)}
        return LeafReport(path, j.kind, ok, diag)
    if isinstance(j, Elementary):
        target = j.contradiction_target
        try:
            checked = mat if target is None else contradiction_form(mat, *target)
        except NotNegative as exc:
            return LeafReport(path, j.kind, False, {"error": str(exc)})
        try:
            report = validate_elementary_proof(j.complex, checked, group=group)
        except ValueError as exc:
            return LeafReport(path, j.kind, False, {"error": str(exc)})
        diag = report.to_json_obj()
        if target is not None:
            diag["target"] = list(target)
        return LeafReport(path, j.kind, report.ok, diag)
    raise CertificateParseError(f"unknown justification {j!r}")


def validate_certificate(cert: Certificate) -> Report:
    """Replay the certificate: apply the auxiliary steps, walk the case
    tree seeding and propagating, and check every leaf's claim."""
    leaves: list[LeafReport] = []

    def walk(node, mat: IncidenceMatrix, path) -> None:
        if isinstance(node, CaseLeaf):
            leaves.append(_check_leaf(node, mat, cert.group, path))
            return
        i, j = node.cell
        if mat.entry(i, j) != 0:
            raise CoverageGap(
                f"case node splits on ({i},{j}) which already holds "
                f"{mat.entry(i, j)}; its branches do not partition the cases"
            )
        for sign, child in ((-1, node.minus), (1, node.plus)):
            walk(child, propagate(mat, [(i, j, sign)]), path + ((i, j, sign),))

    walk(cert.case_tree, propagate(cert.start_matrix()), ())
    return Report(leaves)


# -- shipped certificates --------------------------------------------------
#
# These builders are the source of truth for the JSON documents under
# fixtures/; a test asserts the files and the builders agree.


def pappus_certificate() -> Certificate:
    """Complete case analysis of the hexagon theorem.

    Auxiliary steps: the three pairwise intersections of the carrier and
    cross lines (rows 10-12), a point on the conclusion line and the
    ninth line (row 13), the replacement cross line through it and the
    cross point of row 8 (column 10), and three further points on that
    line (rows 14-16).

    Case split: is the first diagonal point (row 10) off the original
    cross line (column 4), and if not, off the replacement (column 10)?
    The two torus tilings discharge those cases; the doubly-incident
    case propagates to a forbidden pattern unless the conclusion already
    holds.
    """
    from .catalog import pappus_base_matrix
    from .complexes import pappus_torus_case1, pappus_torus_case2

    aux = (
        (POINT_ON_TWO_LINES, 2, 3),
        (POINT_ON_TWO_LINES, 3, 4),
        (POINT_ON_TWO_LINES, 2, 4),
        (POINT_ON_TWO_LINES, 1, 9),
        (LINE_THROUGH_TWO_POINTS, 8, 13),
        (POINT_ON_TWO_LINES, 6, 10),
        (POINT_ON_TWO_LINES, 3, 10),
        (POINT_ON_TWO_LINES, 2, 10),
    )
    tree = CaseNode(
        (10, 4),
        minus=CaseLeaf(Elementary(pappus_torus_case1())),
        plus=CaseNode(
            (10, 10),
            minus=CaseLeaf(Elementary(pappus_torus_case2(), (14, 8))),
            plus=CaseNode(
                (1, 1),
                minus=CaseLeaf(
                    AxiomContradiction(PatternWitness((1, 10, 12), (2, 4, 3)))
                ),
                plus=CaseLeaf(Tautology()),
            ),
        ),
    )
    return Certificate(pappus_base_matrix(), aux, tree, GroupSpec.finite_field(3))


def desargues_certificate() -> Certificate:
    """One-leaf certificate: the labeled tetrahedron proves its own
    generated theorem directly, over F_2* (the trivial group)."""
    from .complexes import desargues_tetrahedron
    from .surfaces import generate_theorem

    mc = desargues_tetrahedron()
    tree = CaseLeaf(Elementary(mc))
    return Certificate(generate_theorem(mc), (), tree, GroupSpec.finite_field(2))


def one_line_certificate() -> Certificate:
    """One-leaf certificate for the three-collinear-points statement on
    the two-face glued sphere."""
    from .catalog import one_line_matrix
    from .complexes import one_line_complex

    tree = CaseLeaf(Elementary(one_line_complex()))
    return Certificate(one_line_matrix(), (), tree, GroupSpec.finite_field(3))


def nine_gon_certificate() -> Certificate:
    """One-leaf certificate for the closed 9-chain theorem on the
    triply-wrapped fan; its marked face is excisable over the chosen
    group, F_2* (the trivial group: torsion (1,), where every face
    excises), but not over groups with 3-torsion."""
    from .complexes import nine_gon_grope
    from .surfaces import generate_theorem

    mc = nine_gon_grope()
    tree = CaseLeaf(Elementary(mc))
    return Certificate(generate_theorem(mc), (), tree, GroupSpec.finite_field(2))


SHIPPED_CERTIFICATES = {
    "pappus": pappus_certificate,
    "desargues": desargues_certificate,
    "one-line": one_line_certificate,
    "nine-gon": nine_gon_certificate,
}
