import json
from importlib.resources import files

import pytest

from tilingcalc.catalog import axiom_matrix, pappus_aux16_matrix
from tilingcalc.certificates import (
    AxiomContradiction,
    CaseLeaf,
    CaseNode,
    Certificate,
    CertificateParseError,
    MAX_CASE_DEPTH,
    CoverageGap,
    Elementary,
    SHIPPED_CERTIFICATES,
    Tautology,
    desargues_certificate,
    nine_gon_certificate,
    one_line_certificate,
    pappus_certificate,
    validate_certificate,
)
from tilingcalc.complexes import desargues_tetrahedron
from tilingcalc.excision import GroupSpec
from tilingcalc.search import check_theorem
from tilingcalc.ternary import IncidenceMatrix, PatternWitness

FIXTURES = files("tilingcalc") / "fixtures"


def load(name):
    return Certificate.from_json((FIXTURES / name).read_text())


class TestPappusCertificate:
    def test_aux_steps_reach_the_sixteen_by_ten_matrix(self):
        assert pappus_certificate().start_matrix() == pappus_aux16_matrix()

    def test_all_leaves_pass(self):
        report = validate_certificate(pappus_certificate())
        assert report.ok
        assert [l.claimed for l in report.leaves] == [
            "elementary",
            "elementary",
            "axiom-contradiction",
            "tautology",
        ]

    def test_case_paths(self):
        report = validate_certificate(pappus_certificate())
        assert [l.path for l in report.leaves] == [
            (((10, 4, -1)),),
            ((10, 4, 1), (10, 10, -1)),
            ((10, 4, 1), (10, 10, 1), (1, 1, -1)),
            ((10, 4, 1), (10, 10, 1), (1, 1, 1)),
        ]

    def test_axiom_contradiction_witness_pinned(self):
        report = validate_certificate(pappus_certificate())
        leaf = report.leaves[2]
        assert leaf.diagnostics["witness"] == leaf.diagnostics["expected"]


class TestSingleLeafCertificates:
    @pytest.mark.parametrize(
        "build", [desargues_certificate, one_line_certificate, nine_gon_certificate]
    )
    def test_validates(self, build):
        report = validate_certificate(build())
        assert report.ok
        assert len(report.leaves) == 1


class TestAxiomSplitExample:
    def test_both_leaves_discharge_without_complexes(self):
        cert = Certificate(
            axiom_matrix(),
            (),
            CaseNode(
                (1, 1),
                minus=CaseLeaf(AxiomContradiction()),
                plus=CaseLeaf(Tautology()),
            ),
            GroupSpec.reals(),
        )
        report = validate_certificate(cert)
        assert report.ok
        assert [l.claimed for l in report.leaves] == ["axiom-contradiction", "tautology"]


class TestValidatorRejections:
    def test_false_tautology_claim_fails(self):
        cert = Certificate(
            axiom_matrix(), (), CaseLeaf(Tautology()), GroupSpec.reals()
        )
        assert not validate_certificate(cert).ok

    def test_wrong_witness_fails(self):
        cert = Certificate(
            axiom_matrix(),
            (),
            CaseNode(
                (1, 1),
                minus=CaseLeaf(AxiomContradiction(PatternWitness((1, 2, 3), (3, 2, 1)))),
                plus=CaseLeaf(Tautology()),
            ),
            GroupSpec.reals(),
        )
        report = validate_certificate(cert)
        assert not report.ok
        assert not report.leaves[0].ok

    def test_contradiction_target_must_hold_minus(self):
        mc = desargues_tetrahedron()
        base = desargues_certificate().base_matrix
        cert = Certificate(
            base, (), CaseLeaf(Elementary(mc, (1, 1))), GroupSpec.reals()
        )
        report = validate_certificate(cert)
        assert not report.ok
        assert "error" in report.leaves[0].diagnostics

    def test_split_on_decided_cell_is_a_coverage_gap(self):
        cert = Certificate(
            axiom_matrix(),
            (),
            CaseNode(
                (1, 2),  # entry is already +1
                minus=CaseLeaf(Tautology()),
                plus=CaseLeaf(Tautology()),
            ),
            GroupSpec.reals(),
        )
        with pytest.raises(CoverageGap):
            validate_certificate(cert)


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(SHIPPED_CERTIFICATES))
    def test_fixture_file_matches_builder(self, name):
        text = (FIXTURES / f"cert-{name}.json").read_text()
        built = SHIPPED_CERTIFICATES[name]()
        assert json.loads(text) == built.to_json_obj()
        assert Certificate.from_json(text) == built

    def test_report_output_is_deterministic(self):
        cert = load("cert-pappus.json")
        a = validate_certificate(cert).to_json()
        b = validate_certificate(load("cert-pappus.json")).to_json()
        assert a == b

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(format="something-else"),
            lambda o: o.update(version=2),
            lambda o: o["aux"].append({"kind": "Teleport"}),
            lambda o: o["cases"]["minus"].pop("leaf") and None,
            lambda o: o["cases"].pop("minus"),
        ],
    )
    def test_parse_errors(self, mutate):
        obj = pappus_certificate().to_json_obj()
        mutate(obj)
        with pytest.raises(CertificateParseError):
            Certificate.from_json_obj(obj)

    def test_malformed_json_text(self):
        with pytest.raises(CertificateParseError):
            Certificate.from_json("{not json")


def _minus_chain(depth):
    """A certificate over an all-zero 21 x 10 matrix whose case tree
    splits `depth` times, each time on a new cell down the minus side."""
    cells = [(i, j) for i in range(1, 22) for j in range(1, 11)][:depth]
    tree = CaseLeaf(Tautology())
    for cell in reversed(cells):
        tree = CaseNode(cell, minus=tree, plus=CaseLeaf(Tautology()))
    base = IncidenceMatrix([[0] * 10 for _ in range(21)])
    return Certificate(base, (), tree, GroupSpec.finite_field(2))


class TestNestingDepth:
    def test_deepest_accepted_tree_parses_and_replays(self):
        cert = _minus_chain(MAX_CASE_DEPTH)
        assert Certificate.from_json(cert.to_json()) == cert
        report = validate_certificate(cert)
        assert len(report.leaves) == MAX_CASE_DEPTH + 1

    def test_one_level_deeper_rejected(self):
        obj = _minus_chain(MAX_CASE_DEPTH + 1).to_json_obj()
        with pytest.raises(CertificateParseError):
            Certificate.from_json_obj(obj)


class TestSoundnessSpotCheck:
    @pytest.mark.parametrize("name", sorted(SHIPPED_CERTIFICATES))
    def test_base_matrix_true_over_the_modeled_field(self, name):
        cert = SHIPPED_CERTIFICATES[name]()
        for q in (2, 3):
            if cert.group == GroupSpec.finite_field(q):
                assert validate_certificate(cert).ok
                assert check_theorem(cert.base_matrix, q).outcome == "true"
                break
        else:
            pytest.fail("shipped certificate does not model a small field")
