import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tilingcalc
from tilingcalc.catalog import pappus_case1_golden
from tilingcalc.cli import UsageError, main, parse_group
from tilingcalc.complexes import desargues_tetrahedron, one_line_complex
from tilingcalc.excision import GroupSpec, boundary_matrix, can_excise
from tilingcalc.gropes import fan_disc, grope_base, grope_glue, random_closed_surface
from tilingcalc.search import check_theorem
from tilingcalc.surfaces import Labeling, MarkedComplex, generate_theorem
from tilingcalc.ternary import IncidenceMatrix, propagate

FIXTURES = files("tilingcalc") / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run_module(*argv, stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter, to see its real stderr."""
    src = str(Path(tilingcalc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    return subprocess.run(
        [sys.executable, "-m", "tilingcalc.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


def aux_step(a, kind="PointOnTwoLines"):
    return {"kind": kind, "a": a, "b": 1}


def split_on(cell, cert_obj):
    return {"cell": cell, "minus": cert_obj["cases"], "plus": cert_obj["cases"]}


def axiom_leaf(rows, cols):
    return {"leaf": {"kind": "axiom-contradiction", "rows": rows, "cols": cols}}


def set_first_one(triple, value):
    """Rewrite the leading 1 of a normalized projective triple."""
    triple[triple.index(1)] = value


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestGroupShortcuts:
    def test_named_groups(self):
        assert parse_group("R*") == GroupSpec.reals()
        assert parse_group("C*") == GroupSpec.complexes()
        assert parse_group("F4") == GroupSpec.finite_field(4)
        assert parse_group("F7*") == GroupSpec.finite_field(7)
        assert parse_group("F5(X)*") == GroupSpec.rational_functions(5)

    def test_raw_json_spec(self):
        assert parse_group('{"infinite": true, "torsion": [2, 6]}') == GroupSpec(
            True, (2, 6)
        )

    def test_garbage_rejected(self):
        with pytest.raises(UsageError):
            parse_group("Z/5")


class TestCheck:
    def test_fano_counterexample_over_order_two(self, capsys):
        code, report = run(capsys, "check", fx("fano.json"), "--q", "2")
        assert code == 1
        assert report["verdict"]["outcome"] == "counterexample"
        assert "counterexample" in report["verdict"]

    def test_fano_true_over_order_three(self, capsys):
        code, report = run(capsys, "check", fx("fano.json"), "--q", "3")
        assert code == 0
        assert report["verdict"]["outcome"] == "true"

    def test_report_is_byte_deterministic(self):
        first = run_module("check", fx("fano.json"), "--q", "3")
        second = run_module("check", fx("fano.json"), "--q", "3")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestVerify:
    def test_search_witness_round_trips_through_verify(self, capsys, tmp_path):
        _, report = run(capsys, "check", fx("fano.json"), "--q", "2")
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(report["verdict"]["counterexample"]))
        code, report = run(capsys, "verify", fx("fano.json"), str(witness))
        assert code == 0
        assert report["verified"] is True

    def test_mismatched_configuration_fails(self, capsys, tmp_path):
        _, report = run(capsys, "check", fx("fano.json"), "--q", "2")
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(report["verdict"]["counterexample"]))
        code, report = run(capsys, "verify", fx("pappus12x9.json"), str(witness))
        assert code == 2  # dimension mismatch is a usage error

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda c: set_first_one(c["points"][0], 1.0), id="coordinate-float"),
            pytest.param(lambda c: set_first_one(c["lines"][0], True), id="coordinate-bool"),
            pytest.param(lambda c: c.update(q=2.0), id="q-float"),
            pytest.param(lambda c: c.update(q=33), id="q-33"),
        ],
    )
    def test_non_integer_configuration_is_usage_error(self, tmp_path, edit):
        config = check_theorem(IncidenceMatrix.from_json(Path(fx("fano.json")).read_text()), 2)
        obj = config.counterexample.to_json_obj()
        edit(obj)
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(obj))
        proc = run_module("verify", fx("fano.json"), str(witness))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {witness}: ")


class TestPropagate:
    def test_golden_first_case(self, capsys):
        code, report = run(
            capsys,
            "propagate", fx("pappus12x9.json"), "--seed", "10,4,-1", "--sweeps", "fix",
        )
        assert code == 0
        assert IncidenceMatrix.from_json_obj(report["matrix"]) == pappus_case1_golden()

    def test_seed_conflict_reported(self, capsys):
        code, report = run(
            capsys, "propagate", fx("pappus12x9.json"), "--seed", "1,4,-1"
        )
        assert code == 1
        assert "conflict" in report

    def test_bad_seed_syntax(self, capsys):
        code, _ = run(capsys, "propagate", fx("pappus12x9.json"), "--seed", "alpha")
        assert code == 2

    @pytest.mark.parametrize("entries", [[[1.5, 1], [1, 1]], [[1, 1], [1, True]]])
    def test_non_integer_entries_rejected(self, capsys, tmp_path, entries):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"entries": entries}))
        code, report = run(capsys, "propagate", str(src))
        assert code == 2
        assert report is None

    @pytest.mark.parametrize("seed", ["0,0,-1", "99,99,1", "13,1,1"])
    def test_seed_out_of_range(self, capsys, seed):
        code, report = run(capsys, "propagate", fx("pappus12x9.json"), "--seed", seed)
        assert code == 2
        assert report is None


class TestExcise:
    @staticmethod
    def assert_fails_exactly_at(K, face, cochain):
        n = cochain["modulus"]
        values = [cochain["values"][str(e + 1)] for e in range(len(K.edges))]
        for f, row in enumerate(boundary_matrix(K)):
            value = sum(c * v for c, v in zip(row, values)) % n
            assert (value != 0) == (f == face), (f, face, n)

    def excise_marked(self, capsys, path, group):
        code, report = run(capsys, "excise", path, "--face", "marked", "--group", group)
        if code == 1:
            mc = MarkedComplex.from_json(Path(path).read_text())
            self.assert_fails_exactly_at(mc.complex, mc.marked, report["failingCochain"])
        return code, report

    def test_marked_face_not_excisable_with_three_torsion(self, capsys):
        # the witness is taken at the group's own torsion order
        for group, n in (("F4", 3), ("F16*", 15), ("F2147483647*", 2147483646)):
            code, report = self.excise_marked(capsys, fx("ninegon-grope.json"), group)
            assert code == 1
            assert report["excisable"] is False
            assert report["failingCochain"]["modulus"] == n, group

    def test_finite_group_witness_modulus_divides_its_order(self, capsys):
        # the would-be 6-gon fails over every cyclic group, so Z/2 has a
        # failing cochain too; but Z/2 is no subgroup of F16* (order 15)
        code, report = self.excise_marked(capsys, fx("would-be-6-gon.json"), "F16*")
        assert code == 1
        assert report["failingCochain"]["modulus"] == 15

    def test_every_negative_carries_a_witness(self, capsys, tmp_path):
        # large torsion (F32*: 31) and many edges (36) alike: the witness
        # is read off the face's class, so no size leaves exit 1 without one
        code, report = self.excise_marked(capsys, fx("would-be-6-gon.json"), "F32")
        assert code == 1
        assert report["failingCochain"]["modulus"] == 31
        base = random_closed_surface(random.Random(0), max_faces=10)
        K = grope_glue(grope_base(base), 0, fan_disc(21), 7, GroupSpec.reals()).complex
        assert (len(K.faces), len(K.edges)) == (30, 36)
        F8 = GroupSpec.finite_field(8)
        face = next(f for f in range(len(K.faces)) if not can_excise(K, f, F8))
        # one point label 1 on the face, which alone carries line label 1
        e = K.face_edges(face)[0]
        lab = Labeling(
            (2,) * K.vertex_count,
            tuple(int(i != e) + 1 for i in range(len(K.edges))),
            tuple(int(f != face) + 1 for f in range(len(K.faces))),
            (2,) * len(K.edges),
        )
        src = tmp_path / "glued.json"
        src.write_text(MarkedComplex(K, lab, face).to_json())
        code, report = self.excise_marked(capsys, str(src), "F8")
        assert code == 1
        assert report["failingCochain"]["modulus"] == 7

    def test_marked_face_excisable_without(self, capsys):
        code, report = run(
            capsys, "excise", fx("ninegon-grope.json"), "--face", "marked",
            "--group", "F8",
        )
        assert code == 0
        assert report["excisable"] is True

    def test_witness_skips_excisable_moduli(self, capsys, monkeypatch):
        # over C* the marked face excises mod 2 but not mod 3, so the
        # witness search should only enumerate cochains mod 3
        from tilingcalc import cli

        seen = []
        real = cli.failing_cochain

        def spy(K, face, n):
            seen.append(n)
            return real(K, face, n)

        monkeypatch.setattr(cli, "failing_cochain", spy)
        code, report = run(
            capsys, "excise", fx("ninegon-grope.json"), "--face", "marked",
            "--group", "C*",
        )
        assert code == 1
        assert seen == [3]
        assert report["failingCochain"]["modulus"] == 3

    def test_face_out_of_range(self, capsys):
        code, _ = run(
            capsys, "excise", fx("ninegon-grope.json"), "--face", "99", "--group", "R*"
        )
        assert code == 2

    @staticmethod
    def excise_edited_tetrahedron(tmp_path, edit):
        obj = json.loads((FIXTURES / "desargues-tetrahedron.json").read_text())
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        return run_module("excise", str(bad), "--face", "marked", "--group", "R*")

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda o: o.update(simplicial=[]), id="simplicial-list"),
            pytest.param(lambda o: o.update(simplicial="no"), id="simplicial-string"),
            pytest.param(lambda o: o.update(marked=4.0), id="marked-float"),
            pytest.param(lambda o: o["edges"][0].__setitem__(0, 0.9), id="endpoint-float"),
            pytest.param(lambda o: o["edges"][0].__setitem__(1, True), id="endpoint-bool"),
            pytest.param(lambda o: o["faces"][0].__setitem__(0, 1.5), id="face-float"),
            pytest.param(lambda o: o["p"].update(v1=7.5), id="label-float"),
        ],
    )
    def test_malformed_complex_is_usage_error(self, tmp_path, edit):
        proc = self.excise_edited_tetrahedron(tmp_path, edit)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "spec",
        [
            '{"infinite": "no", "torsion": [2]}',
            '{"infinite": 0, "torsion": [2]}',
            '{"infinite": false, "torsion": [1.5]}',
            '{"infinite": false, "torsion": [true]}',
            '{"infinite": false, "torsion": "all"}',
            '{"infinite": false, "torsion": [0]}',
            pytest.param("[" * 100_000, id="nested-too-deep"),
            # no field has these orders
            "F6*",
            "F6(X)*",
            "F1000000*",
        ],
    )
    def test_malformed_group_spec_is_usage_error(self, spec):
        proc = run_module(
            "excise", fx("desargues-tetrahedron.json"), "--face", "1", "--group", spec
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot parse group")

    @pytest.mark.parametrize("marked", [99, 0])
    def test_marked_out_of_range_names_field(self, tmp_path, marked):
        proc = self.excise_edited_tetrahedron(tmp_path, lambda o: o.update(marked=marked))
        assert proc.returncode == 2, proc.stderr
        assert f"marked face {marked} is not in 1..4" in proc.stderr


class TestComplexCommands:
    def test_generate_matches_library(self, capsys):
        code, report = run(capsys, "generate", fx("desargues-tetrahedron.json"))
        assert code == 0
        assert IncidenceMatrix.from_json_obj(report["matrix"]) == generate_theorem(
            desargues_tetrahedron()
        )

    def test_validate_case1_against_golden(self, capsys, tmp_path):
        mat = tmp_path / "golden.json"
        mat.write_text(pappus_case1_golden().to_json())
        code, report = run(
            capsys,
            "validate", fx("pappus-torus-case1.json"),
            "--matrix", str(mat), "--group", "R*",
        )
        assert code == 0
        assert report["report"]["ok"] is True

    def test_subdivide_round_trips(self, capsys, tmp_path):
        src = tmp_path / "one-line.json"
        src.write_text(one_line_complex().to_json())
        code, report = run(capsys, "subdivide", str(src))
        assert code == 0
        from tilingcalc.surfaces import octahedral_subdivide

        out = MarkedComplex.from_json_obj(report["complex"])
        assert out == octahedral_subdivide(one_line_complex())

    def test_fixture_octahedron_matches_subdivision(self, capsys, tmp_path):
        src = tmp_path / "one-line.json"
        src.write_text(one_line_complex().to_json())
        _, report = run(capsys, "subdivide", str(src))
        shipped = json.loads((FIXTURES / "one-line-octahedron.json").read_text())
        assert report["complex"] == shipped


class TestGrope:
    def test_random_requires_seed(self, capsys):
        code = main(["grope", "random", "--group", "R*"])
        capsys.readouterr()
        assert code == 2

    def test_random_is_deterministic_given_seed(self, capsys):
        _, a = run(capsys, "grope", "random", "--seed", "11", "--group", "F8*")
        _, b = run(capsys, "grope", "random", "--seed", "11", "--group", "F8*")
        assert a["grope"] == b["grope"]

    def test_named_builders(self, capsys):
        for builder in ("nine-gon", "two-stage"):
            code, report = run(capsys, "grope", builder)
            assert code == 0 and "grope" in report


class TestProveValidate:
    @pytest.mark.parametrize(
        "name",
        ["cert-pappus.json", "cert-desargues.json", "cert-one-line.json",
         "cert-nine-gon.json"],
    )
    def test_shipped_certificates_accepted(self, capsys, name):
        code, report = run(capsys, "prove-validate", fx(name))
        assert code == 0
        assert report["report"]["ok"] is True

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        obj = json.loads((FIXTURES / "cert-desargues.json").read_text())
        obj["cases"] = {"leaf": {"kind": "tautology"}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, report = run(capsys, "prove-validate", str(bad))
        assert code == 1
        assert report["report"]["ok"] is False

    def test_deeply_nested_certificate_is_usage_error(self, tmp_path):
        # written as text: json.dumps itself recurses too deep on the tree
        obj = json.loads((FIXTURES / "cert-one-line.json").read_text())
        leaf = json.dumps(obj["cases"])
        node = '{"cell": [1, 1], "minus": %s, "plus": ' % leaf
        tree = node * 3000 + leaf + "}" * 3000
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({**obj, "cases": None}).replace("null", tree))
        proc = run_module("prove-validate", str(deep))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda o: o.update(aux=[aux_step("x")]), id="aux-string"),
            pytest.param(lambda o: o.update(aux=[aux_step(99)]), id="aux-99"),
            pytest.param(lambda o: o.update(aux=[aux_step(0)]), id="aux-0"),
            pytest.param(lambda o: o.update(aux=[aux_step(-1)]), id="aux-minus-1"),
            pytest.param(lambda o: o.update(aux=[aux_step(None)]), id="aux-missing"),
            pytest.param(lambda o: o.update(aux=[aux_step(7, "LineThroughTwoPoints")]),
                         id="aux-line-7"),
            pytest.param(lambda o: o.update(cases=split_on([99, 99], o)), id="cell-99-99"),
            pytest.param(lambda o: o.update(cases=split_on(["a", 1], o)), id="cell-string"),
            pytest.param(lambda o: o["cases"]["leaf"].update(target=[99, 1]), id="target-99-1"),
            pytest.param(lambda o: [o], id="top-level-list"),
            pytest.param(lambda o: o.update(cases={"leaf": "x"}), id="leaf-string"),
            pytest.param(lambda o: o.update(group={"infinite": "no", "torsion": [2]}),
                         id="group-infinite-string"),
            pytest.param(lambda o: o.update(group={"infinite": False, "torsion": [1.5]}),
                         id="group-torsion-float"),
            pytest.param(lambda o: o.update(group={"infinite": False, "torsion": [True]}),
                         id="group-torsion-bool"),
            pytest.param(lambda o: o.update(cases=axiom_leaf("abc", "xyz")), id="witness-strings"),
            pytest.param(lambda o: o.update(cases=axiom_leaf([1, 2, 99], [1, 2, 3])),
                         id="witness-row-99"),
            pytest.param(lambda o: o.update(cases=axiom_leaf([1, 2, 3], [0, 1, 2])),
                         id="witness-col-0"),
            pytest.param(lambda o: o.update(cases=axiom_leaf([1, 2], [1, 2, 3])),
                         id="witness-two-rows"),
            pytest.param(lambda o: o.update(cases=axiom_leaf([1, 2, True], [1, 2, 3])),
                         id="witness-bool"),
        ],
    )
    def test_bad_content_is_usage_error(self, tmp_path, edit):
        obj = json.loads((FIXTURES / "cert-one-line.json").read_text())
        obj = edit(obj) or obj
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        proc = run_module("prove-validate", str(bad))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_malformed_certificate_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other"}')
        code = main(["prove-validate", str(bad)])
        capsys.readouterr()
        assert code == 2


class TestQuat:
    def test_noncommuting_units_give_counterexample(self, capsys):
        code, report = run(capsys, "quat", "pappus", "--u", "i", "--v", "j")
        assert code == 1
        assert len(report["counterexample"]["points"]) == 12

    def test_commuting_units_rejected(self, capsys):
        code = main(["quat", "pappus", "--u", "i", "--v", "i"])
        capsys.readouterr()
        assert code == 2

    def test_rational_component_form(self, capsys):
        code, report = run(
            capsys, "quat", "pappus", "--u", "1,1,0,0", "--v", "1,0,1,0"
        )
        assert code == 1

    def test_huge_exponent_is_a_usage_error_within_a_second(self, capsys):
        # Fraction("1e100000") would build a 100,001-digit power, and the
        # construction would then run for minutes
        start = time.perf_counter()
        code = main(["quat", "pappus", "--u", "1e100000,1,0,0", "--v", "j"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "error: bad quaternion component '1e100000'" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits"
    )
    def test_coordinates_past_the_digit_limit_name_the_inputs(self, capsys):
        code = main(["quat", "pappus", "--u", "1e1000,1,0,0", "--v", "1e-1000,0,1,0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--u '1e1000,1,0,0' and --v '1e-1000,0,1,0'" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("u", ["1e3,1,0,0", "1e1000,1,0,0", "1,0,0,1E-0_999"])
    def test_exponents_up_to_the_bound_are_accepted(self, capsys, u):
        assert main(["quat", "pappus", "--u", u, "--v", "j"]) == 1
        capsys.readouterr()


class TestPlumbing:
    def test_selftest_passes(self, capsys):
        code, report = run(capsys, "selftest")
        assert code == 0
        assert report["ok"] is True and all(report["checks"].values())

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", fx("fano.json"), "--q", "2"),
            ("grope", "random", "--seed", "1", "--ks", "3"),
        ],
    )
    def test_closed_stdout_exits_2_without_traceback(self, argv):
        read, write = os.pipe()
        os.close(read)  # no reader: every write to the pipe fails
        try:
            proc = run_module(*argv, stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, "")

    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_missing_file(self, capsys):
        code = main(["check", "/nonexistent.json", "--q", "2"])
        assert capsys.readouterr().err.startswith("error: cannot read /nonexistent.json: ")
        assert code == 2

    def test_non_utf8_file_is_unreadable(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe not utf-8")
        code = main(["propagate", str(path)])
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", fx("fano.json"), "--q", "6"],
            ["excise", fx("ninegon-grope.json"), "--face", "marked", "--group", "F1"],
            ["grope", "random", "--seed", "1", "--group", "F1"],
            ["grope", "random", "--seed", "1", "--group", "F0(X)*"],
            ["grope", "random", "--seed", "1", "--ks", "1"],
            ["grope", "random", "--seed", "1", "--ks", "x"],
            ["propagate", fx("pappus12x9.json"), "--seed", "1,1,5"],
            ["propagate", fx("pappus12x9.json"), "--sweeps", "-1"],
            ["check", fx("fano.json"), "--q", "33"],
            ["check", fx("fano.json"), "--q", "1024"],
        ],
    )
    def test_bad_input_is_usage_error(self, argv):
        proc = run_module(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "DEEP", "--q", "2"],
            ["verify", "DEEP", fx("fano.json")],
            ["verify", fx("fano.json"), "DEEP"],
            ["propagate", "DEEP"],
            ["excise", "DEEP", "--face", "marked", "--group", "R*"],
            ["generate", "DEEP"],
            ["validate", fx("pappus-torus-case1.json"), "--matrix", "DEEP"],
            ["subdivide", "DEEP"],
            ["prove-validate", "DEEP"],
        ],
    )
    def test_deeply_nested_json_is_usage_error(self, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        proc = run_module(*(str(deep) if a == "DEEP" else a for a in argv))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert str(deep) in proc.stderr

    def test_reused_parser_keeps_each_calls_seeds(self, capsys, tmp_path):
        # main builds its parser once per process; the --seed list of one
        # call must not leak into the next
        path = tmp_path / "zeros.json"
        text = IncidenceMatrix([[0] * 3] * 3).to_json()
        path.write_text(text)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        for seeds in ([(1, 1, 1)], [], [(2, 2, -1)]):
            argv = [a for r, c, v in seeds for a in ("--seed", f"{r},{c},{v}")]
            code, report = run(capsys, "propagate", str(path), *argv)
            assert code == 0
            assert report["inputs"] == {str(path): digest}
            want = propagate(IncidenceMatrix.from_json(text), seeds)
            assert report["matrix"] == want.to_json_obj()

    def test_reports_carry_input_digests(self, capsys):
        _, report = run(capsys, "generate", fx("desargues-tetrahedron.json"))
        assert list(report["inputs"].values())[0]


# -- fuzzing the exit contract ----------------------------------------------

DROP = object()
REPLACEMENTS = [DROP, 0, -1, 1.5, True, None, "x", [], {}, 10**30]

# (argv, the input to mutate); MUT is the mutated file, CONFIG and GOLDEN
# are the fano counterexample over q=2 and the pappus case-1 golden matrix
FUZZ_RUNS = [
    (["check", "MUT", "--q", "2"], "fano.json"),
    (["verify", "MUT", "CONFIG"], "fano.json"),
    (["verify", fx("fano.json"), "MUT"], "CONFIG"),
    (["propagate", "MUT", "--seed", "10,4,-1"], "pappus12x9.json"),
    (["excise", "MUT", "--face", "marked", "--group", "R*"], "desargues-tetrahedron.json"),
    (["excise", "MUT", "--face", "marked", "--group", "F4"], "ninegon-grope.json"),
    (["generate", "MUT"], "desargues-tetrahedron.json"),
    (["validate", "MUT", "--matrix", "GOLDEN", "--group", "R*"], "pappus-torus-case1.json"),
    (["validate", fx("pappus-torus-case1.json"), "--matrix", "MUT", "--group", "R*"], "GOLDEN"),
    (["subdivide", "MUT"], "one-line-octahedron.json"),
    (["prove-validate", "MUT"], "cert-one-line.json"),
    (["prove-validate", "MUT"], "cert-desargues.json"),
    (["prove-validate", "MUT"], "cert-nine-gon.json"),
    (["prove-validate", "MUT"], "cert-pappus.json"),
]


def json_paths(obj, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def mutated(doc, path, value) -> str:
    """The document with the value at path dropped or replaced, as text."""
    if not path:
        return "" if value is DROP else json.dumps(value)
    doc = copy.deepcopy(doc)
    *outer, last = path
    parent = doc
    for key in outer:
        parent = parent[key]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return json.dumps(doc)


def carries_evidence(command, report) -> bool:
    """Whether an exit-1 report names what made the claim fail."""
    if command == "check":
        return "counterexample" in report["verdict"]
    if command == "verify":
        return report["verified"] is False
    if command == "propagate":
        return "conflict" in report
    if command == "excise":
        return report["excisable"] is False and report["failingCochain"] is not None
    if command == "validate":
        r = report["report"]
        return bool(
            len(r["zeroPairs"]) != 1
            or r["plusViolations"]
            or r["minusViolations"]
            or r["excisable"] is False
        )
    if command == "prove-validate":
        return "coverageGap" in report or any(
            not leaf["ok"] for leaf in report["report"]["leaves"]
        )
    return False  # generate and subdivide have no negative verdict


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    fano = IncidenceMatrix.from_json(Path(fx("fano.json")).read_text())
    docs = {
        "CONFIG": check_theorem(fano, 2).counterexample.to_json_obj(),
        "GOLDEN": pappus_case1_golden().to_json_obj(),
    }
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    for _, source in FUZZ_RUNS:
        if source not in docs:
            docs[source] = json.loads((FIXTURES / source).read_text())
    return root, docs


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exit_contract_on_mutated_inputs(self, fuzz_inputs, data):
        root, docs = fuzz_inputs
        argv, source = data.draw(st.sampled_from(FUZZ_RUNS))
        path = data.draw(st.sampled_from(list(json_paths(docs[source]))))
        value = data.draw(st.sampled_from(REPLACEMENTS))
        mut = root / "MUT.json"
        # a new file each time: truncating an existing one is much slower
        # on some filesystems
        mut.unlink(missing_ok=True)
        mut.write_text(mutated(docs[source], path, value))
        argv = [str(root / f"{a}.json") if a in ("MUT", "CONFIG", "GOLDEN") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # any exception escaping main fails the test
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
        if code == 1:
            assert carries_evidence(argv[0], json.loads(out.getvalue()))


# -- fuzzing the option values ----------------------------------------------


def numbers(lo, hi):
    return st.integers(lo, hi).map(str)


TEXT = st.text(max_size=6)
GROUPS = st.one_of(
    st.sampled_from(["R*", "C*", "R", "C", "F4", "GF9*", "F3(X)*", "F6", "F1", "F0(X)*",
                     "F4294967291", "F4294967296", "F99999999999"]),
    numbers(-1, 30).map(lambda q: f"F{q}"),
    st.builds(
        lambda infinite, torsion: json.dumps({"infinite": infinite, "torsion": torsion}),
        st.sampled_from([True, False, None, 0]),
        st.one_of(st.just("full"), st.lists(st.integers(-1, 40), max_size=3), TEXT),
    ),
    TEXT,
)
QUATERNIONS = st.one_of(
    st.sampled_from(["1", "i", "j", "k"]),
    st.lists(
        st.sampled_from(["0", "1", "-2", "1/2", "3/-4", "1e3", "1e100000", "2/0", "nan"]),
        min_size=4, max_size=4,
    ).map(",".join),
    TEXT,
)
SEEDS = st.lists(
    st.one_of(
        st.tuples(numbers(-1, 14), numbers(-1, 11), numbers(-2, 2)).map(",".join),
        TEXT,
    ),
    max_size=3,
).map(lambda specs: [a for spec in specs for a in ("--seed", spec)])
ARGVS = st.one_of(
    st.builds(lambda q: ["check", fx("fano.json"), "--q", q],
              st.one_of(numbers(-2, 12), TEXT)),
    st.builds(lambda face, group: ["excise", fx("ninegon-grope.json"), "--face", face,
                                   "--group", group],
              st.one_of(st.just("marked"), numbers(-1, 40), TEXT), GROUPS),
    st.builds(lambda seeds, sweeps: ["propagate", fx("pappus12x9.json"), *seeds,
                                     "--sweeps", sweeps],
              SEEDS, st.one_of(st.just("fix"), numbers(-2, 4), TEXT)),
    st.builds(lambda seed, group: ["grope", "random", "--seed", seed, "--group", group,
                                   "--ks", "3"],
              st.one_of(numbers(-5, 10**6), TEXT), GROUPS),
    st.builds(lambda u, v: ["quat", "pappus", "--u", u, "--v", v], QUATERNIONS, QUATERNIONS),
)


# a field order past nine; the Fano statement holds over every odd order
FANO_OVER_11 = ["check", fx("fano.json"), "--q", "11"]


class TestArgvFuzz:
    # Hundreds of in-process calls, all through the one parser main builds.
    # argparse's own usage errors print a usage line before "prog: error: ".
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(argv=ARGVS)
    @example(argv=FANO_OVER_11)
    def test_exit_contract_on_drawn_arguments(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # any exception escaping main fails the test
        assert code in (0, 1, 2), argv
        if argv == FANO_OVER_11:
            assert code == 0, err.getvalue()
        if code == 2:
            assert "error: " in err.getvalue(), argv

