"""Command-line front end.

Every subcommand is a thin adapter over the library: it loads JSON
inputs, calls one library routine, and prints a JSON report to stdout.

Exit codes: 0 — the claim was verified (theorem true, configuration
valid, certificate accepted, face excisable); 1 — a counterexample or
violation was found, with the witness in the report; 2 — usage or
resource errors.

Exit 2 is decided in two places only: ``_load`` turns any fault in an
input file (unreadable, not JSON, nested too deep, or content its type
rejects) into a ``UsageError`` naming the file, and ``main`` turns any
``ValueError``, ``KeyError``, ``TypeError`` or ``IndexError`` that
escapes a subcommand into one ``error:`` line, and a stdout closed by its
reader (``BrokenPipeError``) into exit 2 with nothing on stderr.

The argparse tree is built once per process, on the first ``main`` call,
and reused by later calls.  Only in-process callers (tests, library
users, benchmarks) gain from that: a ``tilingcalc`` process calls
``main`` once.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import re
import sys

from .excision import GroupSpec, failing_cochain
from .plane import Configuration
from .surfaces import MarkedComplex, generate_theorem, octahedral_subdivide
from .ternary import IncidenceMatrix, SeedConflict, propagate

@functools.cache
def _tool_version() -> str:
    # importlib.metadata pulls in email, zipfile and csv: load it only
    # when a report is written
    from importlib import metadata

    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:  # running from a source tree
        return "unknown"


class UsageError(ValueError):
    """Bad arguments or unreadable inputs; exits with code 2."""


# -- plumbing --------------------------------------------------------------


def _load(args, path: str, parse):
    """The file parsed by ``parse`` (a type's ``from_json``); any fault in
    reading it, or in its text or content, is a usage error naming the
    file.  The digest of the text goes into ``args.inputs`` for the
    report."""
    # open, not pathlib: pathlib interns each part of the path, and over
    # thousands of in-process calls that churn regrows the interpreter's
    # table of interned strings (about 1 MB more peak memory)
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    args.inputs[path] = hashlib.sha256(text.encode()).hexdigest()[:16]
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _report(args, **body) -> dict:
    return {
        "command": args.command,
        "version": _tool_version(),
        "inputs": args.inputs,
        **body,
    }


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


_GROUP_NAME = re.compile(r"^(?:GF|F)(\d+)(\(X\))?\*?$")


def parse_group(text: str) -> GroupSpec:
    """Named shortcuts R*, C*, Fq*, Fq(X)* (the trailing * is optional),
    or a raw JSON spec {"infinite": ..., "torsion": ...}."""
    name = text.strip()
    if name in ("R", "R*"):
        return GroupSpec.reals()
    if name in ("C", "C*"):
        return GroupSpec.complexes()
    m = _GROUP_NAME.match(name)
    try:
        if m:
            q = int(m.group(1))
            if m.group(2):
                return GroupSpec.rational_functions(q)
            return GroupSpec.finite_field(q)
        return GroupSpec.from_json(name)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"cannot parse group {text!r}: {exc}") from exc


# -- subcommands -----------------------------------------------------------


def _cmd_check(args) -> int:
    from .search import check_theorem

    verdict = check_theorem(_load(args, args.matrix, IncidenceMatrix.from_json), args.q)
    _emit(_report(args, q=args.q, verdict=verdict.to_json_obj()))
    if verdict.outcome in ("true", "vacuous"):
        return 0
    if verdict.outcome == "counterexample":
        return 1
    raise UsageError(f"search gave up: {verdict.outcome}")


def _cmd_verify(args) -> int:
    from .search import verify_configuration

    mat = _load(args, args.matrix, IncidenceMatrix.from_json)
    ok = verify_configuration(mat, _load(args, args.config, Configuration.from_json))
    _emit(_report(args, verified=ok))
    return 0 if ok else 1


def _parse_seeds(specs) -> list[tuple[int, int, int]]:
    seeds = []
    for spec in specs:
        try:
            r, c, v = (int(part) for part in spec.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --seed {spec!r}; expected row,col,value") from exc
        seeds.append((r, c, v))
    return seeds


def _cmd_propagate(args) -> int:
    mat = _load(args, args.matrix, IncidenceMatrix.from_json)
    sweeps = "fixpoint"
    if args.sweeps != "fix":
        try:
            sweeps = int(args.sweeps)
        except ValueError as exc:
            raise UsageError("--sweeps takes an integer or 'fix'") from exc
    try:
        result = propagate(mat, _parse_seeds(args.seed), max_sweeps=sweeps)
    except SeedConflict as exc:
        _emit(_report(args, conflict=str(exc)))
        return 1
    _emit(_report(args, matrix=result.to_json_obj()))
    return 0


def _cmd_excise(args) -> int:
    from .excision import can_excise, witness_modulus

    mc = _load(args, args.complex, MarkedComplex.from_json)
    K = mc.complex
    if args.face == "marked":
        face = mc.marked
    else:
        try:
            face = int(args.face) - 1
        except ValueError as exc:
            raise UsageError("--face takes a 1-based face number or 'marked'") from exc
    if not 0 <= face < len(K.faces):
        raise UsageError(f"face {args.face} out of range")
    G = parse_group(args.group)
    ok = can_excise(K, face, G)
    witness = None
    if not ok:
        witness = failing_cochain(K, face, witness_modulus(K, face, G)).to_json_obj()
    _emit(
        _report(
            args,
            face=face + 1,
            group=G.to_json_obj(),
            excisable=ok,
            failingCochain=witness,
        )
    )
    return 0 if ok else 1


def _cmd_generate(args) -> int:
    mat = generate_theorem(_load(args, args.complex, MarkedComplex.from_json))
    _emit(_report(args, matrix=mat.to_json_obj()))
    return 0


def _cmd_validate(args) -> int:
    from .surfaces import validate_elementary_proof

    mc = _load(args, args.complex, MarkedComplex.from_json)
    mat = _load(args, args.matrix, IncidenceMatrix.from_json)
    group = parse_group(args.group) if args.group else None
    report = validate_elementary_proof(mc, mat, group=group)
    _emit(_report(args, report=report.to_json_obj()))
    return 0 if report.ok else 1


def _cmd_subdivide(args) -> int:
    out = octahedral_subdivide(_load(args, args.complex, MarkedComplex.from_json))
    _emit(_report(args, complex=out.to_json_obj()))
    return 0


def _cmd_grope(args) -> int:
    from .gropes import nine_gon_grope_complex, random_grope, two_stage_grope_complex

    if args.builder == "nine-gon":
        grope = nine_gon_grope_complex()
    elif args.builder == "two-stage":
        grope = two_stage_grope_complex()
    else:  # random
        if args.seed is None:
            raise UsageError("grope random requires --seed")
        G = parse_group(args.group)
        try:
            ks = tuple(int(k) for k in args.ks.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --ks {args.ks!r}; expected integers") from exc
        if min(ks) < 2:
            raise UsageError(f"bad --ks {args.ks!r}; wrap counts must be at least 2")
        grope = random_grope(random.Random(args.seed), G, ks=ks)
    _emit(_report(args, grope=grope.to_json_obj()))
    return 0


def _cmd_prove_validate(args) -> int:
    from .certificates import Certificate, CoverageGap, validate_certificate

    cert = _load(args, args.certificate, Certificate.from_json)
    try:
        report = validate_certificate(cert)
    except CoverageGap as exc:
        _emit(_report(args, coverageGap=str(exc)))
        return 1
    _emit(_report(args, report=report.to_json_obj()))
    return 0 if report.ok else 1


_QUAT_SHORTCUTS = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}


def _parse_quaternion(text: str):
    from fractions import Fraction

    from .noncomm import Quaternion

    if text in _QUAT_SHORTCUTS:
        return Quaternion.of(*_QUAT_SHORTCUTS[text])
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(
            f"bad quaternion {text!r}; expected i, j, k, 1 or four rationals a,b,c,d"
        )
    for part in parts:
        # bounded on its text: Fraction("1e10000000") alone takes seconds
        exponent = part.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if len(part) > 1000 or exponent.isdecimal() and int(exponent) > 1000:
            raise UsageError(
                f"bad quaternion component {part[:20]!r}; "
                "the bound is 1000 characters and an exponent of at most 1000"
            )
    try:
        return Quaternion.of(*(Fraction(p) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad quaternion {text!r}: {exc}") from exc


def _cmd_quat(args) -> int:
    from .noncomm import pappus_counterexample

    u = _parse_quaternion(args.u)
    v = _parse_quaternion(args.v)
    config = pappus_counterexample(u, v)
    try:
        counterexample = config.to_json_obj()
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise UsageError(
            f"the counterexample for --u {args.u[:40]!r} and --v {args.v[:40]!r} "
            "has a coordinate with too many digits to write; use shorter components"
        ) from exc
    _emit(_report(args, u=u.to_json_obj(), v=v.to_json_obj(), counterexample=counterexample))
    return 1  # a counterexample was produced


def _cmd_selftest(args) -> int:
    from .catalog import (
        hexagon_closure_matrix,
        hexagon_counterexample,
        pappus_aux12_matrix,
        pappus_aux16_matrix,
        pappus_case1_golden,
        pappus_case2_golden,
        pappus_case3_golden,
        warmup_matrix,
    )
    from .certificates import SHIPPED_CERTIFICATES, validate_certificate
    from .complexes import desargues_tetrahedron
    from .excision import can_excise, oracle_can_excise
    from .fields import field
    from .plane import incident
    from .search import check_theorem, verify_configuration

    checks: dict[str, bool] = {}
    checks["golden-case-1"] = (
        propagate(pappus_aux12_matrix(), [(10, 4, -1)]) == pappus_case1_golden()
    )
    checks["golden-case-2"] = (
        propagate(pappus_aux16_matrix(), [(1, 1, -1), (10, 10, -1)])
        == pappus_case2_golden()
    )
    checks["golden-case-3"] = (
        propagate(pappus_aux16_matrix(), [(1, 1, -1), (10, 10, 1)])
        == pappus_case3_golden()
    )
    for name, build in SHIPPED_CERTIFICATES.items():
        checks[f"certificate-{name}"] = validate_certificate(build()).ok
    checks["warmup-true-2-3"] = all(
        check_theorem(warmup_matrix(), q).outcome == "true" for q in (2, 3)
    )
    config = hexagon_counterexample()
    checks["6-gon-counterexample"] = verify_configuration(
        hexagon_closure_matrix(), config
    ) and not incident(field(3), config.points[0], config.lines[0])
    K = desargues_tetrahedron().complex
    checks["excision-agrees-with-oracle"] = all(
        can_excise(K, f, GroupSpec(False, (n,))) == oracle_can_excise(K, f, n)
        for f in range(len(K.faces))
        for n in range(2, 6)
    )
    ok = all(checks.values())
    _emit(_report(args, checks=checks, ok=ok))
    return 0 if ok else 1


# -- dispatch --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilingcalc",
        description="Incidence theorems, surface tilings, and excision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a matrix theorem over a finite field")
    p.add_argument("matrix")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="check a configuration against a matrix")
    p.add_argument("matrix")
    p.add_argument("config")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("propagate", help="seed cells and fill forced entries")
    p.add_argument("matrix")
    p.add_argument("--seed", action="append", default=[], metavar="r,c,v")
    p.add_argument("--sweeps", default="fix", metavar="N|fix")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("excise", help="decide excisability of a face")
    p.add_argument("complex")
    p.add_argument("--face", required=True, metavar="F|marked")
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_excise)

    p = sub.add_parser("generate", help="matrix of a bijectively labeled complex")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="validate an elementary tiling proof")
    p.add_argument("complex")
    p.add_argument("--matrix", required=True)
    p.add_argument("--group")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("subdivide", help="octahedral subdivision of a complex")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("grope", help="build a grope complex")
    p.add_argument("builder", choices=("nine-gon", "two-stage", "random"))
    p.add_argument("--seed", type=int)
    p.add_argument("--group", default="R*")
    p.add_argument("--ks", default="3,5,7")
    p.set_defaults(func=_cmd_grope)

    p = sub.add_parser("prove-validate", help="replay a proof certificate")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_prove_validate)

    p = sub.add_parser("quat", help="quaternionic constructions")
    quat_sub = p.add_subparsers(dest="quat_command", required=True)
    pp = quat_sub.add_parser("pappus", help="skew counterexample to the hexagon theorem")
    pp.add_argument("--u", required=True)
    pp.add_argument("--v", required=True)
    pp.set_defaults(func=_cmd_quat)

    p = sub.add_parser("selftest", help="run the built-in acceptance fixtures")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(inputs={}))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is left to devnull so the
        # flush at exit cannot fail again, and report no verdict
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
