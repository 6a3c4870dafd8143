"""Command line interface.

Subcommands:
  check    analyze one (E, A, B) triple file for selected concepts
  survey   Monte Carlo genericity survey over a dimension grid
  validate cross-check one triple along independent computation routes
"""

from __future__ import annotations

import argparse
import json
import sys

from .criteria import (
    AS_WRITTEN,
    WITH_E,
    Concept,
    DAE_CONCEPTS,
    DaeTriple,
    SystemInvariants,
    evaluate,
)
from .experiment import RunConfig, SampleSpec, write_survey, cross_validate

EXIT_INPUT_ERROR = 2


def _load_triple(path: str) -> DaeTriple:
    with open(path) as fh:
        obj = json.load(fh)
    return DaeTriple.from_strings(obj)


def _parse_concepts(arg: str):
    if arg == "all":
        return list(DAE_CONCEPTS)
    out = []
    for name in arg.split(","):
        name = name.strip()
        try:
            out.append(Concept(name))
        except ValueError:
            valid = ", ".join(c.value for c in Concept)
            raise ValueError(f"unknown concept {name!r}; valid: {valid}")
    return out


def cmd_check(args) -> int:
    try:
        triple = _load_triple(args.input)
        concepts = _parse_concepts(args.concepts)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if Concept.ODE_CONTROLLABLE in concepts and triple.l != triple.n:
        print(f"note: {Concept.ODE_CONTROLLABLE.value} skipped: needs l = n "
              f"(l={triple.l}, n={triple.n})", file=sys.stderr)
        concepts = [c for c in concepts if c is not Concept.ODE_CONTROLLABLE]
    inv = SystemInvariants(triple)
    reports = [evaluate(c, inv, args.strong_variant) for c in concepts]

    if args.format == "json":
        payload = [
            {
                "concept": r.concept.value,
                "verdict": r.verdict,
                "ranks": r.ranks,
                "drop_polynomial": (
                    r.drop_polynomial.to_strings() if r.drop_polynomial else None
                ),
            }
            for r in reports
        ]
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            ranks = ", ".join(f"{k}={v}" for k, v in r.ranks.items())
            print(f"{r.concept.value}: {'yes' if r.verdict else 'no'}  [{ranks}]")
    return 0


def cmd_survey(args) -> int:
    try:
        concepts = _parse_concepts(args.concepts)
        spec = SampleSpec(seed=args.seed, trials=args.trials, bound=args.bound)
        config = RunConfig(
            lmax=args.lmax,
            nmax=args.nmax,
            mmax=args.mmax,
            spec=spec,
            concepts=concepts,
            strong_variant=args.strong_variant,
            output_format=args.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        rows = write_survey(config, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_validate(args) -> int:
    try:
        triple = _load_triple(args.input)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rep = cross_validate(triple)
    print(f"elimination rank of [E,A,B]: {rep.elimination_rank}")
    if rep.minor_rank is not None:
        print(f"brute-force minor rank:      {rep.minor_rank}")
    if rep.kernel_checked:
        print(f"staircase kernel agrees with echelon kernel: {rep.kernel_agrees}")
    else:
        print("staircase kernel skipped (E not in dom T' or l >= n)")
    print(f"strongly controllable ({AS_WRITTEN}): {rep.strong_as_written}")
    print(f"strongly controllable ({WITH_E}):     {rep.strong_with_e}")
    if rep.discrepancies:
        for d in rep.discrepancies:
            print(f"DISCREPANCY: {d}")
        return 1
    print("all cross-checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="daectrl",
        description="Exact controllability analysis of DAE systems and "
        "Monte Carlo genericity surveys.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="analyze one triple file")
    chk.add_argument("--input", required=True, help="JSON file with E, A, B blocks")
    chk.add_argument("--concepts", default="all")
    chk.add_argument(
        "--strong-variant", choices=[AS_WRITTEN, WITH_E], default=AS_WRITTEN
    )
    chk.add_argument("--format", choices=["json", "text"], default="text")
    chk.set_defaults(fn=cmd_check)

    srv = sub.add_parser("survey", help="dimension-grid Monte Carlo survey")
    srv.add_argument("--lmax", type=int, required=True)
    srv.add_argument("--nmax", type=int, required=True)
    srv.add_argument("--mmax", type=int, required=True)
    srv.add_argument("--concepts", default="all")
    srv.add_argument("--trials", type=int, required=True)
    srv.add_argument("--seed", type=int, required=True)
    srv.add_argument("--bound", type=int, default=100)
    srv.add_argument("--out", required=True)
    srv.add_argument("--format", choices=["csv", "json"], default="csv")
    srv.add_argument(
        "--strong-variant", choices=[AS_WRITTEN, WITH_E], default=AS_WRITTEN
    )
    srv.set_defaults(fn=cmd_survey)

    val = sub.add_parser("validate", help="cross-validate one triple")
    val.add_argument("--input", required=True)
    val.set_defaults(fn=cmd_validate)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
