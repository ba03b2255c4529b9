"""Command-line interface: analyze groups, verify the corpus, list the catalog.

Exit codes: 0 all checks passed, 1 a mathematical violation was found,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from dataclasses import fields
from functools import partial
from typing import TextIO

from .classify import VerificationReport, full_report
from .corpus import GroupSpec, build, builtin_catalog, file_group_id
from .errors import InvalidParams, NacentError, ParseError, excerpt_int
from .groups import order_guard, positive_int

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

REPORT_FIELDS = tuple(f.name for f in fields(VerificationReport))


def _run_one(spec: GroupSpec, max_order: int | None) -> dict:
    """The report of one spec, keyed by the file id of a file and by the
    built group's name, its canonical spec, for a construction."""
    G = build(spec, max_order=max_order)  # first: an unreadable file is a ParseError
    file_id = file_group_id(spec.path) if spec.path is not None else None
    return full_report(G, group_id=file_id).to_dict()


def _run_all(specs: list[GroupSpec], max_order: int | None, parallelism: int) -> list[dict]:
    run = partial(_run_one, max_order=max_order)
    if parallelism <= 1 or len(specs) <= 1:
        results = [run(s) for s in specs]
    else:
        # imported here: it loads multiprocessing, socket and subprocess
        from concurrent.futures import ProcessPoolExecutor

        # at most a worker per spec and per usable CPU: under fork, all start at once
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # not on every platform
            cpus = os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(parallelism, len(specs), cpus)) as pool:
            results = list(pool.map(run, specs, chunksize=4))
    return sorted(results, key=lambda r: r["group_id"])


def _input_error(problem) -> int:
    print(f"error: {problem}", file=sys.stderr)
    return EXIT_INPUT


def _corpus_specs(directory: str) -> list[GroupSpec]:
    """A file spec for each .json file in the directory, in name order."""
    try:
        names = sorted(p for p in os.listdir(directory) if p.endswith(".json"))
    except OSError as exc:
        raise ParseError(f"cannot list the corpus directory: {exc.strerror}", path=directory)
    paths = [os.path.join(directory, p) for p in names]
    return [GroupSpec(p, path=p) for p in paths]


def _emit(records: list[dict], fmt: str, out: TextIO) -> int:
    """Write the records into the open stream `out`, as JSON lines or CSV;
    the exit code for input errors when it cannot be written."""
    try:
        if fmt == "json":
            out.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
        else:
            writer = csv.DictWriter(out, fieldnames=REPORT_FIELDS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(
                {k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                 for k, v in r.items()} for r in records)
        out.flush()  # a failed write shows here, not when the file is closed
    except OSError as exc:
        return _input_error(f"cannot write {out.name}: {exc.strerror}")
    return EXIT_OK


def _summary_record(records: list[dict]) -> dict:
    """The closing record of `verify`: group, category and case counts."""
    return VerificationReport(
        group_id="summary", order=0, center_order=0, cent_count=0, nacent_count=0,
        category="summary", case=None,
        case_data={
            "groups": len(records),
            "categories": Counter(r["category"] for r in records),
            "cases": Counter(r["case"] for r in records if r["case"]),
            "groups_with_violations": sum(1 for r in records if r["violations"]),
        },
    ).to_dict()


def cmd_analyze(args, out: TextIO) -> int:
    specs = [GroupSpec(ref, path=ref) if os.path.exists(ref) else GroupSpec(ref)
             for ref in args.inputs]
    return _emit(_run_all(specs, args.max_order, args.parallelism), args.format, out)


def cmd_verify(args, out: TextIO) -> int:
    # the catalog is already bounded by --max-order; explicit corpus
    # files are only subject to the global guard
    specs = builtin_catalog(args.max_order)
    if args.corpus:
        specs += _corpus_specs(args.corpus)
    records = _run_all(specs, None, args.parallelism)
    summary = _summary_record(records)
    if _emit(records + [summary], args.format, out) != EXIT_OK:
        return EXIT_INPUT
    bad = summary["case_data"]["groups_with_violations"]
    if bad:
        print(f"verify: {bad} group(s) violated a checked claim", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_catalog(args, out: TextIO) -> int:
    for s in builtin_catalog(args.max_order):
        print(s.name, file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nacent",
        description="Centralizer-structure analysis over finite-group Cayley tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify specific groups and report")
    p.add_argument("inputs", nargs="+", metavar="SPEC_OR_FILE",
                   help="construction spec like 'heisenberg(7)' or a group file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--max-order", default=None)
    p.add_argument("--parallelism", default="1")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run all checks over the built-in catalog")
    p.add_argument("--max-order", default="200")
    p.add_argument("--parallelism", default="1")
    p.add_argument("--corpus", default=None, help="directory of extra group files")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list the built-in constructions")
    p.add_argument("--max-order", default="200")
    p.set_defaults(func=cmd_catalog)
    return parser


def _check_run_config(args) -> None:
    """Read --max-order and --parallelism by the integer rule of
    NACENT_MAX_ORDER and write the ints back into args; InvalidParams when
    one is no positive integer or --max-order exceeds the global guard."""
    limit = order_guard()
    for dest in ("max_order", "parallelism"):
        raw = getattr(args, dest, None)
        if raw is not None:
            setattr(args, dest, positive_int(raw, "--" + dest.replace("_", "-")))
    if (args.max_order or 0) > limit:
        raise InvalidParams(f"--max-order {excerpt_int(args.max_order)} exceeds the global "
                            f"order guard {limit} (raise NACENT_MAX_ORDER)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_run_config(args)
        # the destination is opened before any group is built, so an
        # unwritable --out fails at once; an input error found later leaves
        # the file empty
        if not getattr(args, "out", None):
            return args.func(args, sys.stdout)
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            return _input_error(f"cannot write {args.out}: {exc.strerror}")
        with out:
            return args.func(args, out)
    except NacentError as exc:
        return _input_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
