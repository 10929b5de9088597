"""Command-line frontend.

Every run is a pure function of the argv and the input files; reports are
byte-identical across repeated invocations.  Exit codes:
0 success / affirmative, 1 definite negative (inadmissible, verification
failure, eliminated, nothing found), 2 usage or input error, 3 capacity
cap exceeded.

Output, printed by ``_emit`` except the one design of ``derive`` and
``construct``: text starts with the header ``# caps: max_subsets=N``.  Under
``--json``, ``analyze-bt`` and ``km-search`` print one object per line and
no caps; the other subcommands print one sorted object with a ``caps`` key.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import admissibility, blocktrans, kramer_mesner
from .catalog import catalog_entry_by_name
from .designs import (
    DesignParameters,
    _json_lines,
    construct_boolean,
    derived,
    design_from_json,
    design_to_json,
    lambda_s,
    verify,
)
from .errors import CapacityError, DataIntegrityError
from .perms import DEFAULT_SUBSET_CAP, group_from_json_dict, homogeneity

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# Reports print group orders in full; the largest in the catalog, |A_4096| =
# 4096!/2, has this many digits, beyond Python's default limit of 4300.
MAX_INT_DIGITS = 13020


def _emit(args, payload, lines):
    """Print the ``# caps:`` header and ``lines``; under ``--json``, ``payload``
    with its caps as one sorted line, or ``lines`` alone where ``payload`` is
    None.  Pass ``lines`` as a generator, so no text is built under ``--json``.
    """
    max_subsets = getattr(args, "max_subsets", DEFAULT_SUBSET_CAP)
    if not args.json:
        print("# caps: max_subsets=%s" % max_subsets)
    elif payload is not None:
        payload["caps"] = {"max_subsets": max_subsets}
        lines = [json.dumps(payload, sort_keys=True)]
    for line in lines:
        print(line)


def _read_design(path):
    if path == "-":
        return design_from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return design_from_json(handle.read())


def _require_positive(*options):
    """Refuse a value below 1 with the name the usage line gives it, e.g. ``--lambda``."""
    for option, value in options:
        if value < 1:
            raise ValueError("%s must be a positive integer, got %d" % (option, value))


def _load_group(source):
    """A group from ``catalog:NAME`` or a JSON interchange file."""
    if source.startswith("catalog:"):
        entry = catalog_entry_by_name(source.removeprefix("catalog:"))
        return entry.group(), entry.name
    try:
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        try:
            name = catalog_entry_by_name(source).name
        except ValueError:
            raise exc from None
        raise ValueError("%s (catalog groups are given as catalog:%s)" % (exc, name)) from None
    return group_from_json_dict(data), source


def cmd_admissible(args):
    _require_positive(("t", args.t), ("v", args.v), ("k", args.k), ("lambda", args.lam))
    params = DesignParameters(args.t, args.v, args.k, args.lam)
    report = admissibility.check(params)

    def lines():
        yield "parameters: %d-(%d,%d,%d)" % (params.t, params.v, params.k, params.lam)
        for out in report.outcomes:
            line = "  %-24s %s" % (out.condition.value, out.status.value)
            if out.witness:
                line += "  " + json.dumps(admissibility.json_witness(out.witness), sort_keys=True)
            yield line
        yield "admissible: %s" % ("yes" if report.admissible else "no")

    _emit(args, report.to_json_dict(), lines())
    return EXIT_OK if report.admissible else EXIT_NEGATIVE


def cmd_scan(args):
    if args.v_max < args.t + 2:
        raise ValueError("--v-max must be at least t+2 = %d, got %d" % (args.t + 2, args.v_max))
    k_range = (
        args.t + 1 if args.k_min is None else args.k_min,
        args.v_max - 1 if args.k_max is None else args.k_max,
    )
    found = admissibility.scan(args.t, args.lam, args.v_max, k_range=k_range)
    payload = {
        "t": args.t,
        "lambda": args.lam,
        "v_max": args.v_max,
        "admissible": [
            {"t": p.t, "v": p.v, "k": p.k, "lambda": p.lam} for p in found
        ],
    }

    def lines():
        for p in found:
            yield "%d-(%d,%d,%d)  b=%s r=%s" % (p.t, p.v, p.k, p.lam, lambda_s(p, 0), lambda_s(p, 1))
        yield "# %d admissible parameter sets" % len(found)

    _emit(args, payload, lines())
    return EXIT_OK


def cmd_verify(args):
    design = _read_design(args.design)
    report = verify(design, cap=args.max_subsets)
    ok = report.covered_lambda == design.params.lam
    payload = {
        "covered_lambda": report.covered_lambda,
        "failing_witness": (
            {"subset": list(report.failing_witness[0]), "count": report.failing_witness[1]}
            if report.failing_witness
            else None
        ),
        "is_design": ok,
    }

    def lines():
        p = design.params
        yield "declared: %d-(%d,%d,%d) with %d blocks" % (p.t, p.v, p.k, p.lam, design.b)
        yield "covered_lambda: %s" % (report.covered_lambda,)
        if report.failing_witness:
            yield "failing witness: %s covered %d times" % report.failing_witness
        yield "verified: %s" % ("yes" if ok else "no")

    _emit(args, payload, lines())
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_derive(args):
    design = _read_design(args.design)
    result = derived(design, args.x)
    print(design_to_json(result))
    return EXIT_OK


def cmd_construct(args):
    design = construct_boolean(args.n, cap=args.max_subsets)
    print(design_to_json(design))
    return EXIT_OK


def cmd_group(args):
    if args.action == "homogeneity" and args.t_max < 1:
        raise ValueError("--t-max must be at least 1, got %d" % args.t_max)
    if args.action == "orbits" and args.m < 0:
        raise ValueError("--m must be non-negative, got %d" % args.m)
    group, name = _load_group(args.source)
    if args.action == "info":
        payload = {
            "name": name,
            "degree": group.degree,
            "order": str(group.order),
            "base": list(group.base),
            "generators": [g.cycle_string() for g in group.generators],
            "point_orbit_lengths": sorted(len(o) for o in group.point_orbits()),
        }

        def lines():
            for key in ("name", "degree", "order", "base", "point_orbit_lengths"):
                yield "%s: %s" % (key, payload[key])
            for g in payload["generators"]:
                yield "  gen %s" % g
    elif args.action == "orbits":
        orbits = kramer_mesner.subset_orbits(group, args.m, cap=args.max_subsets)
        payload = {
            "name": name,
            "m": args.m,
            "orbits": [{"representative": list(rep), "size": size} for rep, size in orbits],
        }

        def lines():
            for rep, size in orbits:
                yield "rep %s size %d" % (list(rep), size)
            yield "# %d orbits on %d-subsets" % (len(orbits), args.m)
    else:
        report = homogeneity(group, args.t_max)
        payload = {
            "name": name,
            "orbit_count_points": report.orbit_count_points,
            "orbit_lengths": list(report.orbit_lengths),
            "transitivity_degree": report.transitivity_degree,
            "homogeneity_degree": report.homogeneity_degree,
            "tested_t_max": report.tested_t_max,
        }

        def lines():
            for key, value in payload.items():
                yield "%s: %s" % (key, value)

    _emit(args, payload, lines())
    return EXIT_OK


def cmd_analyze_bt(args):
    if args.t < 2:
        raise ValueError("--t must be at least 2 for the elimination screen, got %d" % args.t)
    _require_positive(("--lambda", args.lam))
    if args.group is not None:
        entry = catalog_entry_by_name(args.group.removeprefix("catalog:"))
        verdicts = [blocktrans.eliminate(entry, args.t, args.lam)]
    else:
        v_max = 64 if args.v_max is None else args.v_max
        verdicts = blocktrans.sweep(args.t, args.lam, v_max)

    def lines():
        for verdict in verdicts:
            if verdict.survives:
                summary = "SURVIVES arithmetic screen at k in %s" % (list(verdict.surviving_k),)
            else:
                reasons = []
                for out in verdict.k_outcomes:
                    reasons.append("k=%d:%s" % (out.k, out.reasons[0].test))
                for step in verdict.group_reasons:
                    reasons.append(step.test)
                summary = "eliminated (%s)" % "; ".join(reasons)
            yield (
                "v=%-4d %-14s |G|=%-18s %s"
                % (verdict.degree, verdict.entry_name, verdict.group_order, summary)
            )
        survivors = [verdict for verdict in verdicts if verdict.survives]
        yield "# %d verdicts, %d survive the arithmetic screen" % (len(verdicts), len(survivors))

    json_lines = (json.dumps(verdict.to_json_dict(), sort_keys=True) for verdict in verdicts)
    _emit(args, None, json_lines if args.json else lines())
    if args.group is not None:
        return EXIT_NEGATIVE if verdicts[0].eliminated else EXIT_OK
    return EXIT_OK


def cmd_km_search(args):
    if args.limit is not None and args.limit < 1:
        raise ValueError("--limit must be at least 1, got %d" % args.limit)
    _require_positive(("--t", args.t), ("--k", args.k), ("--lambda", args.lam))
    group, name = _load_group(args.group)
    DesignParameters(args.t, group.degree, args.k, args.lam)  # before building or writing
    matrix = kramer_mesner.build_orbit_matrix(group, args.t, args.k, cap=args.max_subsets)
    if args.dump_matrix:
        with open(args.dump_matrix, "w", encoding="utf-8") as handle:
            json.dump(dict(matrix.to_json_dict(), group=name), handle, sort_keys=True)
            handle.write("\n")
    designs = kramer_mesner.search_design(
        group, args.t, args.k, args.lam, limit=args.limit, cap=args.max_subsets, matrix=matrix
    )
    lines = _json_lines(designs)
    if not args.json:
        head = "# group %s, searching %d-(%d,%d,%d)" % (name, args.t, group.degree, args.k, args.lam)
        lines = [head, *lines, "# %d design(s) found" % len(designs)]
    _emit(args, None, lines)
    return EXIT_OK if designs else EXIT_NEGATIVE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steinerkit",
        description="Exact-arithmetic toolkit for Steiner t-designs and their automorphism groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, json=True, max_subsets="cap on exact enumerations"):
        if json:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        if max_subsets:
            p.add_argument("--max-subsets", type=int, default=DEFAULT_SUBSET_CAP,
                           help=max_subsets + " (default %(default)s)")

    p = sub.add_parser("admissible", help="evaluate the necessary conditions on (t, v, k, lambda)")
    p.add_argument("t", type=int)
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("lam", type=int, metavar="lambda")
    common(p, max_subsets=None)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("scan", help="list admissible nontrivial parameter sets up to v-max")
    p.add_argument("t", type=int)
    p.add_argument("lam", type=int, metavar="lambda")
    p.add_argument("--v-max", type=int, required=True)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    common(p, max_subsets=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="exhaustively verify a design file ('-' for stdin)")
    p.add_argument("design")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="derived design at a point, written to stdout")
    p.add_argument("design")
    p.add_argument("x", type=int)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("construct", help="build a named design family member")
    p.add_argument("kind", choices=["boolean"])
    p.add_argument("n", type=int)
    common(p, json=False)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("group", help="inspect a permutation group (file or catalog:NAME)")
    p.add_argument("action", choices=["info", "orbits", "homogeneity"])
    p.add_argument("source")
    p.add_argument("--m", type=int, default=2, help="subset size for 'orbits'")
    p.add_argument("--t-max", type=int, default=3, help="degree bound for 'homogeneity'")
    common(p, max_subsets="cap for 'orbits': on C(v,m), or, where the orbits are read as "
           "orbit-matrix columns at the group's homogeneity degree t0, on C(v,t0) and "
           "C(v-t0,m-t0)")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("analyze-bt", help="block-transitivity arithmetic screen")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    scope = p.add_mutually_exclusive_group()
    # no default here: argparse lets an explicit value equal to the default
    # (a cached small int) pass alongside --group
    scope.add_argument("--v-max", type=int, help="sweep every degree up to this (default 64)")
    scope.add_argument("--group", default=None, help="screen a single catalog entry instead")
    common(p, max_subsets=None)
    p.set_defaults(func=cmd_analyze_bt)

    p = sub.add_parser("km-search", help="prescribed-group design search")
    p.add_argument("--group", required=True, help="group file or catalog:NAME")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--dump-matrix", default=None, metavar="PATH",
                   help="also write the orbit matrix as JSON")
    common(p)
    p.set_defaults(func=cmd_km_search)

    return parser


@functools.cache
def _parser():
    """The parser every ``main`` call reuses, built at the first call, not at import."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if 0 < sys.get_int_max_str_digits() < MAX_INT_DIGITS:
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
    try:
        if getattr(args, "max_subsets", 0) < 0:
            raise ValueError("--max-subsets must be non-negative, got %d" % args.max_subsets)
        return args.func(args)
    except CapacityError as exc:
        print("capacity error: %s" % exc, file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, DataIntegrityError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
