"""Command-line driver: verification sweeps, the isolated-block atlas, and
supplement structure summaries.

`verify` runs one task list, serially or in a pool of `min(--jobs, tasks,
CPUs)` workers: each global suite is one task, the longest first, and each
parameter point is one task that runs every requested point suite there, so
a point's supplement is built in one worker only.  The reports are merged in
one canonical order, so stdout does not depend on the worker count.

Reports go to stdout (JSON or markdown), diagnostics to stderr.  Exit codes:
0 all checks passed, 1 a verified identity failed, 2 bad usage/parameters,
3 an internal error (any other exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import BudgetExceededError, VerificationError
from .cyclo import EllContext, is_prime

USAGE_ERROR, CHECK_FAILURE, INTERNAL_ERROR = 2, 1, 3

# the global suites in the order `verify` hands them out, longest first at
# the default parameters, timed cold with the modules imported before the fork
LONGEST_FIRST = ("tits-core", "hl-structure", "wreath", "atlas-ellparts", "mutation",
                 "cyclo-lemma")


def _parse_int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bweyl",
        description="exact verification of signed-permutation Weyl group "
        "constructions: twists, supplements, sign calculus, atlas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", action="append", default=None,
                        help="suite name (repeatable); default: all")
    verify.add_argument("--d0", type=_parse_int_list, default=(1, 3))
    verify.add_argument("--tl", type=_parse_int_list, default=(1, 2))
    verify.add_argument("--m", type=_parse_int_list, default=(0, 1))
    verify.add_argument("--d", type=_parse_int_list, default=None,
                        help="twist orders; default: both parities per d0")
    verify.add_argument("--ell", type=_parse_int_list, default=(5, 7))
    verify.add_argument("--q", type=_parse_int_list, default=(2, 3, 4))
    verify.add_argument("--n", type=int, default=6,
                        help="atlas rank cap for the sweep")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--format", choices=("json", "md"), default="json")
    verify.add_argument("--mutate", default=None,
                        help="self-test injection: 'sign:<index>' flips one "
                        "sign-table entry, 'cocycle' corrupts the fold branch")

    atlas = sub.add_parser("atlas", help="emit isolated-block atlas rows")
    atlas.add_argument("--n", type=int, required=True)
    atlas.add_argument("--q", type=int, required=True)
    atlas.add_argument("--ell", type=int, required=True)
    atlas.add_argument("--format", choices=("json", "md"), default="md")

    group = sub.add_parser("group", help="print supplement structure")
    group.add_argument("--d0", type=int, required=True)
    group.add_argument("--tl", type=int, required=True)
    group.add_argument("--m", type=int, required=True)
    group.add_argument("--d", type=int, required=True)
    group.add_argument("--format", choices=("json", "md"), default="md")
    return parser


def _verify_points(args) -> list:
    points = []
    for d0 in args.d0:
        for t_l in args.tl:
            for m in args.m:
                d_values = (d0, 2 * d0) if args.d is None else args.d
                for d in d_values:
                    dd0 = d if d % 2 else d // 2
                    if dd0 != d0:
                        continue
                    points.append((d0, t_l, m, d))
    return points


def _run_point_suite(task) -> list:
    """Run one task, a point (None for a global suite) and its suites as
    (name, keyword arguments) pairs, in order; returns their reports.  The
    one function the pool maps."""
    from .suites import run_suite

    point, suites = task
    reports = []
    for name, kwargs in suites:
        print(f"running {name}{'' if point is None else f' at {point}'} ...",
              file=sys.stderr)
        reports.append(run_suite(name, point, **kwargs))
    return reports


def cmd_verify(args) -> int:
    from .suites import GLOBAL_SUITES, POINT_SUITES

    suites = args.suite or (list(GLOBAL_SUITES) + list(POINT_SUITES))
    least_ell = 5 if "atlas-ellparts" in suites else 3  # the atlas needs ell >= 5
    rules = (("--d0", args.d0, lambda v: v >= 1 and v % 2, "odd integers >= 1"),
             ("--tl", args.tl, lambda v: v >= 1, "integers >= 1"),
             ("--m", args.m, lambda v: v >= 0, "integers >= 0"),
             ("--ell", args.ell, lambda v: v >= least_ell and is_prime(v),
              f"primes >= {least_ell}"),
             ("--q", args.q, lambda v: v >= 2, "integers >= 2"))
    for flag, values, ok, want in rules:
        if not values or not all(map(ok, values)):
            print(f"error: {flag} wants a non-empty list of {want}", file=sys.stderr)
            return USAGE_ERROR
    for flag, value, least in (("--n", args.n, 2), ("--jobs", args.jobs, 1)):
        if value < least:
            print(f"error: {flag} wants an integer >= {least}", file=sys.stderr)
            return USAGE_ERROR
    unknown = [s for s in suites if s not in GLOBAL_SUITES and s not in POINT_SUITES]
    if unknown:
        print(f"error: unknown suites {unknown}", file=sys.stderr)
        return USAGE_ERROR
    if any(s in POINT_SUITES for s in suites) and not _verify_points(args):
        print("error: no --d value is d0 or 2 d0 for a --d0 value", file=sys.stderr)
        return USAGE_ERROR
    if "atlas-ellparts" in suites and all(q % ell == 0 for q in args.q for ell in args.ell):
        # the atlas skips q divisible by ell, so it would check no row
        print("error: the atlas wants a --q value not divisible by some --ell value",
              file=sys.stderr)
        return USAGE_ERROR
    if args.mutate is not None:
        return _run_mutation(args)
    suite_kwargs = {
        "cyclo-lemma": {"ells": args.ell, "q_max": max(args.q), "k_max": 12},
        "hl-structure": {"d0_values": args.d0,
                         "l_cap": 2 * max(args.d0) * max(args.tl)},
        "atlas-ellparts": {"n_max": args.n, "ells": args.ell,
                           "q_values": args.q},
        "tits-core": {"random_triples": 2000},
    }
    # one task per global suite, the longest first (`LONGEST_FIRST`) so that
    # a free worker takes the next one (list scheduling); then one task per
    # point with all its point suites, which share the point's supplement and
    # caches in one worker; chunks of one keep the tasks apart
    given = [name for name in suites if name in GLOBAL_SUITES]
    dispatch = sorted(range(len(given)), key=lambda i: LONGEST_FIRST.index(given[i]))
    tasks = [(None, [(given[i], suite_kwargs.get(given[i], {}))]) for i in dispatch]
    n_global = len(tasks)
    point_suites = [(name, suite_kwargs.get(name, {}))
                    for name in suites if name in POINT_SUITES]
    if point_suites:
        tasks += [(point, point_suites) for point in _verify_points(args)]
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        from . import atlas, charext, chevsign  # before the fork, so compiled once
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_point_suite, tasks, chunksize=1)
    else:
        results = [_run_point_suite(task) for task in tasks]
    reports = [r for result in results for r in result]
    # canonical merge order regardless of worker scheduling: the global
    # reports in the given suite order, then the point reports by suite and
    # point
    reports[:n_global] = [r for _, r in sorted(zip(dispatch, reports[:n_global]))]
    reports[n_global:] = sorted(
        reports[n_global:], key=lambda r: (r.suite, sorted(r.params.items()))
    )
    for r in reports:
        print(f"{r.suite} {r.params}: "
              f"{'ok' if r.passed else 'FAILED'} in {r.seconds:.1f}s",
              file=sys.stderr)
    _emit(reports, args.format)
    return 0 if all(r.passed for r in reports) else CHECK_FAILURE


def _run_mutation(args) -> int:
    """Deliberately corrupt one ingredient and report the detected failure."""
    from .chevsign import build_sign_table, check_sign_table_consistency
    from .suites import CheckResult, SuiteReport, suite_tits_core

    if args.mutate == "cocycle":
        # the corrupted fold must fail verification: exit 1 with the
        # counterexample when detected, 0 only if it slipped through
        report = suite_tits_core(random_triples=400, cocycle_rule="ascent")
        _emit([report], args.format)
        return CHECK_FAILURE if not report.passed else 0
    if args.mutate.startswith("sign:"):
        try:
            index = int(args.mutate.split(":", 1)[1])
        except ValueError:
            print("error: sign index must be an integer", file=sys.stderr)
            return USAGE_ERROR
        table = build_sign_table(3, full=True)
        keys = sorted(table.eta)
        if not 0 <= index < len(keys):
            print(f"error: sign index out of range 0..{len(keys) - 1}",
                  file=sys.stderr)
            return USAGE_ERROR
        violations = check_sign_table_consistency(table.flipped(*keys[index]))
        report = SuiteReport(
            "mutation-injection", {"entry": keys[index]},
            [CheckResult("sign-flip-detected",
                         "the flipped entry violates a consistency law",
                         bool(violations),
                         {"violations": violations[:3]})],
        )
        # the injected corruption must be detected: report failure (exit 1)
        # with the counterexample when it is, success only if undetected
        _emit([report], args.format)
        return CHECK_FAILURE if violations else 0
    print("error: --mutate wants 'cocycle' or 'sign:<index>'", file=sys.stderr)
    return USAGE_ERROR


def _emit(reports, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([r.as_dict() for r in reports], sort_keys=True, indent=2))
    else:
        print("\n\n".join(r.to_markdown() for r in reports))


def cmd_atlas(args) -> int:
    from .atlas import enumerate_rows, rows_to_json, rows_to_markdown

    if args.n < 2:
        print("error: --n must be >= 2", file=sys.stderr)
        return USAGE_ERROR
    if not is_prime(args.ell) or args.ell < 5:
        print("error: --ell must be a prime >= 5", file=sys.stderr)
        return USAGE_ERROR
    if args.q < 2 or args.q % args.ell == 0:
        print("error: --q must be >= 2 and coprime to --ell", file=sys.stderr)
        return USAGE_ERROR
    ctx = EllContext(q=args.q, ell=args.ell)
    rows = enumerate_rows(args.n, ctx)
    if args.format == "json":
        print(rows_to_json(rows, ctx))
    else:
        print(rows_to_markdown(rows, ctx))
    return 0


def cmd_group(args) -> int:
    from .supplement import build_supplement

    if args.d0 < 1 or args.d0 % 2 == 0:
        print("error: --d0 wants an odd integer >= 1", file=sys.stderr)
        return USAGE_ERROR
    d0 = args.d if args.d % 2 else args.d // 2
    if d0 != args.d0 or args.tl < 1 or args.m < 0:
        print("error: need d in {d0, 2 d0}, tl >= 1 and m >= 0", file=sys.stderr)
        return USAGE_ERROR
    l = 2 * args.d0 * args.tl
    try:
        data = build_supplement(l, args.d, args.m)
    except (ValueError, BudgetExceededError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except VerificationError as err:
        print(f"identity failure: {err} {err.counterexample}", file=sys.stderr)
        return CHECK_FAILURE
    summary = {
        "params": {"d0": args.d0, "t_l": args.tl, "m": args.m, "d": args.d,
                   "l": l, "rank": data.ctx.n},
        "orders": {
            "V_prime": data.v_prime_order,
            "C_prime": data.c_order,
            "P_prime": data.p_order,
            "H_prime": len(data.head_coordinates),
            "relative_weyl": data.relative_weyl_order,
        },
        "generators": {
            "c_primes": [
                {"torus": list(c.torus), "weyl": list(c.weyl.images)}
                for c in data.c_primes
            ],
            "p_primes": [
                {"torus": list(p.torus), "weyl": list(p.weyl.images)}
                for p in data.p_primes
            ],
        },
        "conjugation_table": [
            {
                "i": i, "j": j,
                "image": "c_{}'".format(
                    data.c_primes.index(data.ctx.pconj(c, pp)) + 1
                ),
            }
            for i, c in enumerate(data.c_primes, start=1)
            for j, pp in enumerate(data.p_primes, start=1)
        ],
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"supplement at d0={args.d0} t_l={args.tl} m={args.m} d={args.d}")
        for k, v in summary["orders"].items():
            print(f"  |{k}| = {v}")
        for i, c in enumerate(data.c_primes, 1):
            print(f"  c_{i}' = (torus {list(c.torus)}, weyl {list(c.weyl.images)})")
        for i, p in enumerate(data.p_primes, 1):
            print(f"  p_{i}' = (torus {list(p.torus)}, weyl {list(p.weyl.images)})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    handlers = {"verify": cmd_verify, "atlas": cmd_atlas, "group": cmd_group}
    try:
        return handlers[args.command](args)
    except (VerificationError, BudgetExceededError):
        raise
    except Exception as err:  # a fault of the program, not a verdict
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
