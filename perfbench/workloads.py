"""Workload definitions, their seeded orderings, and the canonical report
digest shared by run.py and the child interpreters.

Every workload is a fixed set of work.  The seed only permutes its order
(points, suites, and the CLI's list arguments), so the canonical report,
and hence its digest, is the same for every seed.  Each cold run within one
measurement takes the next permutation of the seed's sequence, so a run's
median spans several orders: peak memory, for one, depends on the order.
"""

from __future__ import annotations

import hashlib
import json
import random

# d0 = 1 at every (t_l, m) of the sweep, ranks 2..8, with the twist parity
# alternating.  Traced, the closures and relative-Weyl enumerations (sperm)
# take about three fifths of the run and build_sign_table (one table per
# rank) about a fifth; ExtendedWeylGroup.mul is a few per cent, with about
# nine in ten of its Weyl pairs already in its cocycle cache.
SUPPLEMENT_SIGN_POINTS = [
    (1, t_l, m, 1 + (t_l + m) % 2) for t_l in (1, 2, 3) for m in (0, 1, 2)
]

# ranks 12 and 13, both twist parities: ExtensionCharacter.value lookups
# drive mul, which takes most of the run on warm caches (about 97 in 100
# Weyl pairs hit); no sign table and no relative-Weyl enumeration (that
# stops at rank 8).  The rank-18 inertia groups, where value makes more mul
# calls per lookup, take about 14 s per point cold: too long for several
# cold runs in one measurement.
CHAREXT_HEAVY_POINTS = [(3, 2, m, d) for m in (0, 1) for d in (3, 6)]

# the user's command at a size where several cold runs fit one measurement;
# every point task is small, so the pool's balance does not hinge on the
# seeded task order
CLI_JOBS = 2
CLI_LISTS = {
    "--d0": [1, 3],
    "--tl": [1],
    "--m": [0, 1],
    "--ell": [5, 7, 11, 13],
    "--q": [2, 3, 4, 5, 7, 8, 9],
}
CLI_ATLAS_RANK = 11
CLI_SUITES = [
    "cyclo-lemma", "tits-core", "hl-structure", "atlas-ellparts", "wreath",
    "mutation", "supplement", "commutators", "graph-action",
    "extmap-hypotheses", "charext",
]

WORKLOADS = {
    "supplement-sign": {
        "kind": "suites",
        "suites": ["supplement", "commutators", "graph-action"],
        "points": SUPPLEMENT_SIGN_POINTS,
        "modules": ["suites", "supplement", "chevsign", "sperm", "tits",
                    "roots", "cyclo"],
    },
    "charext-heavy": {
        "kind": "suites",
        "suites": ["charext", "extmap-hypotheses"],
        "points": CHAREXT_HEAVY_POINTS,
        "modules": ["suites", "charext", "supplement", "sperm", "tits",
                    "roots", "cyclo"],
    },
    "verify-cli": {
        "kind": "cli",
        "modules": ["cli", "suites", "atlas", "charext", "chevsign",
                    "supplement", "sperm", "tits", "roots", "cyclo"],
    },
}

# suite report name -> bweyl.suites function
SUITE_FUNCTIONS = {
    "cyclo-lemma": "suite_cyclotomic_lemma",
    "tits-core": "suite_tits_core",
    "hl-structure": "suite_hl_structure",
    "supplement": "suite_supplement",
    "commutators": "suite_commutators",
    "graph-action": "suite_graph_action",
    "extmap-hypotheses": "suite_extmap_hypotheses",
    "charext": "suite_charext",
    "atlas-ellparts": "suite_atlas_ellparts",
    "wreath": "suite_wreath",
    "mutation": "suite_mutation",
}


def suite_plan(workload: str, seed: int, index: int = 0) -> list:
    """[(suite, point), ...] suite by suite, in the suite and point order of
    the seed's index-th permutation."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:{index}")
    suites = list(spec["suites"])
    rng.shuffle(suites)
    plan = []
    for suite in suites:
        points = list(spec["points"])
        rng.shuffle(points)
        plan.extend((suite, list(point)) for point in points)
    return plan


def cli_argv(seed: int, index: int = 0, jobs: int = CLI_JOBS) -> list:
    """`bweyl verify` arguments in the list and suite order of the seed's
    index-th permutation."""
    rng = random.Random(f"verify-cli:{seed}:{index}")
    suites = list(CLI_SUITES)
    rng.shuffle(suites)
    argv = ["verify", "--jobs", str(jobs)]
    for suite in suites:
        argv += ["--suite", suite]
    for flag, values in CLI_LISTS.items():
        values = list(values)
        rng.shuffle(values)
        argv += [flag, ",".join(map(str, values))]
    return argv + ["--n", str(CLI_ATLAS_RANK), "--format", "json"]


def canonical_digest(report_dicts: list) -> str:
    """sha256 of the reports in canonical order.  List-valued parameters
    and each report's checks are sorted first: the CLI echoes its list
    arguments in the order given, and runs some checks in that order, and
    the seed permutes that order without changing the work."""
    lines = []
    for report in report_dicts:
        report = dict(report)
        report["params"] = {
            key: sorted(value) if isinstance(value, list) else value
            for key, value in report["params"].items()
        }
        report["checks"] = sorted(report["checks"],
                                  key=lambda c: json.dumps(c, sort_keys=True))
        lines.append(json.dumps(report, sort_keys=True))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def count_checks(report_dicts: list) -> tuple[int, int]:
    """(checks attempted, checks failed) over a list of report dicts."""
    checks = [c for report in report_dicts for c in report["checks"]]
    return len(checks), sum(1 for c in checks if not c["passed"])
