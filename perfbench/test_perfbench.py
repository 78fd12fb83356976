"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_main(monkeypatch, *argv):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_mutated_cocycle_counts_as_failed(monkeypatch):
    # negative control: the CLI's corrupted cocycle branch exits 1
    monkeypatch.setattr(run, "cli_argv", lambda seed, index, jobs=2: [
        "verify", "--mutate", "cocycle", "--format", "json"])
    code, lines, result = run_main(monkeypatch, "--workload", "verify-cli",
                                   "--seed", "0", "--seconds", "1")
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert "checks_failed_frac 1.000000" in " ".join(lines)


def test_crash_counts_as_failed(monkeypatch):
    # l = 4 is no multiple of 2 d0 = 6: a ValueError outside any check guard
    monkeypatch.setattr(run, "suite_plan",
                        lambda workload, seed, index: [["supplement", [2, 1, 0, 3]]])
    _, _, result = run_main(monkeypatch, "--workload", "charext-heavy",
                            "--seed", "0", "--seconds", "1")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_missing_and_failed_checks_count_as_failed(monkeypatch):
    # d = 2 means d0 = 1, so the orders check fails at d0 = 2 and the report
    # has fewer checks than the workload expects
    monkeypatch.setattr(run, "suite_plan",
                        lambda workload, seed, index: [["supplement", [2, 1, 0, 2]]])
    _, lines, result = run_main(monkeypatch, "--workload", "charext-heavy",
                                "--seed", "0", "--seconds", "1")
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "report_mismatch 1" in lines


def test_timeout_counts_as_failed(monkeypatch):
    # one charext point of rank 18 computes for about 14 s on a 2-vCPU VM,
    # far beyond the limit, so the first cold run is cut and none can pass
    monkeypatch.setattr(run, "suite_plan",
                        lambda workload, seed, index: [["charext", [3, 3, 0, 3]]])
    monkeypatch.setattr(run, "HARD_LIMIT_S", 4.0)
    _, lines, result = run_main(monkeypatch, "--workload", "supplement-sign",
                                "--seed", "0", "--seconds", "1")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("timed out" in line for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "charext-heavy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_seed_permutes_order_but_not_work():
    for name, spec in workloads.WORKLOADS.items():
        if spec["kind"] != "suites":
            continue
        plans = [workloads.suite_plan(name, seed) for seed in range(6)]
        assert len({json.dumps(plan) for plan in plans}) > 1
        assert len({json.dumps(sorted(plan)) for plan in plans}) == 1
        assert workloads.suite_plan(name, 3) == workloads.suite_plan(name, 3)
    argvs = [workloads.cli_argv(seed) for seed in range(6)]
    assert len({tuple(argv) for argv in argvs}) > 1
    assert len({tuple(sorted(",".join(sorted(a.split(","))) for a in argv))
                for argv in argvs}) == 1


def test_canonical_digest_ignores_list_and_check_order():
    a = {"suite": "s", "params": {"ells": [5, 7]}, "passed": True,
         "checks": [{"check": "x", "passed": True}, {"check": "y", "passed": True}]}
    b = {"suite": "s", "params": {"ells": [7, 5]}, "passed": True,
         "checks": [{"check": "y", "passed": True}, {"check": "x", "passed": True}]}
    c = dict(a, checks=[{"check": "x", "passed": False}, {"check": "y", "passed": True}])
    assert workloads.canonical_digest([a]) == workloads.canonical_digest([b])
    assert workloads.canonical_digest([a]) != workloads.canonical_digest([c])


def test_tracer_wraps_every_binding_site():
    # in a separate interpreter: installing the wrappers patches bweyl
    script = """
import json, sys
sys.path.insert(0, sys.argv[1])
import bweyl, bweyl.cli
from bweyl import cyclo, suites, supplement, sperm
from tracer import Tracer
t = Tracer()
t.install(bweyl)
assert t.missing == [], t.missing
assert suites.ell_valuation is cyclo.ell_valuation
assert hasattr(suites.ell_valuation, "__wrapped__")
assert supplement.perm_closure is sperm.closure
assert all(hasattr(f, "__wrapped__") for f in suites.POINT_SUITES.values())
assert all(hasattr(f, "__wrapped__") for f in suites.GLOBAL_SUITES.values())
suites.suite_cyclotomic_lemma(ells=(5,), q_max=4, k_max=3)
calls = {tuple(p): n for p, n, _, _ in t.snapshot()["stats"]}
print(json.dumps({" > ".join(p): n for p, n in calls.items()}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, HERE], cwd=ROOT, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["suites.cyclo-lemma"] == 1
    # bound in suites at import time, so only counted if that site is wrapped
    assert calls["suites.cyclo-lemma > cyclo.ell_valuation"] > 0
    assert calls["suites.cyclo-lemma > cyclo.ell_valuation_phi"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_expects_traced_work(name):
    assert set(tracer.EXPECTED_WORK[name]) <= (
        {target for target, _, _ in tracer.TARGETS}
        | {f"suites.{suite}" for suite in workloads.SUITE_FUNCTIONS})
