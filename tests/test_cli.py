import hashlib
import json
import os
import subprocess
import sys

import pytest

from bweyl.cli import LONGEST_FIRST, main
from bweyl.suites import GLOBAL_SUITES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atlas_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "atlas", "--n", "3", "--q", "4", "--ell", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "isolated-block-atlas/1"
    assert payload["q"] == 4 and payload["ell"] == 5
    for row in payload["rows"]:
        assert row["ell_part_identity"] is True
        assert {"case", "params", "levi_type", "centralizer_type",
                "center_order_factors", "ell_part",
                "defect_valuation"} <= set(row)


def test_atlas_markdown_case_gate(capsys):
    # d0 = 2 even excludes case 2
    code, out, _ = run_cli(capsys, "atlas", "--n", "4", "--q", "3", "--ell", "5")
    assert code == 0
    cases = {line.split("|")[1].strip() for line in out.splitlines()[2:] if line}
    assert cases <= {"1", "3"} and "3" in cases


def test_atlas_rejects_small_ell(capsys):
    code, _, err = run_cli(capsys, "atlas", "--n", "2", "--q", "4", "--ell", "3")
    assert code == 2
    assert "ell" in err


def test_atlas_rejects_bad_params(capsys):
    assert run_cli(capsys, "atlas", "--n", "1", "--q", "4", "--ell", "5")[0] == 2
    assert run_cli(capsys, "atlas", "--n", "3", "--q", "10", "--ell", "5")[0] == 2


def test_group_summary(capsys):
    code, out, _ = run_cli(capsys, "group", "--d0", "1", "--tl", "2",
                           "--m", "0", "--d", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orders"]["V_prime"] == 32
    assert payload["orders"]["C_prime"] == 8
    assert payload["orders"]["P_prime"] == 4
    images = {(row["i"], row["j"]): row["image"]
              for row in payload["conjugation_table"]}
    assert images[(1, 1)] == "c_2'"
    assert images[(2, 1)] == "c_1'"


def test_group_rejects_even_d0(capsys):
    code, _, err = run_cli(capsys, "group", "--d0", "2", "--tl", "1",
                           "--m", "0", "--d", "2")
    assert code == 2


def test_group_builds_the_d0_7_supplement(capsys):
    # W(B_7) has 645120 elements; only the twist's centralizer is enumerated
    code, out, _ = run_cli(capsys, "group", "--d0", "7", "--tl", "1",
                           "--m", "0", "--d", "7")
    assert code == 0 and "|relative_weyl| = 14" in out


def _assert_point_suites_pass(capsys, d0, tl, m, d):
    suites = ["charext", "commutators", "extmap-hypotheses", "graph-action",
              "supplement"]
    code, out, _ = run_cli(capsys, "verify", *(f"--suite={s}" for s in suites),
                           "--d0", str(d0), "--tl", str(tl), "--m", str(m),
                           "--d", str(d), "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == suites
    assert all(r["passed"] and r["checks"] for r in reports)


@pytest.mark.parametrize("m,d", [(0, 7), (1, 14)])
def test_point_suites_pass_at_d0_7(capsys, m, d):
    _assert_point_suites_pass(capsys, 7, 1, m, d)


@pytest.mark.parametrize("d0,tl,m,d", [(7, 2, 0, 7), (11, 1, 0, 11)])
def test_point_suites_pass_past_l20(capsys, d0, tl, m, d):
    # l = 28 and 22: the Frobenius-convention rank needs no 2^l walk
    _assert_point_suites_pass(capsys, d0, tl, m, d)


def test_hl_structure_at_d0_7(capsys):
    # building the twist-adapted elements does not enumerate W(B_{d0})
    code, out, _ = run_cli(capsys, "verify", "--suite", "hl-structure",
                           "--d0", "7", "--tl", "1", "--format", "json")
    assert code == 0
    [report] = json.loads(out)
    assert report["passed"] and len(report["checks"]) == 4


def test_verify_small_subset(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "wreath", "--suite", "supplement",
        "--d0", "1", "--tl", "1", "--m", "0", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert {r["suite"] for r in reports} == {"wreath", "supplement"}
    assert all(r["passed"] for r in reports)


def test_verify_rejects_bad_ell(capsys):
    code, _, err = run_cli(capsys, "verify", "--ell", "4")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--q", ""],
    ["--suite", "supplement", "--tl", "0"],
    ["--suite", "supplement", "--d0", "1", "--tl", "1", "--m", "-1"],
    ["--suite", "cyclo-lemma", "--ell", ""],
    ["--suite", "supplement", "--d0", "2"],
    ["--suite", "hl-structure", "--d0", "2"],
    ["--suite", "supplement", "--d0", "", "--tl", "1"],
    ["--suite", "supplement", "--d0", "1", "--tl", "1", "--m", "0", "--d", ""],
    ["--suite", "supplement", "--d0", "1", "--tl", "1", "--m", "0", "--d", "4"],
    ["--suite", "atlas-ellparts", "--n", "1"],
    ["--ell", "3"],
    ["--suite", "atlas-ellparts", "--ell", "3,5"],
    ["--suite", "atlas-ellparts", "--ell", "5", "--q", "5,10"],
    ["--ell", "5,7", "--q", "35"],
])
def test_verify_rejects_unusable_parameters(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_has_no_budget_option(capsys):
    # the relative Weyl check enumerates no centralizer, so nothing is left
    # for a budget to bound: argparse refuses the option as a usage error
    code, out, _ = run_cli(capsys, "verify", "--budget", "10")
    assert code == 2 and out == ""


def test_verify_runs_the_atlas_when_one_q_is_prime_to_an_ell(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "atlas-ellparts",
                           "--ell", "5", "--q", "5,6", "--n", "3")
    report = json.loads(out)[0]
    assert code == 0 and report["passed"] and report["params"]["rows"] > 0


def test_verify_takes_ell_3_without_the_atlas(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cyclo-lemma", "--ell", "3")
    assert code == 0 and json.loads(out)[0]["passed"] is True


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown" in err


def test_mutation_sign_flip_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--mutate", "sign:3",
                           "--format", "json")
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["checks"][0]["passed"] is True  # detection succeeded
    # report labels carry the flipped entry
    assert "entry" in reports[0]["params"]


def test_mutation_cocycle_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--mutate", "cocycle",
                           "--format", "json")
    assert code == 1
    reports = json.loads(out)
    assert not reports[0]["passed"]
    failing = [c for c in reports[0]["checks"] if not c["passed"]]
    assert failing and all("counterexample" in c for c in failing)


def test_mutation_bad_argument(capsys):
    assert run_cli(capsys, "verify", "--mutate", "nonsense")[0] == 2
    assert run_cli(capsys, "verify", "--mutate", "sign:99999")[0] == 2
    assert run_cli(capsys, "verify", "--mutate", "sign:x")[0] == 2


def test_reports_deterministic(capsys):
    argv = ["verify", "--suite", "supplement", "--suite", "charext",
            "--d0", "1", "--tl", "1,2", "--m", "0", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports


def test_reports_identical_across_jobs(capsys):
    argv = ["verify", "--suite", "supplement", "--suite", "charext",
            "--d0", "1", "--tl", "1", "--m", "0,1", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_global_suites_identical_through_the_pool(capsys, monkeypatch):
    # tits-core and mutation run in two pool workers under --jobs 2
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "--suite", "tits-core", "--suite", "mutation"]
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "tits-core" in out1 and "mutation" in out1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--suite", "wreath", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs" in err


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the requested size, the
    chunk size and the tasks, and maps in this process, starting no workers."""

    sizes: list = []
    chunksizes: list = []
    tasks: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=None):
        self.chunksizes.append(chunksize)
        self.tasks.append(list(tasks))
        return [fn(t) for t in self.tasks[-1]]


def _verify_with_recording_pool(capsys, monkeypatch, cpus, *argv):
    import multiprocessing

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "chunksizes", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return run_cli(capsys, "verify", *argv)


@pytest.mark.parametrize("jobs,cpus,m,size", [
    ("8", 4, "0", 2),        # two point tasks
    ("8", 3, "0,1,2", 3),    # six point tasks, three CPUs
    ("2", 16, "0,1,2", 2),   # the requested count
    ("4", 1, "0,1", None),   # one CPU: serial, no pool
    ("4", None, "0,1", None),
])
def test_verify_pool_size_is_clamped(capsys, monkeypatch, jobs, cpus, m, size):
    # one charext task per (m, d) with d in {1, 2}
    code, _, _ = _verify_with_recording_pool(
        capsys, monkeypatch, cpus, "--suite", "charext", "--d0", "1",
        "--tl", "1", "--m", m, "--jobs", jobs)
    assert code == 0
    assert _RecordingPool.sizes == ([] if size is None else [size])
    # chunks of one: no worker is handed a run of tasks at once
    assert _RecordingPool.chunksizes == ([] if size is None else [1])


@pytest.mark.parametrize("suites,size", [
    (["wreath", "cyclo-lemma"], 2),  # two global tasks
    (["wreath"], None),              # one task: serial
])
def test_global_suites_run_in_the_pool(capsys, monkeypatch, suites, size):
    code, _, _ = _verify_with_recording_pool(
        capsys, monkeypatch, 2, *(f"--suite={s}" for s in suites),
        "--ell", "5", "--q", "2", "--jobs", "2")
    assert code == 0
    assert _RecordingPool.sizes == ([] if size is None else [size])
    assert _RecordingPool.chunksizes == ([] if size is None else [1])


def test_verify_hands_out_one_task_per_point(capsys, monkeypatch):
    # the global suites one task each, first and longest first; then one
    # task per point with every requested point suite, in the given order;
    # the global reports still come out in the given order
    argv = ["--suite", "charext", "--suite", "hl-structure", "--suite", "wreath",
            "--suite", "supplement", "--suite", "cyclo-lemma", "--d0", "1",
            "--tl", "1", "--m", "0,1", "--ell", "5", "--q", "2"]
    code, out, _ = _verify_with_recording_pool(capsys, monkeypatch, 2, *argv, "--jobs", "2")
    assert code == 0
    [tasks] = _RecordingPool.tasks
    assert [(point, [name for name, _ in suites]) for point, suites in tasks] == [
        (None, ["cyclo-lemma"]), (None, ["wreath"]), (None, ["hl-structure"]),
        *(((1, 1, m, d), ["charext", "supplement"]) for m in (0, 1) for d in (1, 2)),
    ]
    assert [r["suite"] for r in json.loads(out)[:3]] == ["hl-structure", "wreath",
                                                        "cyclo-lemma"]
    assert sorted(LONGEST_FIRST) == sorted(GLOBAL_SUITES)
    code, serial, _ = run_cli(capsys, "verify", *argv, "--jobs", "1")
    assert code == 0 and serial == out


@pytest.mark.parametrize("suites", [
    ["wreath", "supplement", "hl-structure", "charext", "cyclo-lemma"],
    ["charext", "cyclo-lemma", "supplement", "wreath", "hl-structure"],
])
def test_mixed_suites_identical_across_jobs(capsys, suites):
    argv = ["verify", *(f"--suite={s}" for s in suites), "--d0", "1",
            "--tl", "1", "--m", "0,1", "--ell", "5", "--q", "2,3",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)
    global_suites = [s for s in suites if s in GLOBAL_SUITES]
    assert [r["suite"] for r in reports[:len(global_suites)]] == global_suites
    points = [(r["suite"], sorted(r["params"].items()))
              for r in reports[len(global_suites):]]
    assert points == sorted(points)
    assert len(points) == 2 * 2 * 2  # two point suites at (m, d) in {0,1} x {1,2}


def test_reports_identical_under_optimize():
    # checks must not be asserts that python -O strips
    argv = ["-m", "bweyl.cli", "verify", "--suite", "supplement", "--suite",
            "charext", "--d0", "1", "--tl", "1", "--m", "0,1", "--jobs", "1"]
    env = dict(os.environ, PYTHONPATH=SRC)
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       text=True, env=env, timeout=300)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout


def test_verify_runs_on_the_standard_library_alone():
    # a meta-path finder that refuses every module outside the standard
    # library and bweyl, so importing any third-party package raises
    script = (
        "import contextlib, io, sys\n"
        "class StdlibOnly:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        top = name.partition('.')[0]\n"
        "        if top != 'bweyl' and top not in sys.stdlib_module_names:\n"
        "            raise ImportError(f'{name} is outside the standard library')\n"
        "sys.meta_path.insert(0, StdlibOnly())\n"
        "from bweyl.cli import main\n"
        "argv = ['verify', '--suite', 'commutators', '--suite', 'graph-action',\n"
        "        '--suite', 'mutation', '--d0', '1', '--tl', '1', '--m', '0']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = (main(argv), main(['verify', '--mutate', 'sign:3']))\n"
        "print(codes)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "(0, 1)\n"


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(**kwargs):
        raise RuntimeError("broken suite")

    monkeypatch.setitem(GLOBAL_SUITES, "wreath", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "wreath", "--jobs", "1")
    assert code == 3 and out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        "internal error: RuntimeError: broken suite"]


# sha256 of the stdout of `bweyl verify --jobs 1` and of `bweyl verify
# --mutate cocycle`.  Speed-ups keep every report byte-identical, so these
# do not move; a change that alters the reports on purpose updates the
# digests in the same change.
VERIFY_STDOUT_SHA256 = "37c17140e28c3dd9bbd6ce67c9f7c0b04fa7655a6c8af8b6e8616efa6f5348bb"
MUTATE_COCYCLE_STDOUT_SHA256 = (
    "a552d1be844cfe0006f83c3ec1e99ce2ec5de748dbfa00e1f163e249fb5751e1")


@pytest.mark.parametrize("argv,code,digest", [
    (["verify", "--jobs", "1"], 0, VERIFY_STDOUT_SHA256),
    (["verify", "--mutate", "cocycle"], 1, MUTATE_COCYCLE_STDOUT_SHA256),
], ids=["verify", "mutate-cocycle"])
def test_verify_stdout_is_golden(capsys, argv, code, digest):
    got_code, out, _ = run_cli(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
