"""Output checks and the entry point's contract."""

import json
import shutil
import statistics
import subprocess
import sys

import harness
import hostspeed
import workloads
from conftest import PERFBENCH
from workloads import SteadyWorkload

TINY_KSM = SteadyWorkload("tiny_ksm", mode="ksm", pages_per_vm=20,
                          warmup_s=0.005, duration_s=0.005)


def test_matching_reference_digest_passes():
    first = harness.Session(TINY_KSM, {})
    result, _sample = first.iterate(3)
    reference = harness.digest_of(TINY_KSM, result)
    session = harness.Session(TINY_KSM, {"3": reference})
    assert session.iterate(3) is not None
    assert (session.attempted, session.failed) == (1, 0)


def test_tampered_reference_digest_counts_as_a_failure():
    session = harness.Session(TINY_KSM, {"3": "0" * 64})
    assert session.iterate(3) is None
    assert (session.attempted, session.failed) == (1, 1)


def test_run_to_run_digest_change_counts_as_a_failure():
    session = harness.Session(TINY_KSM, {})
    session.digests[3] = "f" * 64  # as if an earlier iteration differed
    assert session.iterate(3) is None
    assert session.failed == 1


def test_recorded_references_cover_both_seeds_of_every_workload():
    refs = json.loads(harness.REFERENCES.read_text())
    seeds = {str(workloads.REFERENCE_SEED), str(workloads.HELD_OUT_SEED)}
    assert set(refs) == set(workloads.WORKLOADS)
    assert all(set(r) == seeds for r in refs.values())


def test_benchmark_json_names_the_workloads():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_end_to_end_run_reports_every_declared_metric():
    session = harness.Session(TINY_KSM, {})
    metrics, samples, _tracer = harness.run_end_to_end(session, 4, 0.1)
    assert set(metrics) == set(harness.declared_units("end_to_end"))
    # Every iteration carries the host-speed kernel time it is rescaled by.
    iterations = samples["iterations"]
    assert len(iterations["kernel_s"]) == len(iterations["run_s"]) >= 8
    assert metrics["run_s"] == statistics.median(
        hostspeed.rescale(iterations["run_s"], iterations["kernel_s"]))


def test_entry_point_fails_without_the_program_sources(tmp_path):
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ksm_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

