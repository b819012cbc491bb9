"""Iterations, measurement loops and the result record of the benchmark.

Imported by ``run.py`` once the program's sources are on the path.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
from hostspeed import rescale, time_kernel
from tracing import (
    Tracer,
    layer_metrics,
    span_totals,
    stats_counts,
    wrappers_removed,
)
from workloads import HELD_OUT_SEED, REFERENCE_SEED, WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

#: Input seeds one end-to-end run takes in turn, each at least once.
#: How much work a simulation does depends on its seed: on ``ksm_steady``
#: about one seed in five gives KSM a much shorter schedule and takes
#: 30-50% less host time.  The run's figure is a median over all its
#: iterations, which lands among the common, heavier seeds unless half
#: of the eight are light.  The set is fixed because the program keeps a
#: process-wide memo of compared page pairs, so peak memory grows with
#: every new seed a run simulates.
SEEDS_PER_RUN = 8
#: Distance between a run's seeds, so that neighbouring ``--seed`` values
#: share none of them.
SEED_STRIDE = 1_000_003
#: Extra set-ups timed before the loop, so ``setup_s`` is a median of
#: many samples even on workloads whose iterations are long.
SETUP_REPEATS = 9


def run_seeds(seed):
    """The input seeds of an end-to-end run; the first is ``seed`` itself."""
    return [seed + i * SEED_STRIDE for i in range(SEEDS_PER_RUN)]


# Iterations -----------------------------------------------------------------------


class Session:
    """Attempts, failures and digests of one benchmark run."""

    def __init__(self, workload, references):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def _check_digest(self, seed, value):
        expected = self.references.get(str(seed))
        if expected is not None and value != expected:
            raise AssertionError(
                f"seed {seed}: digest {value} != reference {expected}")
        first = self.digests.setdefault(seed, value)
        if value != first:
            raise AssertionError(
                f"seed {seed}: digest {value} differs from this run's "
                f"first iteration {first}")

    def iterate(self, seed, tracer=None):
        """Set up, run and check once; ``(result, samples)`` or None."""
        self.attempted += 1
        w = self.workload
        gc.collect()
        try:
            t0 = time.perf_counter()
            built = _call(tracer, "bench.setup", w.setup, seed)
            t1 = time.perf_counter()
            c1 = time.process_time()
            result = _call(tracer, "bench.run", w.run, seed, built)
            c2 = time.process_time()
            t2 = time.perf_counter()
            w.check(result)
            self._check_digest(seed, digest_of(w, result))
        except Exception:  # a failed iteration is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        return result, {"setup_s": t1 - t0, "run_s": t2 - t1,
                        "cpu_s": c2 - c1}


def _call(tracer, span, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.call(span, fn, *args)


def digest_of(workload, result):
    return digest(workload.outputs(result))


def measure(session, seeds, seconds, samples, tracer=None, on_result=None):
    """Iterate over ``seeds`` in turn for ``seconds``.

    Every seed is run at least once; after that, no iteration starts
    that would end past ``seconds``.  Each iteration's samples carry the
    host-speed kernel's mean wall and CPU time around it (``kernel_s``,
    ``kernel_cpu_s``).
    """
    deadline = time.perf_counter() + seconds
    n = 0
    last = 0.0
    before = time_kernel()
    while n < len(seeds) or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        seed = seeds[n % len(seeds)]
        if tracer is not None:
            tracer.next_run()
        outcome = session.iterate(seed, tracer)
        after = time_kernel()
        if outcome is not None:
            result, sample = outcome
            sample["seed"] = seed
            sample["kernel_s"] = (before[0] + after[0]) / 2
            sample["kernel_cpu_s"] = (before[1] + after[1]) / 2
            for key, value in sample.items():
                samples.setdefault(key, []).append(value)
            if on_result is not None:
                on_result(result)
        before = after
        last = time.perf_counter() - started
        n += 1


def time_setups(workload, seeds, samples):
    """Time extra set-ups, each with the kernel's mean time around it."""
    before = time_kernel()
    for i in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(seeds[i % len(seeds)])
        samples.setdefault("setup_s", []).append(time.perf_counter() - t0)
        after = time_kernel()
        samples.setdefault("kernel_s", []).append((before[0] + after[0]) / 2)
        before = after


# Runs ---------------------------------------------------------------------------


def run_end_to_end(session, seed, seconds):
    session.iterate(REFERENCE_SEED)
    seeds = run_seeds(seed)
    setups = {}
    time_setups(session.workload, seeds, setups)
    samples = {}
    measure(session, seeds, seconds, samples)
    if not samples.get("run_s"):
        raise RuntimeError("every timed iteration failed")
    run_s = rescale(samples["run_s"], samples["kernel_s"])
    cpu_s = rescale(samples["cpu_s"], samples["kernel_cpu_s"])
    setup_s = rescale(setups["setup_s"] + samples["setup_s"],
                      setups["kernel_s"] + samples["kernel_s"])
    metrics = {
        "run_s": statistics.median(run_s),
        "cpu_s": statistics.median(cpu_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"setups": setups, "iterations": samples}, None


def run_traced(session, seed, seconds):
    session.iterate(REFERENCE_SEED)
    untraced = {}
    # One seed: per-layer counts repeat exactly for it, and traced and
    # untraced times compare like with like.
    measure(session, [seed], seconds / 2.0, untraced)

    tracer = Tracer()
    traced = {}
    counts = Counter()
    good_runs = []

    def on_result(result):
        counts.update(stats_counts(tracer))
        counts["cpu.kernel_share_avg"] += session.workload.kernel_share(
            result)
        good_runs.append(tracer.run_id)

    with tracer:
        measure(session, [seed], seconds / 2.0, traced, tracer, on_result)
    if not wrappers_removed():
        raise RuntimeError("tracer wrappers left installed")
    tracer.calibrate()
    if not good_runs or not untraced.get("run_s"):
        raise RuntimeError("every timed iteration failed")

    totals = span_totals(tracer, good_runs)
    metrics = layer_metrics(totals, counts, len(good_runs))
    base = statistics.median(rescale(untraced["run_s"], untraced["kernel_s"]))
    metrics["trace.overhead_frac"] = (statistics.median(
        rescale(traced["run_s"], traced["kernel_s"])) - base) / base
    metrics["fail_frac"] = session.failed / session.attempted
    samples = {"untraced": untraced, "traced": traced}
    return metrics, samples, tracer


# Result record --------------------------------------------------------------------


def _git_sha(root):
    """HEAD's commit, read from ``.git`` without running git; else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(src):
    """Digest of the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_record(args, workload, result, samples, tracer):
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out = RESULTS / (f"{stamp}-{workload.name}-seed{args.seed}"
                     f"-trace{args.trace}-{os.getpid()}")
    out.mkdir(parents=True)
    config = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "argv": sys.argv,
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    (out / "result.json").write_text(
        json.dumps({**result, "samples": samples}, indent=2) + "\n")
    if tracer is not None:
        np.savez_compressed(out / "spans.npz", names=np.array(tracer.names),
                            outer_cost_ns=tracer.outer_cost_ns,
                            inner_cost_ns=tracer.inner_cost_ns,
                            **tracer.columns())
    return out


# Entry points ----------------------------------------------------------------------


def record_references():
    """Record the digest of every workload at the reference seeds."""
    refs = {}
    for name, workload in WORKLOADS.items():
        session = Session(workload, {})
        refs[name] = {}
        for seed in (REFERENCE_SEED, HELD_OUT_SEED):
            outcome = session.iterate(seed)
            if outcome is None:
                return 1
            refs[name][str(seed)] = digest_of(workload, outcome[0])
            print(f"{name} seed {seed}: {refs[name][str(seed)]}")
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


def declared_units(kind):
    """Metric name -> unit of one of BENCHMARK.json's metric lists."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args):
    """Run one workload as ``args`` says; print and record the result."""
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text()).get(workload.name, {})
    session = Session(workload, references)
    run_fn = run_traced if args.trace else run_end_to_end
    metrics, samples, tracer = run_fn(session, args.seed, args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are emitted but "
            f"not declared in BENCHMARK.json, or declared but not emitted")

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    out = write_record(args, workload, result, samples, tracer)
    fail_frac = session.failed / session.attempted
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_frac':<34} {fail_frac:>16.6g} frac")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
