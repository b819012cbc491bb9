"""The benchmark's three workloads, one per merge path.

Each workload drives the simulator through its public entry points and
exposes the same four steps: ``setup`` builds (timed as ``setup_s``),
``run`` simulates (timed as ``run_s`` / ``cpu_s``), ``outputs`` returns
the fixed list of simulated results the digest covers, and ``check``
raises if an invariant of the result does not hold.  See RATIONALE.md
for why each workload exists and what it should move.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.common.config import TAILBENCH_APPS
from repro.sim import ServerSystem, SimulationScale, run_memory_savings
from repro.sim.runner import LatencySummary
from repro.workloads.memimage import BuiltImages, MemoryImageProfile

#: Seed the reference digests were recorded for, checked on every run.
REFERENCE_SEED = 2017
#: Seed held out from tuning; its digest is recorded too.
HELD_OUT_SEED = 7


def digest(outputs):
    """SHA-256 over canonical JSON of a workload's outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _footprint_range(app, pages_per_vm, n_vms):
    """(fully merged, merged with churn pages private) frame counts."""
    images = BuiltImages(
        vms=[None] * n_vms,
        profile=MemoryImageProfile.for_app(app, pages_per_vm),
        churn_pages=[],
    )
    return (images.expected_merged_footprint(churn_active=False),
            images.expected_merged_footprint(churn_active=True))


def _check_footprint(footprint, app, pages_per_vm, n_vms):
    low, high = _footprint_range(app, pages_per_vm, n_vms)
    if not low <= footprint <= high:
        raise AssertionError(
            f"footprint {footprint} outside the converged range "
            f"[{low}, {high}]"
        )


@dataclass(frozen=True)
class SteadyWorkload:
    """One timed machine: ``ServerSystem(...)`` then ``.run()``.

    The same two calls ``run_latency_experiment`` makes for each mode.
    The images converge within the warm-up, so most of the horizon is
    the converged regime where merging keeps re-scanning merged pages.
    """

    name: str
    mode: str
    app: str = "moses"
    n_vms: int = 2
    pages_per_vm: int = 100
    warmup_s: float = 0.01
    duration_s: float = 0.02

    def sizes(self):
        return {"app": self.app, "mode": self.mode, "n_vms": self.n_vms,
                "pages_per_vm": self.pages_per_vm,
                "warmup_s": self.warmup_s, "duration_s": self.duration_s}

    def setup(self, seed):
        scale = SimulationScale(
            pages_per_vm=self.pages_per_vm, n_vms=self.n_vms,
            duration_s=self.duration_s, warmup_s=self.warmup_s,
        )
        return ServerSystem(TAILBENCH_APPS[self.app], mode=self.mode,
                            scale=scale, seed=seed)

    def run(self, seed, system):
        system.run()
        return system

    def outputs(self, system):
        # Assembled as run_latency_experiment assembles it; the open-ended
        # MetricsRegistry snapshot is left out on purpose.
        collector = system.load.collector
        shares = system.kernel_shares()
        peak, breakdown, _start = system.bandwidth_peak()
        summary = LatencySummary(
            app_name=system.app.name,
            mode=system.mode,
            mean_sojourn_s=collector.geomean_mean_sojourn_s(),
            p95_sojourn_s=collector.geomean_p95_sojourn_s(),
            queries=len(collector),
            kernel_share_avg=float(np.mean(shares)),
            kernel_share_max=float(np.max(shares)),
            l3_miss_rate=system.l3_miss_rate(),
            bandwidth_peak_gbps=peak,
            bandwidth_breakdown=breakdown,
            footprint_pages=system.hypervisor.footprint_pages(),
        )
        system.backend.summarize(summary)
        return {"summary": asdict(summary),
                "footprint_pages": system.hypervisor.footprint_pages()}

    def check(self, system):
        system.hypervisor.verify_consistency()
        _check_footprint(system.hypervisor.footprint_pages(),
                         TAILBENCH_APPS[self.app], self.pages_per_vm,
                         self.n_vms)

    def kernel_share(self, system):
        return float(np.mean(system.kernel_shares()))


@dataclass(frozen=True)
class ConvergeWorkload:
    """Fig. 7 merge-to-convergence: one ``run_memory_savings`` call.

    Set-up is the same call with ``max_passes=0``, which builds the
    images and merge stack and scans nothing.
    """

    name: str
    app: str = "moses"
    n_vms: int = 4
    pages_per_vm: int = 120
    engine: str = "pageforge"

    def sizes(self):
        return {"app": self.app, "engine": self.engine, "n_vms": self.n_vms,
                "pages_per_vm": self.pages_per_vm, "churn": True}

    def _call(self, seed, **kwargs):
        return run_memory_savings(
            self.app, pages_per_vm=self.pages_per_vm, n_vms=self.n_vms,
            seed=seed, engine=self.engine, churn=True, **kwargs,
        )

    def setup(self, seed):
        return self._call(seed, max_passes=0)

    def run(self, seed, _built):
        return self._call(seed)

    def outputs(self, result):
        return asdict(result)

    def check(self, result):
        if result.pages_after > result.pages_before:
            raise AssertionError("merging grew the footprint")
        _check_footprint(result.pages_after, TAILBENCH_APPS[self.app],
                         self.pages_per_vm, self.n_vms)

    def kernel_share(self, _result):
        return 0.0  # functional path: no timed cores


WORKLOADS = {
    w.name: w for w in (
        SteadyWorkload("pf_steady", mode="pageforge"),
        # KSM costs ~50x less host time per simulated second, so it gets
        # the quick Fig. 9 horizon: enough intervals for the converged
        # regime to dominate, where 0.03 s would be its first pass.
        SteadyWorkload("ksm_steady", mode="ksm", warmup_s=0.08,
                       duration_s=0.08),
        ConvergeWorkload("pf_converge"),
    )
}
