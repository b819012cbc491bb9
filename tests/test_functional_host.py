"""The untimed merging host: one convergence rule, one checkpoint path."""

import pytest

from repro.common.config import TAILBENCH_APPS
from repro.common.rng import DeterministicRNG
from repro.sim import FunctionalHost, run_memory_savings

SIZES = dict(app="moses", n_vms=3, pages_per_vm=80)


def _fig7_host(engine, seed, **kwargs):
    """A host on the exact RNG stream ``run_memory_savings`` uses."""
    app = TAILBENCH_APPS[SIZES["app"]]
    return FunctionalHost(
        DeterministicRNG(seed, f"fig7/{app.name}"), engine, app,
        SIZES["n_vms"], SIZES["pages_per_vm"], churn=True, **kwargs,
    )


@pytest.mark.parametrize("engine", ["ksm", "pageforge"])
def test_converge_is_the_savings_rule(engine):
    host = _fig7_host(engine, seed=5)
    footprint = host.converge()
    result = run_memory_savings(engine=engine, seed=5, churn=True, **SIZES)
    assert footprint == result.pages_after
    assert host.merger.stats.merges == result.merges


@pytest.mark.parametrize("engine", ["ksm", "pageforge"])
def test_restore_mid_converge_matches_uninterrupted(engine):
    # Half a pass per interval, so the run spans several intervals.
    small = dict(pages_to_scan=120)
    reference = _fig7_host(engine, seed=9, **small)
    reference.converge()

    snapshots = []
    first = _fig7_host(engine, seed=9, **small)
    first.converge(on_tick=lambda h: snapshots.append(h.capture()))
    assert len(snapshots) >= 2, "converge ended before a mid-run snapshot"

    resumed = _fig7_host(engine, seed=9, boot=False, **small)
    resumed.restore(snapshots[1])
    assert resumed.ticks == 2
    assert resumed.converge() == reference.footprint()
    assert resumed.ticks == reference.ticks
    assert resumed.merger.stats.merges == reference.merger.stats.merges
    assert resumed.capture() == reference.capture()


def test_second_converge_counts_its_own_passes():
    # At least one full pass per interval (3 x 80 pages).
    host = FunctionalHost(DeterministicRNG(3, "host"), "ksm",
                          pages_to_scan=240, **SIZES)
    settled = host.converge()
    assert settled < host.guest_pages()
    # Nothing is left to merge, so the footprint holds still from the
    # first interval on: the second call stops after three intervals,
    # the fewest that give two still comparisons and three passes.
    ticks = host.ticks
    assert host.converge() == settled
    assert host.ticks - ticks == 3
