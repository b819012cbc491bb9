"""Simulation layer: event engine, the composed server, experiment runner.

``ServerSystem`` assembles the full evaluated machine — cores, private
L1/L2s, shared L3, snoopy bus, memory controllers, DRAM, hypervisor, VM
images, and query load — as a composition of components (``MemoryModel``,
``LoadGenerator``, ``MetricsRegistry``) plus one pluggable merge backend
resolved through the registry in :mod:`repro.sim.backends`:

* ``baseline``  — same-page merging disabled;
* ``ksm``       — RedHat's KSM software daemon, migrating across cores;
* ``pageforge`` — the PageForge hardware in a memory controller, with the
  OS driver running KSM's algorithm;
* ``uksm``      — whole-system scanning under a CPU budget (Section 7.2);
* ``esx``       — VMware-style hash-bucket merging (Section 7.2).

``FunctionalHost`` is the untimed counterpart: one backend's functional
merging stack over booted guest images, with the one convergence rule
and checkpoint format every untimed merge run shares.
"""

from repro.sim.backends import (
    MergeBackend,
    available_backends,
    get_backend,
    recoverable_backends,
    register_backend,
)
from repro.sim.engine import EventQueue
from repro.sim.functional import FunctionalHost
from repro.sim.load import LoadGenerator
from repro.sim.memmodel import MemoryModel
from repro.sim.metrics import KSMTimingStats, MetricsRegistry
from repro.sim.runner import (
    ExperimentResult,
    LatencySummary,
    run_hash_key_study,
    run_latency_experiment,
    run_memory_savings,
    summarize_system,
)
from repro.sim.system import MODES, ServerSystem, SimulationScale

__all__ = [
    "EventQueue",
    "ExperimentResult",
    "FunctionalHost",
    "KSMTimingStats",
    "LatencySummary",
    "LoadGenerator",
    "MODES",
    "MemoryModel",
    "MergeBackend",
    "MetricsRegistry",
    "ServerSystem",
    "SimulationScale",
    "available_backends",
    "get_backend",
    "recoverable_backends",
    "register_backend",
    "run_hash_key_study",
    "run_latency_experiment",
    "run_memory_savings",
    "summarize_system",
]
