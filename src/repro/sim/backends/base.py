"""The MergeBackend protocol: what a merging configuration must provide.

A backend has two faces:

* **Timed** (instance methods): wired into a live
  :class:`~repro.sim.system.ServerSystem`.  ``build()`` constructs the
  merging machinery against the system's hypervisor/controllers,
  ``start()`` schedules the first wake on the event queue, and the
  backend thereafter drives itself via
  ``ServerSystem.schedule_kernel_chunk``.  ``summarize()`` folds
  backend-specific columns into the experiment's ``LatencySummary``,
  ``register_metrics()`` publishes counters into the system's
  :class:`~repro.sim.metrics.MetricsRegistry`, and ``attach_auditor()``
  is the audit boundary the invariant checker wires through.

* **Functional** (classmethods): the untimed merging stack that
  :class:`~repro.sim.FunctionalHost` builds and drives, with no event
  queue.  ``build_functional()`` returns a
  :class:`MergerBundle`; ``capture_functional()`` /
  ``restore_functional()`` are the stable per-component snapshot
  boundary ``recovery.serialize`` used to reach into ``ServerSystem``
  internals for.

The base class implements the no-merging behaviour, so ``baseline`` is
a nearly empty subclass and every hook is optional for new backends.
"""

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class MergerBundle:
    """The functional (untimed) merging stack one backend builds.

    ``merger`` is the scannable front object (``scan_pages(n)`` +
    ``.stats``); ``daemon`` is the underlying KSM daemon when the
    backend has one (trees for the invariant auditor), else ``None``.
    """

    kind: str
    merger: Any = None
    daemon: Any = None
    driver: Any = None
    controller: Any = None
    extras: dict = field(default_factory=dict)


class MergeBackend:
    """One registered merging configuration (or the absence of one)."""

    #: Overwritten by the ``@register_backend`` decorator.
    name = "abstract"
    #: Whether ``recovery.runner.RecoverableRun`` can checkpoint/resume
    #: this backend (needs a daemon whose trees serialize).
    supports_recovery = False

    def __init__(self, system):
        self.system = system

    # Timed face -----------------------------------------------------------------

    def build(self):
        """Construct merging machinery against ``self.system``."""

    def start(self, events):
        """Schedule the first wake (no-op for non-merging backends)."""

    def attach_auditor(self, auditor):
        """Wire an InvariantAuditor to this backend's components."""
        auditor.attach_hypervisor(self.system.hypervisor)
        return auditor

    # User-guided merge hints (optional fast path) --------------------------------

    #: Whether this backend honors user-guided merge hints.  Backends
    #: that leave it False still *accept* ``apply_hints`` calls — hints
    #: are advisory, so ignoring them must be explicit and counted, not
    #: an AttributeError.
    supports_hints = False

    def apply_hints(self, hints):
        """Offer guest-known identical pages to the merging machinery.

        ``hints`` is an iterable of ``(vm_id, gpn)`` pairs.  Returns an
        accounting dict ``{"accepted": n, "ignored": m}``.  The base
        implementation (and therefore ``baseline``) explicitly ignores
        every hint: there is no scanner to fast-path.
        """
        return {"accepted": 0, "ignored": len(tuple(hints))}

    def register_metrics(self, registry):
        """Publish backend counters into the system's MetricsRegistry."""

    def summarize(self, summary):
        """Fold backend-specific columns into a LatencySummary."""

    # Functional face -------------------------------------------------------------

    @classmethod
    def build_functional(cls, hypervisor, ksm_config, *, line_sampling=8,
                         verify_ecc=False, resilience=None):
        """Build the untimed merging stack; returns a MergerBundle."""
        raise ValueError(
            f"backend {cls.name!r} has no functional merging stack"
        )

    @classmethod
    def capture_functional(cls, bundle):
        """Serialise the bundle's mutable state (JSON-safe)."""
        raise ValueError(f"backend {cls.name!r} does not capture state")

    @classmethod
    def restore_functional(cls, bundle, state):
        """Restore state captured by :meth:`capture_functional`."""
        raise ValueError(f"backend {cls.name!r} does not restore state")

    # Timed-state face (delegates to the functional codecs) -----------------------

    #: Set by subclasses whose timed build produces a bundle.
    bundle: Optional[MergerBundle] = None

    def capture_state(self):
        """Snapshot the timed backend's merging state."""
        if self.bundle is None:
            return None
        return type(self).capture_functional(self.bundle)

    def restore_state(self, state):
        if self.bundle is None or state is None:
            return self
        type(self).restore_functional(self.bundle, state)
        return self
