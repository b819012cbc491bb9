"""The untimed merging host: one build, one convergence rule, one checkpoint.

Every caller that merges pages without the timed machine holds a
:class:`FunctionalHost`: the Figure 7 savings run, the crash-safe
recovery run, VM migration and the live merge service, and the
serverless cold-start study.  A host is a hypervisor booted from a
scenario's guest images plus one registered backend's functional
:class:`~repro.sim.backends.MergerBundle`, with an optional write
churner between scan intervals.
"""

from dataclasses import asdict, dataclass
from typing import Optional

from repro.common.config import KSMConfig, TAILBENCH_APPS
from repro.mem import PhysicalMemory
from repro.scenarios import get_scenario
from repro.sim.backends import get_backend
from repro.virt import Hypervisor
from repro.workloads.memimage import WriteChurner

__all__ = ["FunctionalHost"]

#: Physical frames per guest page, so CoW breaks never exhaust memory.
HEAD_ROOM = 4
#: Share of the churn population rewritten before each scan interval.
CHURN_FRACTION = 0.5


@dataclass
class _Progress:
    """Loop counters of one :meth:`FunctionalHost.converge` call."""

    start_tick: int
    passes_before: int
    last_footprint: Optional[int] = None
    stable: int = 0


class FunctionalHost:
    """One host's untimed merging stack.

    ``rng`` is the caller's stream: it boots the guests through
    ``model.build_images`` (the ``steady_state`` scenario by default)
    and seeds the churner via ``rng.derive("churn")``.  With
    ``boot=False`` the hypervisor stays empty for :meth:`restore`.
    ``line_sampling`` and ``verify_ecc`` go to the backend's
    ``build_functional``.
    """

    def __init__(self, rng, backend="ksm", app="moses", n_vms=3,
                 pages_per_vm=120, *, model=None, pages_to_scan=4000,
                 churn=False, boot=True, line_sampling=8, verify_ecc=False):
        self.rng = rng
        self.backend = backend
        self.backend_cls = get_backend(backend)
        self.app = TAILBENCH_APPS[app] if isinstance(app, str) else app
        self.model = model if model is not None else get_scenario(
            "steady_state")()
        capacity = max(pages_per_vm * n_vms * HEAD_ROOM * 4096, 64 << 20)
        self.hypervisor = Hypervisor(physical_memory=PhysicalMemory(capacity))
        self.images = None
        if boot:
            self.images = self.model.build_images(
                self.hypervisor, self.app, n_vms, pages_per_vm, rng,
            )
        self.config = KSMConfig(pages_to_scan=pages_to_scan)
        self.bundle = self.backend_cls.build_functional(
            self.hypervisor, self.config,
            line_sampling=line_sampling, verify_ecc=verify_ecc,
        )
        self.merger = self.bundle.merger
        self.churner = None
        if churn and self.images is not None:
            self.start_churn(self.images.churn_pages)
        #: Scan intervals run since boot.
        self.ticks = 0
        self._progress = None

    def start_churn(self, churn_pages):
        """Rewrite ``churn_pages`` (``(vm_id, gpn)``) before every scan."""
        self.churner = WriteChurner(
            self.hypervisor, [tuple(p) for p in churn_pages],
            self.rng.derive("churn"), fraction_per_tick=CHURN_FRACTION,
        )
        return self.churner

    # Scanning --------------------------------------------------------------------

    def scan(self, n_pages=None):
        """One scan interval (churning first when churn is enabled)."""
        if self.churner is not None:
            self.churner.tick()
        interval = self.merger.scan_pages(
            self.config.pages_to_scan if n_pages is None else n_pages
        )
        self.ticks += 1
        return interval

    def converge(self, max_passes=8, on_tick=None):
        """Scan until the footprint holds still; returns the footprint.

        The one convergence rule: stop once at least three passes have
        completed and two consecutive pass-completing intervals moved
        the footprint by at most ``max(2, footprint // 200)`` pages, or
        after ``max_passes`` passes, or when nothing is left to scan.
        The tolerance absorbs churn pages that merge and break again
        between passes; the Figure 7 goldens were recorded under it.

        ``on_tick(host)`` runs after every interval that did not end
        the loop (the checkpoint hook).  A host restored mid-converge
        continues with the captured loop counters.
        """
        if self._progress is None:
            self._progress = _Progress(
                self.ticks, self.merger.stats.passes_completed
            )
        progress = self._progress
        while self.ticks - progress.start_tick < max_passes * 40:
            if self._converged(self.scan(), progress, max_passes):
                break
            if on_tick is not None:
                on_tick(self)
        self._progress = None
        return self.footprint()

    def _converged(self, interval, progress, max_passes):
        if interval.pages_scanned == 0 and interval.passes_completed == 0:
            return True
        if not interval.passes_completed:
            return False
        passes = self.merger.stats.passes_completed - progress.passes_before
        footprint = self.footprint()
        last = progress.last_footprint
        if last is not None and abs(footprint - last) <= max(
            2, footprint // 200
        ):
            progress.stable += 1
        else:
            progress.stable = 0
        progress.last_footprint = footprint
        return (progress.stable >= 2 and passes >= 3) or passes >= max_passes

    # Checkpoint / restore ----------------------------------------------------------

    def capture(self):
        """JSON-safe snapshot: hypervisor, merger, churner, loop counters."""
        from repro.recovery import serialize

        churner = self.churner
        return {
            "ticks": self.ticks,
            "progress": (
                asdict(self._progress) if self._progress is not None
                else None
            ),
            "hypervisor": serialize.capture_hypervisor(self.hypervisor),
            "merger": self.backend_cls.capture_functional(self.bundle),
            "churn_pages": (
                [list(p) for p in churner.churn_pages]
                if churner is not None else None
            ),
            "churner": (
                serialize.capture_churner(churner)
                if churner is not None else None
            ),
        }

    def restore(self, state):
        """Load a :meth:`capture` snapshot into an unbooted host."""
        from repro.recovery import serialize

        serialize.restore_hypervisor(self.hypervisor, state["hypervisor"])
        self.backend_cls.restore_functional(self.bundle, state["merger"])
        self.ticks = state["ticks"]
        progress = state["progress"]
        self._progress = _Progress(**progress) if progress else None
        if state["churn_pages"] is not None:
            self.start_churn(state["churn_pages"])
            serialize.restore_churner(self.churner, state["churner"])
        return self

    # Accounting ------------------------------------------------------------------

    def footprint(self):
        return self.hypervisor.footprint_pages()

    def guest_pages(self):
        return self.hypervisor.guest_pages()

    # Auditing --------------------------------------------------------------------

    def attach_auditor(self, auditor):
        """Wire an InvariantAuditor into this host's merge events, once."""
        daemon = self.bundle.daemon
        if daemon is not None:
            auditor.attach_daemon(daemon)
        else:
            auditor.attach_hypervisor(self.hypervisor)
        driver = self.bundle.driver
        if driver is not None and hasattr(driver, "engine"):
            auditor.attach_engine(driver.engine)
        return auditor

    def audit(self, auditor):
        """Full-state audit now: frames always, trees when present."""
        daemon = self.bundle.daemon
        if daemon is not None:
            auditor.on_scan_interval(daemon)
        else:
            auditor.audit_frames(self.hypervisor)
        return auditor
