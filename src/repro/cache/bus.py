"""The snoopy coherence bus connecting private caches, the L3, and the MCs.

Two clients matter for the paper's mechanism:

* cores snoop one another for the latest copy of a line;
* the memory controller (on behalf of PageForge) issues a request "to the
  on-chip network first" (Section 3.2.2): if any cache can supply the
  line, it is serviced from the network; otherwise from DRAM.  PageForge
  itself never participates as a supplier and is not recorded as a sharer
  (Section 3.5).

Every probe first consults a snoop filter: an exact count, per line
address, of the registered caches holding that line, kept up to date by
the caches themselves as they install, evict and invalidate.  A line no
cache holds is answered as a miss in O(1); a line some cache holds takes
the full scan (``*_scan``), which stays as the reference.
"""

from collections import defaultdict
from dataclasses import dataclass

from repro.cache.mesi import MESIState


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a bus probe for one line."""

    __slots__ = ("hit", "supplier", "was_dirty")
    hit: bool
    supplier: str  # "core-i" or "L3"; "" on a miss
    was_dirty: bool


#: The one miss result every probe shares (immutable).
MISS = ProbeResult(hit=False, supplier="", was_dirty=False)


class SnoopBus:
    """Broadcast bus with MESI bookkeeping over registered caches."""

    def __init__(self, page_invalidation_scope="all"):
        self._private = []  # list of (core_id, [caches])
        self._l3 = None
        self.snoop_probes = 0
        self.supplied_from_cache = 0
        # "all" (coherence-exact) or "shared-only": large timing sims
        # skip sweeping every private cache on page remaps, where stale
        # private tags are harmless and the sweep dominates runtime.
        self.page_invalidation_scope = page_invalidation_scope
        # Snoop filter: line address -> registered caches holding it.
        self._presence = defaultdict(int)

    def _track(self, cache):
        """Fold a cache's resident lines into the filter and share it.

        Until it registers, a cache's filter counts only its own lines;
        a cache registers with one bus, once.
        """
        presence = self._presence
        for addr in cache._presence:
            presence[addr] += 1
        cache._presence = presence

    def register_private(self, core_id, caches):
        """Register a core's private cache levels (L1, L2)."""
        caches = list(caches)
        for cache in caches:
            self._track(cache)
        self._private.append((core_id, caches))

    def register_shared(self, l3):
        self._track(l3)
        self._l3 = l3

    @property
    def l3(self):
        return self._l3

    # Probes ----------------------------------------------------------------------

    def probe(self, addr, exclude_core=None):
        """Snoop all caches for ``addr`` without changing state.

        Used by the MC/PageForge path: a hit anywhere means the request is
        serviced from the on-chip network.
        """
        if addr not in self._presence:
            self.snoop_probes += 1
            return MISS
        return self.probe_scan(addr, exclude_core)

    def probe_scan(self, addr, exclude_core=None):
        """:meth:`probe` by visiting every cache (the reference)."""
        self.snoop_probes += 1
        for core_id, caches in self._private:
            if core_id == exclude_core:
                continue
            for cache in caches:
                state = cache.peek(addr)
                if state is not None and state.can_supply:
                    self.supplied_from_cache += 1
                    return ProbeResult(
                        hit=True,
                        supplier=f"core-{core_id}",
                        was_dirty=state.is_dirty,
                    )
        if self._l3 is not None:
            state = self._l3.peek(addr)
            if state is not None and state.can_supply:
                self.supplied_from_cache += 1
                return ProbeResult(hit=True, supplier="L3",
                                   was_dirty=state.is_dirty)
        return MISS

    # Coherence transactions --------------------------------------------------------

    def read_shared(self, addr, requesting_core):
        """A core read: demote remote M/E copies to S; return ProbeResult."""
        if addr not in self._presence:
            self.snoop_probes += 1
            return MISS
        return self.read_shared_scan(addr, requesting_core)

    def read_shared_scan(self, addr, requesting_core):
        """:meth:`read_shared` by visiting every cache (the reference)."""
        result = MISS
        for core_id, caches in self._private:
            if core_id == requesting_core:
                continue
            for cache in caches:
                state = cache.peek(addr)
                if state is not None and state.can_supply:
                    if state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                        cache.set_state(addr, MESIState.SHARED)
                    result = ProbeResult(
                        hit=True, supplier=f"core-{core_id}",
                        was_dirty=state.is_dirty,
                    )
        if self._l3 is not None and not result.hit:
            state = self._l3.peek(addr)
            if state is not None:
                result = ProbeResult(hit=True, supplier="L3",
                                     was_dirty=state.is_dirty)
        self.snoop_probes += 1
        return result

    def read_exclusive(self, addr, requesting_core):
        """A core write: invalidate all other copies; return ProbeResult."""
        if addr not in self._presence:
            self.snoop_probes += 1
            return MISS
        return self.read_exclusive_scan(addr, requesting_core)

    def read_exclusive_scan(self, addr, requesting_core):
        """:meth:`read_exclusive` by visiting every cache (the reference)."""
        result = MISS
        for core_id, caches in self._private:
            if core_id == requesting_core:
                continue
            for cache in caches:
                state = cache.peek(addr)
                if state is not None and state.is_valid:
                    dirty = cache.invalidate(addr)
                    result = ProbeResult(
                        hit=True, supplier=f"core-{core_id}", was_dirty=dirty
                    )
        self.snoop_probes += 1
        return result

    def invalidate_page_everywhere(self, ppn):
        """Invalidate a whole page in every cache (CoW remap / merge)."""
        if self.page_invalidation_scope == "all":
            for _core_id, caches in self._private:
                for cache in caches:
                    cache.invalidate_page(ppn)
        if self._l3 is not None:
            self._l3.invalidate_page(ppn)
