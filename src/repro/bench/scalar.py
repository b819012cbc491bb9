"""Pre-optimization references, kept runnable for A/B timing.

``ScalarKSMDaemon`` wires :class:`~repro.ksm.daemon.KSMDaemon` back to
the scalar per-page operations the repository shipped before the hot
paths were vectorized:

* tree ordering via :func:`~repro.ksm.compare.compare_pages_scalar`
  (chunked numpy array comparison, no pair memo);
* node keys returning ``frame.data`` numpy views (no cached ``bytes``);
* checksums via :func:`~repro.ksm.jhash.page_checksum` on ``frame.data``
  (per-call window copy; no frame-resident memo, no batch priming).

It produces bit-identical merge decisions — same trees, same merges,
same stats — at the old per-operation costs, so the bench harness can
report an in-run, machine-independent speedup ratio instead of
comparing nanoseconds across hosts.

``ScalarFetchEngine`` does the same for the PageForge comparator: every
line it fetches takes its own ``_fetch_line`` call (bus probe, then
``MemoryController.read_line`` and ``DRAMModel.access_line``) instead
of one page-level ``read_line_pairs``.

``ScalarSampledEngine`` keeps the sampled comparator's whole-page numpy
diff, and ``ScalarTreeStrategy`` the two-pass Scan-Table load (a
breadth-first sweep, an ``id()`` index map, then ``clear_entries`` and
one ``insert_PPN`` per entry on every load, with no layout memo).
"""

from collections import deque

import numpy as np

from repro.common.units import LINES_PER_PAGE
from repro.core.driver import PageForgeTreeStrategy, _Batch
from repro.core.engine import PageForgeEngine
from repro.core.scan_table import miss_sentinel
from repro.ksm.compare import compare_pages_scalar
from repro.ksm.daemon import KSMDaemon, StaleNodeError
from repro.ksm.jhash import page_checksum
from repro.ksm.rbtree import ContentRBTree
from repro.mem.controller import LinePairRun


class ScalarKSMDaemon(KSMDaemon):
    """KSM daemon running on the scalar reference implementations."""

    def __init__(self, hypervisor, config=None, **kwargs):
        super().__init__(hypervisor, config,
                         checksum_fn=self._scalar_checksum, **kwargs)
        self.stable_tree = ContentRBTree("stable",
                                        compare=compare_pages_scalar)
        self.unstable_tree = ContentRBTree("unstable",
                                          compare=compare_pages_scalar)

    # checksum_fn != _default_checksum, so the base class skips the
    # jhash2_batch priming sweep — every checksum is paid per page.
    def _scalar_checksum(self, frame):
        return page_checksum(frame.data, n_bytes=self.config.hash_bytes)

    def _stable_key_fn(self, ppn):
        memory = self.hypervisor.memory

        def key():
            try:
                return memory.frame(ppn).data
            except KeyError:
                raise StaleNodeError(f"stable PPN {ppn} freed") from None

        return key

    def _unstable_key_fn(self, vm_id, gpn):
        hypervisor = self.hypervisor

        def key():
            vm = hypervisor.vms.get(vm_id)
            if vm is None:
                raise StaleNodeError(f"VM{vm_id} destroyed")
            mapping = vm.lookup(gpn)
            if mapping is None:
                raise StaleNodeError(f"VM{vm_id} GPN {gpn} unmapped")
            if mapping.cow:
                raise StaleNodeError(f"VM{vm_id} GPN {gpn} became stable")
            return hypervisor.memory.frame(mapping.ppn).data

        return key

    def _walk_pruning(self, tree, frame, interval):
        # Array candidate + scalar comparator: the walk takes the
        # generic (non-inlined) path, exactly as it did pre-vectorization.
        while True:
            try:
                outcome = tree.walk(frame.data)
                interval.comparisons += outcome.comparisons
                interval.bytes_compared += outcome.bytes_compared
                return outcome
            except StaleNodeError:
                self._prune_stale(tree)
                interval.stale_nodes_pruned += 1


class ScalarFetchEngine(PageForgeEngine):
    """PageForge engine fetching comparator lines one call at a time."""

    def _fetch_pairs(self, candidate_ppn, other_ppn, lines, time_seconds,
                     compare, wanted):
        # _fetch_line feeds every candidate line to the key generator,
        # which keeps the ones it wants: ``wanted`` is not needed.
        run = LinePairRun()
        frequency = self.controller.dram.cpu_frequency_hz
        cycles = 0
        for line in lines:
            now = time_seconds + cycles / frequency
            data_a, lat_a = self._fetch_line(
                candidate_ppn, line, now, is_candidate=True
            )
            data_b, lat_b = self._fetch_line(
                other_ppn, line, now, is_candidate=False
            )
            pair_latency = max(lat_a, lat_b)
            run.latency += pair_latency
            run.pairs += 1
            cycles += pair_latency + self.COMPARE_CYCLES_PER_LINE
            if not compare:
                continue
            self.stats.line_pairs_compared += 1
            if not np.array_equal(data_a, data_b):
                first = int(np.nonzero(data_a != data_b)[0][0])
                run.sign = -1 if data_a[first] < data_b[first] else 1
                break
        return run


class ScalarSampledEngine(PageForgeEngine):
    """PageForge engine deciding sampled comparisons by a numpy diff."""

    def _compare_sampled(self, candidate_ppn, other_ppn, time_seconds):
        memory = self.controller.memory
        a = memory.frame(candidate_ppn).data
        b = memory.frame(other_ppn).data
        diffs = np.nonzero(a != b)[0]
        if diffs.size == 0:
            sign, lines = 0, LINES_PER_PAGE
        else:
            first = int(diffs[0])
            sign = -1 if a[first] < b[first] else 1
            lines = first // 64 + 1

        sampled = set(range(0, lines, self.line_sampling))
        for line in self.keygen.missing_lines():
            if line < lines:
                sampled.add(line)
        run = self._fetch_pairs(
            candidate_ppn, other_ppn, sorted(sampled), time_seconds,
            compare=False, wanted=self.keygen.missing_lines(),
        )
        cycles = run.latency + run.pairs * self.COMPARE_CYCLES_PER_LINE
        est_per_line = run.latency / max(1, len(sampled))
        skipped = lines - len(sampled)
        cycles += int(
            skipped * (est_per_line + self.COMPARE_CYCLES_PER_LINE)
        )
        if skipped > 0:
            n = 2 * skipped
            self.stats.lines_fetched += n
            self.stats.lines_from_dram += n
            dram = self.controller.dram
            dram.stats.bytes_by_source["pageforge"] += n * 64
            dram.bandwidth.record(time_seconds, n * 64, "pageforge")
        self.stats.line_pairs_compared += lines
        return sign, cycles


class ScalarTreeStrategy(PageForgeTreeStrategy):
    """Hardware tree walks loading every batch in two passes."""

    def _load_batch(self, tree, start_node):
        capacity = self.api.table.n_entries
        nodes = []
        frontier = deque([start_node])
        while frontier and len(nodes) < capacity:
            node = frontier.popleft()
            nodes.append(node)
            left, right = tree.children(node)
            if left is not None:
                frontier.append(left)
            if right is not None:
                frontier.append(right)
        index_of = {id(node): i for i, node in enumerate(nodes)}

        self.api.clear_entries()
        less_links = []
        more_links = []
        is_last = True
        for i, node in enumerate(nodes):
            left, right = tree.children(node)
            if left is not None and id(left) in index_of:
                less = index_of[id(left)]
            else:
                less = miss_sentinel(i, "left")
                if left is not None:
                    is_last = False
            if right is not None and id(right) in index_of:
                more = index_of[id(right)]
            else:
                more = miss_sentinel(i, "right")
                if right is not None:
                    is_last = False
            self.api.insert_PPN(i, self._node_ppn(node), less, more)
            less_links.append(less)
            more_links.append(more)
        self.table_refills += 1
        return _Batch(tuple(nodes), tuple(less_links), tuple(more_links),
                      is_last)
