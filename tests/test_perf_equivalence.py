"""Vectorized-vs-scalar bit-for-bit equivalence properties.

Every hot path the bench harness times has a scalar reference
implementation; these properties pin the vectorized versions to them
bit-for-bit, so a throughput optimisation can never silently change a
merge decision, an ECC code, a checksum, or an event dispatch order.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scalar import (
    ScalarFetchEngine,
    ScalarSampledEngine,
    ScalarTreeStrategy,
)
from repro.cache import CoreCacheHierarchy, MESIState, SetAssocCache, SnoopBus
from repro.common.config import (
    TAILBENCH_APPS,
    CacheConfig,
    PageForgeConfig,
    ProcessorConfig,
)
from repro.common.units import PAGE_BYTES
from repro.core.api import PageForgeAPI
from repro.core.driver import PageForgeTreeStrategy
from repro.core.engine import PageForgeEngine
from repro.core.hashkey import ecc_hash_key
from repro.ecc.hamming import (
    _encode_words_swar,
    encode_line,
    encode_page,
    encode_words,
)
from repro.ksm.compare import compare_pages, compare_pages_scalar
from repro.ksm.daemon import KSMDaemon, StaleNodeError
from repro.ksm.jhash import jhash2, jhash2_batch, page_checksum
from repro.ksm.rbtree import RBNode
from repro.mem import MemoryController, PhysicalMemory
from repro.mem.controller import RequestDropped, UncorrectableLineError
from repro.mem.dram import BandwidthWindow, DRAMModel
from repro.recovery.serialize import capture_daemon, restore_daemon
from repro.sim import ServerSystem, SimulationScale, run_memory_savings
from repro.sim.engine import EventQueue
from repro.virt import Hypervisor

# Page pairs: a shared prefix of random length, then independent tails —
# exercises equal pages, early divergence, and deep divergence.
_page_pairs = st.tuples(
    st.integers(0, PAGE_BYTES),      # shared prefix length
    st.integers(0, 2**32 - 1),       # content seed
    st.booleans(),                   # force-equal pair
)


def _make_pair(prefix_len, seed, equal):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
    if equal:
        return a, a.copy()
    b = a.copy()
    tail = rng.integers(0, 256, size=PAGE_BYTES - prefix_len, dtype=np.uint8)
    b[prefix_len:] = tail
    return a, b


@given(_page_pairs)
@settings(max_examples=60)
def test_compare_pages_matches_scalar(params):
    a, b = _make_pair(*params)
    assert compare_pages(a, b) == compare_pages_scalar(a, b)
    assert compare_pages(b, a) == compare_pages_scalar(b, a)
    # bytes and ndarray inputs agree (the walk fast path passes bytes).
    assert compare_pages(a.tobytes(), b.tobytes()) == compare_pages(a, b)


@given(st.integers(0, 2**32 - 1), st.integers(1, 600))
@settings(max_examples=40)
def test_encode_words_matches_swar(seed, n_words):
    words = np.random.default_rng(seed).integers(
        0, 2**64, size=n_words, dtype=np.uint64
    )
    np.testing.assert_array_equal(
        encode_words(words), _encode_words_swar(words)
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_ecc_hash_key_cached_codes_match_fresh_encode(seed):
    page = np.random.default_rng(seed).integers(
        0, 256, size=PAGE_BYTES, dtype=np.uint8
    )
    codes = encode_page(page)
    assert ecc_hash_key(page) == ecc_hash_key(page, codes=codes)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 300))
@settings(max_examples=25)
def test_jhash2_batch_matches_scalar_rows(seed, n_rows, n_words):
    rows = np.random.default_rng(seed).integers(
        0, 2**32, size=(n_rows, n_words), dtype=np.uint32
    )
    batch = jhash2_batch(rows, 17)
    for i in range(n_rows):
        assert int(batch[i]) == jhash2(rows[i], 17)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_page_checksum_is_jhash2_of_window(seed):
    page = np.random.default_rng(seed).integers(
        0, 256, size=PAGE_BYTES, dtype=np.uint8
    )
    assert page_checksum(page, n_bytes=1024, initval=17) == jhash2(
        np.ascontiguousarray(page[:1024]).view(np.uint32), 17
    )


# Event times drawn from a tiny grid so ties are common — the property
# is about FIFO stability under ties, not about ordering distinct times.
_event_times = st.lists(
    st.integers(0, 4).map(lambda t: t / 4.0), min_size=0, max_size=60
)


@given(_event_times)
@settings(max_examples=60)
def test_schedule_batch_dispatch_order_matches_per_call(times):
    def dispatch_order(loader):
        q = EventQueue()
        order = []
        loader(q, order)
        q.run()
        return order

    def per_call(q, order):
        for i, t in enumerate(times):
            q.schedule(t, order.append, (t, i))

    def batched(q, order):
        q.schedule_batch(
            (t, order.append, ((t, i),)) for i, t in enumerate(times)
        )

    def split(q, order):
        # Half per-call, half batched into a non-empty heap: exercises
        # the heapify path with the same global sequence numbering.
        half = len(times) // 2
        for i, t in enumerate(times[:half]):
            q.schedule(t, order.append, (t, i))
        q.schedule_batch(
            (t, order.append, ((t, half + i),))
            for i, t in enumerate(times[half:])
        )

    reference = dispatch_order(per_call)
    assert dispatch_order(batched) == reference
    assert dispatch_order(split) == reference


@given(_event_times, _event_times)
@settings(max_examples=30)
def test_schedule_batch_interleaved_with_run(first, second):
    """Bulk loads landing mid-run must merge into the live heap."""
    order = []
    q = EventQueue()

    def load_second():
        q.schedule_batch(
            (q.now + t, order.append, (("second", t, i),))
            for i, t in enumerate(second)
        )

    q.schedule(0.0, load_second)
    for i, t in enumerate(first):
        q.schedule(t, order.append, ("first", t, i))
    q.run()
    assert len(order) == len(first) + len(second)
    times_seen = [t for _tag, t, _i in order]
    assert times_seen == sorted(times_seen)


# PageForge page-level fetch vs the per-line _fetch_line reference --------

class _LineFault:
    """Deterministic fault hook: acts on its ``at``-th call only."""

    def __init__(self, at, action):
        self.at = at
        self.action = action
        self.calls = 0

    def __call__(self, ppn, line_index, data, code):
        self.calls += 1
        if self.calls != self.at or self.action == "none":
            return data, code, 0
        if self.action == "drop":
            raise RequestDropped(ppn, line_index)
        if self.action == "latency":
            return data, code, 700
        data = np.array(data, copy=True)
        code = np.array(code, copy=True)
        if self.action == "flip1":      # corrected by SECDED
            data[0] ^= 0x01
        elif self.action == "flip2":    # detected, uncorrectable
            data[0] ^= 0x03
        else:                           # silent: damage + consistent code
            data[5] ^= 0xFF
            code = encode_line(data)
        return data, code, 0


# (on page b, line, cycles until the read completes)
_pending_reads = st.lists(
    st.tuples(st.booleans(), st.integers(0, 63), st.integers(-50, 400)),
    max_size=12,
)
# (on page b, line, holder: private cache 0 or 1, or the L3)
_cached_lines = st.lists(
    st.tuples(st.booleans(), st.integers(0, 63), st.integers(0, 2)),
    max_size=12,
)

_fetch_cases = st.fixed_dictionaries({
    "pair": _page_pairs,
    "line_sampling": st.sampled_from([1, 8]),
    "verify_ecc": st.booleans(),
    "pending": _pending_reads,
    "cached": _cached_lines,
    "observed": st.lists(st.sampled_from([0, 16, 32, 48]), max_size=3),
    "fault": st.none() | st.tuples(   # None: no hook armed
        st.integers(1, 40),
        st.sampled_from(
            ["none", "drop", "latency", "flip1", "flip2", "silent"]),
    ),
    "self_compare": st.booleans(),
    "repeat": st.booleans(),
})


def _build_fetch_stack(engine_cls, case):
    """A memory controller, bus and engine in the state ``case`` names."""
    memory = PhysicalMemory(4 * 1024 * 1024)
    a, b = case["pages"] if "pages" in case else _make_pair(*case["pair"])
    frames = []
    for data in (a, b):
        frame = memory.allocate()
        frame.fill(data)
        frames.append(frame)
    controller = MemoryController(0, memory, verify_ecc=case["verify_ecc"])
    if case["fault"] is not None:
        controller.fault_hook = _LineFault(*case["fault"])
    bus = SnoopBus()
    private = [_tiny_cache() for _ in range(2)]
    for core, cache in enumerate(private):
        bus.register_private(core, [cache])
    l3 = _tiny_cache(sets=8)
    bus.register_shared(l3)
    for on_b, line, where in case["cached"]:
        cache = l3 if where == 2 else private[where]
        cache.insert(frames[on_b].ppn * 64 + line, MESIState.SHARED)
    for on_b, line, ahead_cycles in case["pending"]:
        controller._pending_reads[(frames[on_b].ppn << 6) | line] = (
            ahead_cycles / controller.dram.cpu_frequency_hz
        )
    config = PageForgeConfig(
        ecc_hash_line_offsets=case.get("offsets", (0, 16, 32, 48)))
    engine = engine_cls(controller, bus=bus, config=config,
                        line_sampling=case["line_sampling"])
    for line in case["observed"]:
        engine.keygen.observe(line, frames[0].ecc_code_for_line(line))
    return engine, frames


def _tiny_cache(sets=2, ways=2):
    return SetAssocCache(CacheConfig(
        name="T", size_bytes=sets * ways * 64, ways=ways,
        round_trip_cycles=2, mshrs=4,
    ))


def _compare_outcome(engine, frames, case):
    """Run one (or two) comparisons; the result or the exception type."""
    outcomes = []
    # A page against itself: page b's reads coalesce with page a's.
    other = frames[0] if case["self_compare"] else frames[1]
    pairs = [(frames[0].ppn, other.ppn)]
    if case["repeat"]:  # a second comparison meets the first's rows/pending
        pairs.append((frames[1].ppn, frames[0].ppn))
    for candidate, entry_ppn in pairs:
        try:
            outcomes.append(
                engine._compare_with_entry(candidate, entry_ppn, 0.0))
        except (RequestDropped, UncorrectableLineError) as exc:
            outcomes.append(type(exc).__name__)
    return outcomes


def _fetch_state(engine, frames):
    controller = engine.controller
    dram = controller.dram
    keygen = engine.keygen
    return {
        "engine": engine.stats,
        "controller": controller.stats,
        "dram": dram.stats,
        "ecc": controller.ecc.stats,
        "rows": list(dram._open_rows),
        "buckets": {k: dict(v) for k, v in dram.bandwidth._buckets.items()},
        "totals": dict(dram.bandwidth._totals),
        "pending": dict(controller._pending_reads),
        "frame_reads": [f.reads for f in frames],
        "missing": keygen.missing_lines(),
        "key": keygen.key() if keygen.ready else None,
        "bus": (engine.bus.snoop_probes, engine.bus.supplied_from_cache),
        "hook_calls": getattr(controller.fault_hook, "calls", None),
    }


@given(_fetch_cases)
@settings(max_examples=150, deadline=None)
def test_page_fetch_matches_per_line_reference(case):
    fast, fast_frames = _build_fetch_stack(PageForgeEngine, case)
    ref, ref_frames = _build_fetch_stack(ScalarFetchEngine, case)
    assert (_compare_outcome(fast, fast_frames, case)
            == _compare_outcome(ref, ref_frames, case))
    assert _fetch_state(fast, fast_frames) == _fetch_state(ref, ref_frames)


# Sampled comparator vs the numpy reference ---------------------------------

def _pages_differing_at(seed, diff_at):
    """A random page and a copy differing at byte ``diff_at`` only
    (equal when ``diff_at`` is None); either page may be the larger."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
    b = a.copy()
    if diff_at is not None:
        b[diff_at] ^= int(rng.integers(1, 256))
    return a, b


_sampled_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "diff_at": st.one_of(st.none(), st.sampled_from([0, PAGE_BYTES - 1]),
                         st.integers(0, PAGE_BYTES - 1)),
    "line_sampling": st.sampled_from([2, 3, 5, 8]),
    # On the sampling grid for every step, and off it for most.
    "offsets": st.sampled_from([(0, 16, 32, 48), (1, 17, 35, 63),
                                (5, 21, 40, 50)]),
    "observed": st.lists(st.integers(0, 3), max_size=3),
    "verify_ecc": st.booleans(),
    "pending": _pending_reads,
    "cached": _cached_lines,
    "self_compare": st.booleans(),
    "repeat": st.booleans(),
})


@given(_sampled_cases)
@settings(max_examples=150, deadline=None)
def test_sampled_compare_matches_numpy_reference(case):
    case = dict(case, fault=None,
                pages=_pages_differing_at(case["seed"], case["diff_at"]))
    case["observed"] = [case["offsets"][section]
                        for section in case["observed"]]
    fast, fast_frames = _build_fetch_stack(PageForgeEngine, case)
    ref, ref_frames = _build_fetch_stack(ScalarSampledEngine, case)
    assert (_compare_outcome(fast, fast_frames, case)
            == _compare_outcome(ref, ref_frames, case))
    assert _fetch_state(fast, fast_frames) == _fetch_state(ref, ref_frames)


@given(st.integers(0, 1000), st.integers(1, 3),
       st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=40))
@settings(max_examples=100)
def test_record_many_matches_per_time_record(first_bucket, n_buckets,
                                             fractions):
    window = BandwidthWindow()
    start = first_bucket * window.window_seconds
    span = n_buckets * window.window_seconds
    times = sorted(start + f * span for f in fractions)
    bulk, per_time = BandwidthWindow(), BandwidthWindow()
    bulk.record_many(times, 64, "pageforge")
    for t in times:
        per_time.record(t, 64, "pageforge")
    assert ({k: dict(v) for k, v in bulk._buckets.items()}
            == {k: dict(v) for k, v in per_time._buckets.items()})
    assert dict(bulk._totals) == dict(per_time._totals)


# Scan-Table batch layouts vs the two-pass reference ------------------------

_TABLE_SIZES = (1, 3, 7, 31)

_tree_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 47)),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("stale"), st.integers(0, 63)),
        st.tuples(st.just("reset")),
        st.tuples(st.just("roundtrip")),
        st.tuples(st.just("load"), st.integers(0, 63),
                  st.sampled_from(_TABLE_SIZES)),
    ),
    min_size=5,
    max_size=60,
)


def _table_state(table):
    return [(e.valid, e.ppn, e.less, e.more) for e in table.entries]


def _load_outcome(strategy, tree, start):
    try:
        batch = strategy._load_batch(tree, start)
    except StaleNodeError:
        result = "stale"
    else:
        result = (batch.nodes, batch.less, batch.more, batch.is_last)
    return (result, _table_state(strategy.api.table),
            strategy.table_refills)


@given(st.integers(0, 2**32 - 1), _tree_ops)
@settings(max_examples=80, deadline=None)
def test_batch_layouts_match_two_pass_reference(seed, ops):
    """Memoized one-pass layouts and bulk fills load every batch the
    two-pass reference loads, across structural changes, checkpoint
    round trips and stale nodes."""
    memory = PhysicalMemory(8 * 1024 * 1024)
    daemon = KSMDaemon(Hypervisor(physical_memory=memory))
    tree = daemon.stable_tree
    rng = np.random.default_rng(seed)
    # Contents share a prefix of a few lines, so tree orders depend on
    # more than the first byte; a few repeat to exercise matches.
    base = rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
    frames = []
    for _ in range(48):
        frame = memory.allocate()
        page = base.copy()
        page[int(rng.integers(0, 256)):] = rng.integers(0, 4)
        frame.fill(page)
        frames.append(frame)

    def pair(size):
        tables = []
        for cls in (PageForgeTreeStrategy, ScalarTreeStrategy):
            engine = PageForgeEngine(
                MemoryController(0, memory, verify_ecc=False),
                config=PageForgeConfig(other_pages_entries=size))
            tables.append(cls(PageForgeAPI(engine), daemon.hypervisor))
        return tables

    strategies = {size: pair(size) for size in _TABLE_SIZES}
    for op in ops:
        nodes = list(tree)
        if op[0] == "insert":
            frame = frames[op[1]]
            if memory.is_allocated(frame.ppn):
                try:
                    tree.insert(RBNode(daemon._stable_key_fn(frame.ppn),
                                       payload=("stable", frame.ppn)))
                except StaleNodeError:
                    pass  # the walk met a freed page; tree unchanged
        elif op[0] == "remove" and nodes:
            tree.remove(nodes[op[1] % len(nodes)])
        elif op[0] == "stale" and nodes:
            ppn = nodes[op[1] % len(nodes)].payload[1]
            if memory.is_allocated(ppn):
                memory.decref(ppn)
        elif op[0] == "reset":
            tree.reset()
        elif op[0] == "roundtrip":
            restore_daemon(daemon, capture_daemon(daemon))
        elif op[0] == "load" and nodes:
            start = nodes[op[1] % len(nodes)]
            fast, ref = strategies[op[2]]
            assert _load_outcome(fast, tree, start) == _load_outcome(
                ref, tree, start)
        if len(tree):  # and the root batch, as every walk first loads it
            for fast, ref in strategies.values():
                assert _load_outcome(fast, tree, tree.root) == (
                    _load_outcome(ref, tree, tree.root))


# Snoop filter vs the scanning reference -----------------------------------

# Eight lines on each of three pages: few enough that the cores share
# lines and evict them, spread over pages so page invalidations bite.
_line_addrs = st.builds(lambda ppn, line: ppn * 64 + line,
                        st.integers(0, 2), st.integers(0, 7))
_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 1), _line_addrs,
                  st.booleans(), st.booleans()),
        st.tuples(st.just("invalidate"), st.integers(0, 2),
                  st.sampled_from(["all", "shared-only"])),
    ),
    min_size=10,
    max_size=80,
)


def _build_hierarchies(scan, preload):
    # Caches a few lines deep, so short sequences already evict.
    proc = ProcessorConfig(
        n_cores=2,
        l1=CacheConfig(name="L1", size_bytes=2 * 64, ways=2,
                       round_trip_cycles=2, mshrs=4),
        l2=CacheConfig(name="L2", size_bytes=4 * 64, ways=2,
                       round_trip_cycles=6, mshrs=4),
        l3=CacheConfig(name="L3", size_bytes=8 * 64, ways=4,
                       round_trip_cycles=20, mshrs=4, shared=True),
    )
    bus = SnoopBus()
    if scan:  # route every transaction to the reference scans
        bus.probe = bus.probe_scan
        bus.read_shared = bus.read_shared_scan
        bus.read_exclusive = bus.read_exclusive_scan
    l3 = SetAssocCache(proc.l3)
    for addr in preload:  # held before registering: seeds the filter
        l3.insert(addr, MESIState.SHARED)
    bus.register_shared(l3)
    cores = [CoreCacheHierarchy(i, proc, l3, bus) for i in range(2)]
    return bus, cores, l3


def _caches(cores, l3):
    return [c for core in cores for c in (core.l1, core.l2)] + [l3]


def _cache_state(bus, cores, l3):
    return {
        "lines": [
            [list((a, e.state, e.owner) for a, e in s.items())
             for s in cache._sets]
            for cache in _caches(cores, l3)
        ],
        "stats": [cache.stats for cache in _caches(cores, l3)],
        "bus": (bus.snoop_probes, bus.supplied_from_cache),
    }


@given(st.lists(_line_addrs, max_size=6), _cache_ops)
@settings(max_examples=120, deadline=None)
def test_snoop_filter_matches_scan(preload, ops):
    systems = [_build_hierarchies(scan, preload) for scan in (False, True)]
    for op in ops:
        results = []
        for bus, cores, _l3 in systems:
            if op[0] == "access":
                _kind, core, addr, is_write, allocate = op
                results.append(cores[core].access(
                    addr, is_write=is_write, allocate=allocate))
            else:
                _kind, ppn, scope = op
                bus.page_invalidation_scope = scope
                results.append(bus.invalidate_page_everywhere(ppn))
        assert results[0] == results[1]
    fast, ref = systems
    assert _cache_state(*fast) == _cache_state(*ref)

    bus, cores, l3 = fast
    recount = Counter(
        addr
        for cache in _caches(cores, l3)
        for cache_set in cache._sets
        for addr, entry in cache_set.items()
        if entry.state.is_valid
    )
    assert bus._presence == dict(recount)
    for addr in range(3 * 64):
        for exclude in (None, 0, 1, 2):
            before = (bus.snoop_probes, bus.supplied_from_cache)
            filtered = bus.probe(addr, exclude_core=exclude)
            mid = (bus.snoop_probes, bus.supplied_from_cache)
            assert filtered == bus.probe_scan(addr, exclude_core=exclude)
            after = (bus.snoop_probes, bus.supplied_from_cache)
            assert mid[0] - before[0] == after[0] - mid[0] == 1
            assert mid[1] - before[1] == after[1] - mid[1]


# The batched fetch and the per-line boundaries perfbench traces -----------

def _record_instances(monkeypatch, cls, name):
    """Wrap ``cls.name`` to record each instance it is called on."""
    seen = {}
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        seen[id(self)] = self
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return seen


def _timed_pageforge():
    scale = SimulationScale(pages_per_vm=100, n_vms=2, duration_s=0.02,
                            warmup_s=0.01)
    ServerSystem(TAILBENCH_APPS["moses"], mode="pageforge", scale=scale,
                 seed=2017).run()


def _converging_pageforge():
    run_memory_savings("moses", pages_per_vm=120, n_vms=4, seed=2017,
                       engine="pageforge", churn=True)


@pytest.mark.parametrize("run", [_timed_pageforge, _converging_pageforge])
def test_batched_fetch_crosses_per_line_boundaries(monkeypatch, run):
    """perfbench's trace reads controller and DRAM stats only from the
    instances seen at ``read_line`` / ``access_line``.  Every controller
    the batched fetch reads through (pf_steady and pf_converge sizes) must
    be among them, or its ``mem.*`` metrics would silently drop out."""
    batched = _record_instances(monkeypatch, MemoryController,
                                "read_line_pairs")
    per_line = _record_instances(monkeypatch, MemoryController, "read_line")
    dram_seen = _record_instances(monkeypatch, DRAMModel, "access_line")
    run()
    assert batched
    assert set(batched) <= set(per_line)
    assert {id(c.dram) for c in batched.values()} <= set(dram_seen)
