"""Layer-attributed tracing for the benchmark, from outside the program.

The traced run replaces the public entry points of each ``repro``
package (the :data:`BOUNDARIES` table) with wrappers that record one
span per call: name, start, end, parent span and the id of the
simulation run the span belongs to.  Spans stay in memory, in compact
columns, and are written out when the run ends.  A span's self time is
its duration minus the union of its children's intervals
(:func:`self_times`), net of the wrappers' own measured cost
(:meth:`Tracer.calibrate`), so a layer is charged only for the time
spent in its own code.

Module-level functions are patched where they are looked up (the
importing module's global), not where they are defined, because a
``from x import f`` binding is what the caller actually calls.  Class
methods are patched on the class, so instances built after
:meth:`Tracer.install` call the wrapper, including bound methods the
program stores at construction time.
"""

import functools
import importlib
import time
from array import array
from collections import Counter, namedtuple

import numpy as np

#: One traced entry point: ``owner`` is ``"module"`` or ``"module:Class"``.
Target = namedtuple("Target", "owner attr")


def _targets(owner, *attrs):
    return tuple(Target(owner, a) for a in attrs)


_BUS = "repro.cache.bus:SnoopBus"
_HYP = "repro.virt.hypervisor:Hypervisor"

#: Span name -> entry points it covers.  The name's first component is
#: the ``repro`` package (the layer) the time is charged to.
BOUNDARIES = {
    "cache.probe": _targets(_BUS, "probe"),
    "cache.access": _targets(
        "repro.cache.hierarchy:CoreCacheHierarchy", "access"),
    "cache.snoop": _targets(_BUS, "read_shared", "read_exclusive"),
    "cache.invalidate_page": _targets(_BUS, "invalidate_page_everywhere"),
    "core.scan": _targets("repro.core.driver:PageForgeMergeDriver",
                          "scan_pages"),
    "core.walk": _targets("repro.core.driver:PageForgeTreeStrategy", "walk"),
    "core.table": _targets("repro.core.engine:PageForgeEngine",
                           "process_table"),
    "mem.read_line": _targets("repro.mem.controller:MemoryController",
                              "read_line"),
    "mem.write_line": _targets("repro.mem.controller:MemoryController",
                               "write_line"),
    "mem.dram_access": _targets("repro.mem.dram:DRAMModel", "access_line"),
    "ksm.scan": _targets("repro.ksm.daemon:KSMDaemon", "scan_pages"),
    "ksm.rbtree_walk": _targets("repro.ksm.rbtree:ContentRBTree", "walk"),
    "sim.loop": _targets("repro.sim.engine:EventQueue", "run_until"),
    "sim.cachecost": _targets(
        "repro.sim.backends.cachecost:CacheCostSink",
        "on_walk", "on_hash_bytes", "on_merge_verify"),
    "sim.memmodel": _targets(
        "repro.sim.memmodel:MemoryModel",
        "touch", "advance", "add_pollution", "app_l3_miss_rate",
        "observe_query_miss_rate", "contention_factor", "core_miss_latency"),
    "ecc.encode": (
        _targets("repro.ecc.engine:ECCEngine", "encode_line")
        + _targets("repro.mem.frame", "encode_page", "encode_lines")
        + _targets("repro.core.hashkey", "encode_lines")
    ),
    "virt.merge": _targets(_HYP, "merge_pages"),
    "virt.cow_break": _targets(_HYP, "break_cow"),
    "virt.guest_write": _targets(_HYP, "guest_write"),
    "workloads.build_images": (
        _targets("repro.scenarios.base", "build_vm_images")
        + _targets("repro.sim.runner", "build_vm_images")
    ),
    "workloads.churn": _targets("repro.workloads.memimage:WriteChurner",
                                "tick"),
}

LAYERS = ("cache", "core", "mem", "ksm", "ecc", "sim", "virt", "workloads")

#: Spans the benchmark itself opens around the workload's entry calls.
ROOT_SPANS = ("bench.setup", "bench.run")

#: Boundaries whose first argument (the instance) is kept while a
#: simulation runs, so its public stats objects can be read afterwards.
_TRACKED = frozenset({
    "cache.probe", "core.scan", "mem.read_line", "mem.write_line",
    "mem.dram_access", "ksm.scan", "sim.loop", "virt.merge",
    "virt.cow_break", "virt.guest_write",
})


def resolve_owner(owner):
    """The module or class named by ``"module"`` / ``"module:Class"``."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def self_times(parent, start, end):
    """Self time of every span: its duration minus its children's union.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a
    root.  Child intervals are clipped to their parent's interval and
    merged where they overlap, so the result is never negative.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    duration = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return duration.astype(np.float64)
    p = parent[kids]
    s = np.clip(start[kids], start[p], end[p])
    e = np.clip(end[kids], s, end[p])
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    # Running maximum of earlier ends among siblings.  Ends are taken
    # relative to their parent's start, so a group's values lie in
    # [0, parent duration]; each group is then lifted above every earlier
    # one by the earlier parents' summed durations, and one cumulative
    # maximum over the whole array never carries an end across groups.
    # The lifts stay below (nesting depth) x (trace length), so they do
    # not overflow however large the clock's origin is.
    first = np.ones(p.size, dtype=bool)
    first[1:] = p[1:] != p[:-1]
    heads = np.flatnonzero(first)
    group_len = duration[p[heads]] + 1
    group_lift = np.concatenate(([0], np.cumsum(group_len[:-1])))
    lift = np.repeat(group_lift, np.diff(np.append(heads, p.size)))
    base = start[p]
    running = np.maximum.accumulate(e - base + lift)
    prev_end = np.empty_like(e)
    prev_end[1:] = running[:-1] - lift[1:] + base[1:]
    prev_end[first] = s[first]
    covered = np.maximum(e - np.maximum(s, prev_end), 0)
    union = np.bincount(p, weights=covered, minlength=duration.size)
    return np.maximum(duration - union, 0.0)


class Tracer:
    """Span recorder plus the install/uninstall of the wrappers."""

    def __init__(self, boundaries=None):
        self.boundaries = BOUNDARIES if boundaries is None else boundaries
        self.names = list(ROOT_SPANS) + list(self.boundaries)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.parent = array("q")
        self.name = array("H")
        self.run = array("q")
        self.start = array("q")
        self.end = array("q")
        self.run_id = 0
        self._stack = []
        #: Tallies the wrappers read off return values and stats objects.
        self.counts = Counter()
        #: Boundary name -> {id(instance): instance} for this run.
        self.seen = {n: {} for n in _TRACKED if n in self.boundaries}
        #: Per name id, the ns a wrapper adds to its caller's self time
        #: (``outer``) and to its own span (``inner``); see
        #: :meth:`calibrate`.  Zero until calibrated.
        self.outer_cost_ns = np.zeros(len(self.names))
        self.inner_cost_ns = np.zeros(len(self.names))
        self._installed = []

    # Recording -------------------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(name_id)
        self.run.append(self.run_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, span_name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span the benchmark opens."""
        idx = self._open(self._name_id[span_name])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, span_name, fn):
        name_id = self._name_id[span_name]
        open_, close = self._open, self._close
        seen = self.seen.get(span_name)
        counts = self.counts
        if span_name == "cache.access":
            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                counts["cache.access." + result.level] += 1
                return result
        elif span_name == "sim.cachecost":
            def wrapper(sink, *args, **kwargs):
                before = sink.lines_streamed
                idx = open_(name_id)
                try:
                    return fn(sink, *args, **kwargs)
                finally:
                    close(idx)
                    counts["sim.cachecost.lines_streamed"] += (
                        sink.lines_streamed - before
                    )
        elif seen is not None:
            def wrapper(obj, *args, **kwargs):
                seen[id(obj)] = obj
                idx = open_(name_id)
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        wrapper = functools.wraps(fn)(wrapper)
        wrapper.perfbench_span = span_name
        return wrapper

    def calibrate(self, calls=10000, repeats=3):
        """Measure what each wrapper adds to the self times it records.

        A wrapper's bookkeeping is timed too.  The part outside the
        span's interval (the call into the wrapper, the appends before
        the start is read, the pop and tallies after the end is read)
        lands in the parent's self time; the part inside (the rest of
        ``_open``, the call through to the function, the way back to
        ``_close``) lands in the span's own.  Each wrapper is timed
        around a no-op, inside a root span of a throwaway tracer, against
        the same loop calling the no-op directly: the root's excess per
        call is the outer cost, the no-op spans' median self time the
        inner cost.  Both are medians over ``repeats`` and are taken off
        the self times by :func:`span_totals`.
        """
        for span_name in self.boundaries:
            outer, inner = [], []
            for _ in range(repeats):
                probe = Tracer(self.boundaries)
                probe.call("bench.run", _loop,
                           probe._wrap(span_name, _noop), calls)
                probe.call("bench.run", _loop, _noop, calls)
                cols = probe.columns()
                own = self_times(cols["parent"], cols["start_ns"],
                                 cols["end_ns"])
                outer.append((own[0] - own[-1]) / calls)
                inner.append(np.median(own[1:-1]))
            i = self._name_id[span_name]
            self.outer_cost_ns[i] = max(float(np.median(outer)), 0.0)
            self.inner_cost_ns[i] = float(np.median(inner))

    # Install / uninstall -----------------------------------------------------------

    def install(self):
        """Replace every target with its wrapper (all or nothing)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for span_name, targets in self.boundaries.items():
                for target in targets:
                    owner = resolve_owner(target.owner)
                    original = vars(owner).get(target.attr)
                    if not callable(original):
                        raise AttributeError(
                            f"{target.owner}.{target.attr} is not a "
                            f"function defined there"
                        )
                    setattr(owner, target.attr,
                            self._wrap(span_name, original))
                    self._installed.append((owner, target.attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Put every original back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # Per-run bookkeeping ------------------------------------------------------------

    def next_run(self):
        """Start a new simulation run: new run id, fresh instance sets."""
        self.run_id += 1
        for instances in self.seen.values():
            instances.clear()
        self.counts.clear()

    def columns(self):
        """Span columns as numpy arrays (the written-out trace)."""
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "run": np.frombuffer(self.run, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }


class _Stub:
    """Argument and result of the calibration no-op (see ``Tracer._wrap``)."""

    level = "L1"
    lines_streamed = 0


_STUB = _Stub()


def _noop(*_args, **_kwargs):
    return _STUB


def _loop(fn, calls):
    for _ in range(calls):
        fn(_STUB)


def wrappers_removed():
    """True when no target in :data:`BOUNDARIES` holds a tracer wrapper."""
    for targets in BOUNDARIES.values():
        for target in targets:
            fn = vars(resolve_owner(target.owner)).get(target.attr)
            if hasattr(fn, "perfbench_span"):
                return False
    return True


def span_totals(tracer, runs):
    """Per span name: calls, total and self nanoseconds over ``runs``.

    Self time is net of the wrappers' own cost (:meth:`Tracer.calibrate`):
    each span loses its inner cost and its children's outer costs,
    clipped at zero.
    """
    cols = tracer.columns()
    self_ns = self_times(cols["parent"], cols["start_ns"], cols["end_ns"])
    kids = np.flatnonzero(cols["parent"] >= 0)
    wrapper_ns = tracer.inner_cost_ns[cols["name"]] + np.bincount(
        cols["parent"][kids], weights=tracer.outer_cost_ns[cols["name"][kids]],
        minlength=self_ns.size)
    self_ns = np.maximum(self_ns - wrapper_ns, 0.0)
    keep = np.isin(cols["run"], np.asarray(list(runs), dtype=np.int64))
    names = cols["name"][keep]
    n = len(tracer.names)
    calls = np.bincount(names, minlength=n)
    total = np.bincount(
        names, weights=(cols["end_ns"] - cols["start_ns"])[keep], minlength=n
    )
    own = np.bincount(names, weights=self_ns[keep], minlength=n)
    return {
        name: (int(calls[i]), float(total[i]), float(own[i]))
        for i, name in enumerate(tracer.names)
    }


def _ratio(num, den):
    return num / den if den else 0.0


def stats_counts(tracer):
    """Counts read from the public stats objects the wrappers saw.

    Called once per simulation run, before :meth:`Tracer.next_run`.
    """
    counts = tracer.counts
    out = {}

    def seen(*names):
        instances = {}
        for name in names:
            instances.update(tracer.seen.get(name, {}))
        return list(instances.values())

    buses = seen("cache.probe")
    out["cache.probe.supplied"] = sum(b.supplied_from_cache for b in buses)
    for level in ("L1", "L2", "L3", "MEM"):
        out[f"cache.access.{level}"] = counts[f"cache.access.{level}"]

    engines = [d.engine.stats for d in seen("core.scan")]
    out["core.lines_fetched"] = sum(s.lines_fetched for s in engines)
    out["core.lines_from_network"] = sum(
        s.lines_from_network for s in engines)
    out["core.line_pairs_compared"] = sum(
        s.line_pairs_compared for s in engines)
    cycles = [c for s in engines for c in s.table_cycles]
    out["core.mean_table_cycles"] = float(np.mean(cycles)) if cycles else 0.0

    ctl = [c.stats for c in seen("mem.read_line", "mem.write_line")]
    out["mem.coalesced"] = sum(s.coalesced_requests for s in ctl)
    out["mem.reads"] = sum(s.total_reads for s in ctl)
    drams = [d.stats for d in seen("mem.dram_access")]
    out["mem.row_hits"] = sum(s.row_hits for s in drams)
    out["mem.row_misses"] = sum(s.row_misses for s in drams)
    out["mem.dram_bytes"] = sum(s.total_bytes for s in drams)

    daemons = [d.stats for d in seen("ksm.scan")]
    for field in ("pages_scanned", "merges", "bytes_compared",
                  "checksum_bytes"):
        out[f"ksm.{field}"] = sum(getattr(s, field) for s in daemons)

    out["sim.events"] = sum(q.events_dispatched for q in seen("sim.loop"))
    out["sim.cachecost.lines_streamed"] = counts[
        "sim.cachecost.lines_streamed"]

    hyp = [h.stats for h in seen("virt.merge", "virt.cow_break",
                                 "virt.guest_write")]
    out["virt.merges"] = sum(s.merges for s in hyp)
    out["virt.cow_breaks"] = sum(s.cow_breaks for s in hyp)
    return out


def layer_metrics(totals, counts, n_runs):
    """Per-run layer metrics from :func:`span_totals` and averaged counts.

    ``counts`` holds :func:`stats_counts` summed over the ``n_runs``
    traced runs plus the simulated ``cpu.kernel_share_avg``.
    """
    per = 1.0 / n_runs
    m = {}
    for name in BOUNDARIES:
        calls, _total, own = totals[name]
        m[f"{name}.calls"] = calls * per
        m[f"{name}.self_s"] = own * 1e-9 * per
    c = {k: v * per for k, v in counts.items()}

    access = m["cache.access.calls"]
    m["cache.probe.hit_ratio"] = _ratio(c["cache.probe.supplied"],
                                        m["cache.probe.calls"])
    for level in ("L1", "L2", "L3", "MEM"):
        m[f"cache.access.{level.lower()}_ratio"] = _ratio(
            c[f"cache.access.{level}"], access)

    m["core.lines_fetched"] = c["core.lines_fetched"]
    m["core.line_pairs_compared"] = c["core.line_pairs_compared"]
    m["core.network_ratio"] = _ratio(c["core.lines_from_network"],
                                     c["core.lines_fetched"])
    m["core.mean_table_cycles"] = c["core.mean_table_cycles"]

    m["mem.coalesced_ratio"] = _ratio(c["mem.coalesced"], c["mem.reads"])
    m["mem.row_hit_rate"] = _ratio(c["mem.row_hits"],
                                   c["mem.row_hits"] + c["mem.row_misses"])
    m["mem.dram_bytes"] = c["mem.dram_bytes"]

    for field in ("pages_scanned", "merges", "bytes_compared",
                  "checksum_bytes"):
        m[f"ksm.{field}"] = c[f"ksm.{field}"]
    m["ksm.merge_ratio"] = _ratio(c["ksm.merges"], c["ksm.pages_scanned"])

    m["sim.events"] = c["sim.events"]
    m["sim.host_ms_per_event"] = _ratio(
        totals["sim.loop"][1] * 1e-6 * per, c["sim.events"])
    m["sim.cachecost.lines_streamed"] = c["sim.cachecost.lines_streamed"]

    m["virt.cow_ratio"] = _ratio(c["virt.cow_breaks"], c["virt.merges"])
    m["cpu.kernel_share_avg"] = c["cpu.kernel_share_avg"]

    # Shares of all self time (set-up plus run, net of the wrappers'
    # cost) by layer; the root spans' own is the benchmark's glue.
    all_ns = sum(own for _calls, _total, own in totals.values())
    for layer in LAYERS:
        own = sum(totals[n][2] for n in BOUNDARIES
                  if n.split(".", 1)[0] == layer)
        m[f"{layer}.self_share"] = _ratio(own, all_ns)
    m["bench.self_share"] = _ratio(
        sum(totals[r][2] for r in ROOT_SPANS), all_ns)
    return m
