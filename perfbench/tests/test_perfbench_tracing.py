"""Self time, wrapper lifetime and metric coverage of the traced run."""

import harness
import numpy as np
import pytest
import tracing
from tracing import BOUNDARIES, Target, Tracer, resolve_owner, self_times
from workloads import SteadyWorkload

TINY_PF = SteadyWorkload("tiny_pf", mode="pageforge", pages_per_vm=20,
                         warmup_s=0.002, duration_s=0.002)


def test_self_time_subtracts_union_of_overlapping_children():
    # 0: root [0, 100] with children 1 [10, 40], 2 [30, 60] (overlaps 1)
    # and 3 [90, 130] (runs past the parent, clipped at 100); 4 is a
    # grandchild inside 2; 5 is a second root whose child 6 must not
    # count against root 0.
    parent = [-1, 0, 0, 0, 2, -1, 5]
    start = [0, 10, 30, 90, 35, 200, 210]
    end = [100, 40, 60, 130, 70, 300, 220]
    own = self_times(parent, start, end)
    # Union of root 0's children inside [0, 100]: [10, 60] + [90, 100].
    assert own[0] == 100 - 60
    assert own[1] == 30
    assert own[2] == 30 - 25  # grandchild clipped to [35, 60]
    assert own[3] == 40
    assert own[5] == 100 - 10
    assert own[6] == 10


def test_self_time_is_never_negative():
    parent = [-1, 0, 0, 0]
    start = [0, 0, 0, 5]
    end = [10, 10, 10, 10]
    own = self_times(parent, start, end)
    assert own[0] == 0
    assert np.all(own >= 0)


def _union_self_times(parent, start, end):
    """Reference self times: clip, sort and merge each span's children."""
    kids = {}
    for i, p in enumerate(parent):
        if p >= 0:
            s = max(start[i], start[p])
            kids.setdefault(p, []).append((s, max(min(end[i], end[p]), s)))
    own = []
    for i in range(len(parent)):
        covered, reach = 0, None
        for s, e in sorted(kids.get(i, [])):
            if reach is None or s > reach:
                covered += e - s
                reach = e
            elif e > reach:
                covered += e - reach
                reach = e
        own.append(max(end[i] - start[i] - covered, 0))
    return own


def test_self_time_holds_on_a_large_clock_origin_and_many_parents():
    # Timestamps as perf_counter_ns gives them on a host up for ~12 days,
    # and 40k parent groups: far past where lifting each group by the
    # clock's absolute value would overflow int64.
    rng = np.random.default_rng(5)
    origin = 10**15
    parent, start, end = [], [], []
    for k in range(40_000):
        root = len(parent)
        t0 = origin + 1000 * k
        parent.append(-1)
        start.append(t0)
        end.append(t0 + 500)
        for _ in range(3):
            s = t0 + int(rng.integers(-20, 480))
            parent.append(root)
            start.append(s)
            end.append(s + int(rng.integers(0, 120)))
        child = root + 1
        s = start[child] + int(rng.integers(0, 30))
        parent.append(child)
        start.append(s)
        end.append(s + int(rng.integers(0, 60)))
    own = self_times(parent, start, end)
    assert np.array_equal(own, _union_self_times(parent, start, end))


def test_wrapper_cost_is_taken_off_the_self_times():
    tracer = Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    outer = dict(zip(tracer.names, tracer.outer_cost_ns))
    inner = dict(zip(tracer.names, tracer.inner_cost_ns))
    assert outer["bench.run"] == inner["bench.run"] == 0
    assert all(outer[name] > 0 and inner[name] > 0 for name in BOUNDARIES)

    # One root span with two recorded children: the root loses the two
    # children's outer cost, each child its inner cost, none below zero.
    probe = tracer._wrap("core.table", lambda *_a: None)
    tracer.call("bench.run", lambda: (probe(None), probe(None)))
    cols = tracer.columns()
    raw = self_times(cols["parent"], cols["start_ns"], cols["end_ns"])
    totals = tracing.span_totals(tracer, [0])
    assert totals["core.table"][0] == 2
    assert totals["bench.run"][2] == pytest.approx(
        max(raw[0] - 2 * outer["core.table"], 0.0))
    assert totals["core.table"][2] == pytest.approx(
        sum(max(r - inner["core.table"], 0.0) for r in raw[1:]))


def _originals():
    return {
        (t.owner, t.attr): vars(resolve_owner(t.owner))[t.attr]
        for targets in BOUNDARIES.values() for t in targets
    }


def test_wrappers_are_gone_after_a_traced_run():
    before = _originals()
    session = harness.Session(TINY_PF, {})
    metrics, _samples, tracer = harness.run_traced(session, 11, 0.1)
    assert session.failed == 0
    assert tracing.wrappers_removed()
    assert _originals() == before
    # The wrappers did record while installed.
    assert metrics["core.table.calls"] > 0
    assert metrics["mem.read_line.calls"] > 0
    assert len(tracer.start) > 0


def test_install_is_all_or_nothing():
    before = _originals()
    broken = dict(BOUNDARIES)
    broken["zz.missing"] = (Target("repro.sim.engine:EventQueue",
                                   "no_such_method"),)
    tracer = Tracer(broken)
    with pytest.raises(AttributeError):
        tracer.install()
    assert tracing.wrappers_removed()
    assert _originals() == before


def test_traced_run_reports_every_per_layer_metric_in_benchmark_json():
    session = harness.Session(TINY_PF, {})
    metrics, _samples, _tracer = harness.run_traced(session, 12, 0.1)
    assert set(metrics) == set(harness.declared_units("per_layer"))
