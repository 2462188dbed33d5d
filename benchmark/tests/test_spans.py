"""Span recording, patching in the calling module, and self-time arithmetic."""

import sys
import types

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_direct_children():
    tracer = spans.Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: (leaf(), leaf()), "mid")
    root = tracer.wrap(lambda: (mid(), leaf()), "root")
    root()
    # clock ticks: root 1, mid 2, leaf 3-4, leaf 5-6, mid end 7, leaf 8-9, root end 10
    by_name = {}
    for s, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        by_name.setdefault(s.name, []).append((s.end - s.start, own))
    assert by_name["root"] == [(9.0, 9.0 - 5.0 - 1.0)]
    assert by_name["mid"] == [(5.0, 5.0 - 2.0)]
    assert by_name["leaf"] == [(1.0, 1.0)] * 3
    assert sum(spans.self_times(tracer.spans)) == 9.0


def test_layer_totals_sum_calls_times_and_counters():
    tracer = spans.Tracer(clock=FakeClock())
    inner = tracer.wrap(lambda x: x, "inner", lambda a, k, r: {"items": r})
    outer = tracer.wrap(lambda: inner(2) + inner(3), "outer")
    outer()
    outer()
    totals = spans.layer_totals(tracer.spans)
    assert totals["inner"] == {"calls": 4, "busy_s": 4.0, "self_s": 4.0, "items": 10}
    assert totals["outer"]["calls"] == 2
    assert totals["outer"]["busy_s"] == 2 * 5.0
    assert totals["outer"]["self_s"] == 2 * 3.0
    assert {s.op for s in tracer.spans} == {0, 1}


def test_spans_close_when_the_call_raises():
    tracer = spans.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "boom")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans[0].end > tracer.spans[0].start
    assert tracer._stack == []


def test_install_patches_the_calling_module_only(monkeypatch):
    callee = types.ModuleType("fake_callee")
    callee.work = lambda: 1
    caller = types.ModuleType("fake_caller")
    caller.work = callee.work                      # "from fake_callee import work"
    exec("def go():\n    return work()\n", caller.__dict__)
    monkeypatch.setitem(sys.modules, "fake_callee", callee)
    monkeypatch.setitem(sys.modules, "fake_caller", caller)

    tracer = spans.Tracer()
    tracer.install((("fake_caller", "work", "callee.work", None),))
    caller.go()
    callee.work()
    tracer.uninstall()
    caller.go()
    assert [s.name for s in tracer.spans] == ["callee.work"]
    assert caller.work is callee.work


def test_every_patch_target_exists_in_the_package():
    for owner_path, attr, _, _ in spans.PATCHES:
        owner = spans._resolve(owner_path)
        assert callable(owner.__dict__[attr]), (owner_path, attr)
