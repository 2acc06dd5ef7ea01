"""Self-test of the benchmark's tracer.

    python3 perfbench/test_tracer.py        (or: python3 -m pytest perfbench/test_tracer.py)
"""

from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


class Boom(Exception):
    pass


def _fake_package():
    """fakepkg.a defines f, g and h; fakepkg.b imports f and g by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return a.g(x) + [x]

    def g(x):
        return [x]

    def h():
        raise Boom("from h")

    a.f, a.g, a.h = f, g, h
    b.f, b.g = f, g
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    return a, b


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _check(cond, message):
    if not cond:
        raise AssertionError(message)


def test_results_and_exceptions_pass_through():
    a, b = _fake_package()
    tracer = Tracer(package="fakepkg")
    tracer.install([Target("fakepkg.a", "f", "a.f"), Target("fakepkg.a", "h", "a.h")])
    try:
        sentinel = object()
        _check(b.f(sentinel) == [sentinel, sentinel], "return value changed")
        _check(b.f(sentinel)[0] is sentinel, "return value copied")
        try:
            a.h()
        except Boom as exc:
            _check(str(exc) == "from h", "exception changed")
        else:
            raise AssertionError("exception swallowed")
        _check(not tracer._stack, "a span was left open after an exception")
        _check(tracer.self_times()["a.h"][0] == 1, "raising call not recorded")
    finally:
        tracer.uninstall()


def test_wraps_every_namespace_and_restores():
    a, b = _fake_package()
    f, g = a.f, a.g
    tracer = Tracer(package="fakepkg")
    tracer.install([Target("fakepkg.a", "f", "a.f"), Target("fakepkg.a", "g", "a.g")])
    _check(a.f is not f and b.f is a.f and b.g is a.g, "an importing namespace was missed")
    b.f(1)
    b.g(2)
    calls = {name: c for name, (c, _) in tracer.self_times().items()}
    _check(calls == {"a.f": 1, "a.g": 2}, f"unexpected calls {calls}")
    tracer.uninstall()
    _check(a.f is f and b.f is f and a.g is g and b.g is g, "originals not restored")


def test_absent_names_are_reported():
    _fake_package()
    tracer = Tracer(package="fakepkg")
    tracer.install([Target("fakepkg.a", "gone", "a.gone"),
                    Target("fakepkg.nomodule", "f", "x.f"),
                    Target("fakepkg.a", "f", "a.f")])
    tracer.uninstall()
    _check(tracer.absent == ["fakepkg.a.gone", "fakepkg.nomodule.f"],
           f"absent names {tracer.absent}")
    metrics = layers.per_layer_metrics(tracer, 1.0, 1.0)
    _check(set(metrics) == {m["name"] for m in layers.per_layer_spec()},
           "per-layer metrics differ from the declared list")
    _check(metrics["trace.absent_spans"]["value"] == 2, "absent count")


def test_benchmark_json_declares_the_reported_per_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    _check(declared == layers.per_layer_spec(), "BENCHMARK.json per_layer is out of date")


def test_self_times_sum_to_root_span():
    a, b = _fake_package()
    tracer = Tracer(package="fakepkg", clock=FakeClock())
    tracer.install([Target("fakepkg.a", "f", "a.f"), Target("fakepkg.a", "g", "a.g")])
    try:
        b.f(0)          # f opens at 1, g spans 2..3, f closes at 4
    finally:
        tracer.uninstall()
    times = tracer.self_times()
    _check(times == {"a.f": (1, 2.0), "a.g": (1, 1.0)}, f"self times {times}")
    _check(tracer.root_balance() == 0.0, "self times do not sum to the root span")


def test_counter_hook_errors_do_not_change_results():
    a, b = _fake_package()

    def bad_hook(tracer, args, kwargs, result):
        raise ValueError("hook")

    tracer = Tracer(package="fakepkg")
    tracer.install([Target("fakepkg.a", "g", "a.g", count=bad_hook)])
    try:
        _check(b.g(5) == [5], "hook failure changed the result")
    finally:
        tracer.uninstall()
    _check(len(tracer.hook_errors) == 1, "hook failure not recorded")


def test_szegocap_targets_install():
    """The declared targets wrap the names other szegocap modules imported
    (the harness's quantize, for example)."""
    import szegocap.harness as harness
    import szegocap.operators as operators
    quantize = operators.quantize
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        _check(harness.quantize is operators.quantize is not quantize,
               "harness.quantize not wrapped")
    finally:
        tracer.uninstall()
    _check(harness.quantize is quantize, "harness.quantize not restored")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
