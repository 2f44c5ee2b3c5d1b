"""Tests of the benchmark's span recorder.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def test_self_and_inclusive_times():
    # a(0..10) > b(1..4) > a(2..3), and a > c(5..9)
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]]
    assert tracing._self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing._inclusive(spans, {"a"}) == 10.0          # the nested a is not counted twice
    assert tracing._inclusive(spans, {"b", "c"}) == 7.0


def test_a_call_with_no_work_below_is_a_cache_hit():
    name = "classes.conjugacy_classes"
    spans = [[name, 0.0, 2.0, -1], ["perm_core.PermGroup._raw_elements", 0.5, 1.5, 0],
             [name, 3.0, 3.1, -1]]
    assert tracing._cache_misses(spans, name) == (2, 1)


def _cli(argv):
    import regula.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = regula.cli.main(argv)
    return code, out.getvalue()


def test_report_is_identical_with_tracing_on_and_off():
    import regula.classes
    import regula.radicals

    original = regula.classes.conjugacy_classes
    plain = _cli(["verify", "numtheory"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # an alias imported by another module is traced as well
        assert regula.radicals.conjugacy_classes is regula.classes.conjugacy_classes
        assert regula.classes.conjugacy_classes.__wrapped__ is original
        traced = _cli(["verify", "numtheory"])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert regula.classes.conjugacy_classes is original
    assert regula.radicals.conjugacy_classes is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "suites.run_suite"} <= names
    assert any(name.startswith("numtheory.") for name in names)
    layers = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert layers["numtheory.calls"] > 0
    assert abs(sum(layers[f"{m}.self_s"] for m in tracing.MODULES)
               - sum(end - start for _, start, end, parent in tracer.spans if parent < 0)) < 1e-6
