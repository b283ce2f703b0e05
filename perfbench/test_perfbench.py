"""Unit tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``."""

import math

import pytest

from perfbench.run import END_TO_END, sanity_errors
from perfbench.tracing import MAIN_TRACK, Patch, Span, Tracer, layer_budget
from perfbench.workloads import tail_percentile


def test_sanity_gate_rejects_impossible_values():
    units = {"a_s": "s", "share": "share", "rate": "1/s", "gap_s": "s"}
    ok = {"a_s": 1.0, "share": 0.5, "rate": 2.0, "gap_s": -0.1}
    assert sanity_errors(ok, units, signed={"gap_s"}) == []
    assert sanity_errors({**ok, "a_s": -1e-9}, units, signed={"gap_s"})
    assert sanity_errors({**ok, "share": 1.5}, units, signed={"gap_s"})
    assert sanity_errors({**ok, "rate": -1.0}, units, signed={"gap_s"})
    assert sanity_errors({**ok, "rate": 0.0}, units, signed={"gap_s"}, positive=["rate"])
    assert sanity_errors({**ok, "a_s": math.nan}, units, signed={"gap_s"})
    assert sanity_errors(ok, units)  # an unsigned negative duration


def test_sanity_gate_rejects_tail_below_median():
    units = {"p50": "s", "tail": "s"}
    assert sanity_errors({"p50": 2.0, "tail": 1.0}, units, pairs=[("p50", "tail")])
    assert not sanity_errors({"p50": 1.0, "tail": 2.0}, units, pairs=[("p50", "tail")])


def test_end_to_end_metrics_are_positive_by_definition():
    metrics = {name: 1.0 for name in END_TO_END}
    assert sanity_errors(metrics, END_TO_END, positive=list(metrics)) == []
    metrics["goodput_per_s"] = 0.0
    assert sanity_errors(metrics, END_TO_END, positive=list(metrics))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(sorted(range(20))) is None
    pct, value = tail_percentile(list(range(30)))
    assert value == 19 and sum(1 for x in range(30) if x > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def _span(name, layer, start, end, track=MAIN_TRACK):
    return Span(name, layer, start, end, track=track)


def test_layer_budget_charges_self_time_and_sums_to_wall():
    spans = [
        _span("op", "bench", 0.0, 10.0),
        _span("solve", "solvers", 1.0, 9.0),
        _span("apply", "dirac", 2.0, 6.0),
        _span("hop", "kernels", 3.0, 5.0),
    ]
    charged = layer_budget(spans, "op")
    assert charged["bench", "op"] == pytest.approx(2.0)
    assert charged["solvers", "solve"] == pytest.approx(4.0)
    assert charged["dirac", "apply"] == pytest.approx(2.0)
    assert charged["kernels", "hop"] == pytest.approx(2.0)
    assert sum(charged.values()) == pytest.approx(10.0)


def test_layer_budget_splits_time_over_busy_worker_tracks():
    spans = [
        _span("op", "bench", 0.0, 4.0),
        _span("Fleet.run", "fleet", 0.0, 4.0),
        _span("import", "import", 0.0, 2.0, track=1),
        _span("segment", "campaign", 1.0, 3.0, track=2),
    ]
    charged = layer_budget(spans, "op")
    assert charged["import", "import"] == pytest.approx(1.0 + 0.5)
    assert charged["campaign", "segment"] == pytest.approx(0.5 + 1.0)
    assert charged["fleet", "Fleet.run"] == pytest.approx(1.0)
    assert sum(charged.values()) == pytest.approx(4.0)


class _Target:
    def work(self, x):
        return 2 * x


def test_tracer_install_wraps_and_restores():
    seen = []
    tracer = Tracer([Patch(_Target, "work", "kernels", "work",
                           lambda t, s, a, k, out: seen.append(out))])
    original = _Target.__dict__["work"]
    with tracer.install():
        assert _Target().work(3) == 6
    assert _Target.__dict__["work"] is original
    assert seen == [6]
    assert [(s.name, s.layer) for s in tracer.spans] == [("work", "kernels")]
    assert tracer.spans[0].end >= tracer.spans[0].start
