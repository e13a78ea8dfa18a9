"""The benchmark's output checks count a corrupted output as a failure.

Run from the root of the repository with either of::

    python3 -m pytest perfbench/test_checks.py
    python3 perfbench/test_checks.py
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def _one_op(wl, index=0):
    wl.setup()
    try:
        return wl.op(index)
    finally:
        wl.close()


def test_fig6_corruptions_fail():
    wl = workloads.Fig6Wafer(3, NullTracer())
    out = _one_op(wl)
    assert wl.check(out) == []
    swapped = copy.deepcopy(out)
    single, dual = swapped["maps"][4][0]
    swapped["maps"][4][0] = [dual, single]          # dual > single on one map
    assert wl.check(swapped)
    shape = copy.deepcopy(out)
    shape["stats"][4][2] = 11.0                     # single network < 12% at 5 faults
    assert wl.check(shape)


def test_noc_corruptions_fail():
    wl = workloads.NocWafer(3, NullTracer())
    out = _one_op(wl)
    assert wl.check(out) == []
    for field, delta in (("delivered", -1), ("dropped_in_flight", 1),
                         ("responses_delivered", 1), ("in_flight", 1)):
        bad = copy.deepcopy(out)
        bad["runs"][1][field] += delta
        assert wl.check(bad), field
    bad = copy.deepcopy(out)
    bad["runs"][0]["flit_conservation_ok"] = False
    assert wl.check(bad)


def test_emu_corruptions_fail():
    wl = workloads.EmuWafer(3, NullTracer())
    out = _one_op(wl)
    assert wl.check(out) == []
    bad = copy.deepcopy(out)
    vertex = next(v for v, d in bad["distance"].items() if d > 0)
    bad["distance"][vertex] += 1
    assert wl.check(bad)
    bad = copy.deepcopy(out)
    bad["wave_received"] -= 1
    assert wl.check(bad)
    bad = copy.deepcopy(out)
    bad["oracle_checks"] = 0
    assert wl.check(bad)


def test_serve_failed_result_fails():
    wl = workloads.ServeCold(3, NullTracer())
    out = {"target": 0, "kind": 0, "outcome": "queued", "repeat": False,
           "final": {"state": "done", "result": {"ok": False}}}
    assert wl.check(out)
    out["final"] = {"state": "failed", "error": "boom"}
    assert wl.check(out)


def test_corrupted_op_is_counted_in_failed():
    wl = workloads.Fig6Wafer(3, NullTracer())
    real_op = wl.op

    def corrupted(index):
        out = real_op(index)
        out["maps"][0][0] = [50.0, 60.0]
        return out

    wl.op = corrupted
    digests = {}
    records = [run.run_op(wl, index, digests) for index in (0, 1)]
    assert all(record["failures"] for record in records)
    assert run.summarise(run.compact(records))["failed"] == 2


def test_repeat_with_different_output_is_counted():
    wl = workloads.Fig6Wafer(3, NullTracer())
    digests = {}
    assert run.run_op(wl, 0, digests)["failures"] == []
    digests[0] = "not the digest of op 0"
    repeat = workloads.REPEAT_EVERY - 1               # repeats op 0's inputs
    assert run.run_op(wl, repeat, digests)["failures"]


def test_span_self_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.aggregate("folded", 0.0)
    summary = tracer.summary()
    outer = summary["outer"]
    assert abs(outer["self_s"] - (outer["total_s"] - summary["inner"]["total_s"])) < 1e-9
    assert summary["folded"]["count"] == 1


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
