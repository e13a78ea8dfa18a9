"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fig6_wafer --seed 1 --seconds 25 --trace 0

The process started here only orchestrates.  It starts three fresh
interpreters in turn, with BLAS/OpenMP pinned to one thread and a fixed
``PYTHONHASHSEED``.  Each sets up (imports, inputs, warm-up), then runs
ops in a closed loop for a third of ``--seconds``, with ``gc.collect()``
between ops outside the timed window, and checks every output.  Their
ops are pooled and summarised by medians; ``setup_s`` is the median of
the three set-up times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures half
the time untraced and half traced, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
whole run document (every op's latency, the span summary, the output
digest) is written under ``perfbench/.runs/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
WORKLOADS = ("fig6_wafer", "noc_wafer", "emu_wafer", "serve_cold")
#: An untraced run is measured by this many fresh processes in turn, each
#: for an equal share of ``--seconds``; their ops are pooled.  Each also
#: times its own set-up, and ``setup_s`` is the median.
MEASURE_PARTS = 3
#: Part ``k`` runs op indices from ``k * PART_STRIDE``.
PART_STRIDE = 100_000
#: Each measuring process runs at least this many ops, however long they take,
#: so that a run has at least 33 first-run ops for ``op_p10_ms`` and
#: ``op_tail_ms`` (p90).
MIN_OPS_PER_PART = 13
#: Set in every child interpreter before numpy is imported.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measuring process: only these import the library (through ``workloads``),
# so the orchestrating process can report a checkout without it.
# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, traced: bool):
    import workloads
    from spans import NullTracer, Tracer

    cls = {
        "fig6_wafer": workloads.Fig6Wafer,
        "noc_wafer": workloads.NocWafer,
        "emu_wafer": workloads.EmuWafer,
        "serve_cold": workloads.ServeCold,
    }[name]
    return cls(seed, Tracer() if traced else NullTracer())


def run_op(wl, index: int, digests: dict) -> dict:
    """Run, time and check one op.

    A raised exception, a check message, or a repeat whose output
    differs from the first run of the same inputs each fail the op.
    """
    import workloads

    source = wl.input_index(index)
    try:
        wl.prepare(source)
        gc.collect()
        wl.tracer.op = index
        start = time.perf_counter()
        with wl.tracer.span("op"):
            out = wl.op(source)
        latency = time.perf_counter() - start
    except Exception:  # noqa: BLE001 - an op's failure is counted, not fatal
        return {"index": index, "repeat": source != index, "latency_s": None,
                "work": 0.0, "kind": None, "digest": None, "out": None,
                "failures": [traceback.format_exc(limit=4)]}
    failures = list(wl.check(out))
    if wl.tracer.enabled and index < workloads.WARMUP_BASE:
        failures += wl.trace_extra(source, out)
    key = workloads.digest(wl.material(out))
    if digests.setdefault(out.get("target", source), key) != key:
        failures.append(f"op {index}: output differs from the first run of its inputs")
    return {"index": index, "repeat": out.get("repeat", source != index),
            "latency_s": latency, "work": wl.work(out), "kind": wl.kind(out), "digest": key,
            "out": out if index < workloads.COUNTED_OPS else None,
            "failures": failures}


def run_loop(wl, seconds: float, min_ops: int, digests: dict,
             first_index: int = 0) -> list[dict]:
    """Closed loop: the next op starts when the previous one is checked."""
    records: list[dict] = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while time.perf_counter() < deadline or len(records) < min_ops:
        records.append(run_op(wl, index, digests))
        index += 1
    return records


def setup_workload(name: str, seed: int, traced: bool, digests: dict):
    """Build a workload and run its warm-up ops; returns it and the records."""
    import workloads

    wl = make_workload(name, seed, traced)
    wl.setup()
    warm = [run_op(wl, workloads.WARMUP_BASE + w, digests) for w in range(wl.warmup_ops)]
    return wl, warm


def compact(records: list[dict]) -> list[list]:
    """Per-op ``[latency_s, work, repeat, failed, kind]`` rows."""
    return [[r["latency_s"], r["work"], r["repeat"], bool(r["failures"]), r["kind"]]
            for r in records]


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (a multiple of 10), interpolated between
    the sorted samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[pct // 10 - 1]


def summarise(ops: list[list]) -> dict:
    """End-to-end figures over the pooled ops of a run.

    On a shared 2-vCPU VM identical ops ran at two speeds, switching every
    few seconds, and the share of slow time differed from run to run; a
    median follows that share, while the 10th percentile stays at
    the uncontended speed as long as a tenth of a run's ops are.  So the
    latencies are p10 (``op_p10_ms``) and p90 (``op_tail_ms``), and
    ``work_per_s`` is the passing ops' work divided by their time with
    each op charged the p10 latency of its kind (first run or repeat, and
    for ``serve_cold`` the request kind).  The medians and the repeats'
    latencies are recorded beside them.
    """
    ok = [row for row in ops if not row[3]]
    cold = [row[0] for row in ok if not row[2]]
    hits = [row[0] for row in ok if row[2]]
    by_kind: dict = {}
    for row in ok:
        by_kind.setdefault((row[4], row[2]), []).append(row[0])
    busy = sum(len(lat) * percentile(lat, 10) for lat in by_kind.values())
    return {
        "ops": len(ops),
        "cold_ops": len(cold),
        "repeat_ops": len(hits),
        "failed": len(ops) - len(ok),
        "work": sum(row[1] for row in ok),
        "busy_s": busy,
        "work_per_s": sum(row[1] for row in ok) / busy if ok else None,
        "op_p10_ms": 1e3 * percentile(cold, 10) if cold else None,
        "op_p50_ms": 1e3 * statistics.median(cold) if cold else None,
        "op_tail_ms": 1e3 * percentile(cold, 90) if cold else None,
        "hit_p10_ms": 1e3 * percentile(hits, 10) if hits else None,
        "hit_p50_ms": 1e3 * statistics.median(hits) if hits else None,
    }


def run_digest(records: list[dict]) -> tuple[str | None, list[dict]]:
    """Digest of the counted ops' outputs, and those outputs.

    ``None`` when this process did not run the counted ops.
    """
    import workloads

    counted = [r for r in records if r["index"] < workloads.COUNTED_OPS and not r["repeat"]]
    if not counted or any(r["out"] is None for r in counted):
        return None, []
    return workloads.digest([r["digest"] for r in counted]), [r["out"] for r in counted]


def measure(args) -> dict:
    """A measuring process: set up, warm up, run, check.

    Part ``k`` of an untraced run measures op indices from
    ``k * PART_STRIDE``, so the parts of one run see different inputs.
    """
    digests: dict = {}
    wl, warm = setup_workload(args.workload, args.seed, False, digests)
    setup_s = time.perf_counter() - START
    doc: dict = {"setup_s": setup_s, "work_unit": wl.work_unit,
                 "engine_kind": wl.engine_kind}
    seconds = args.seconds / 2 if args.trace else args.seconds / MEASURE_PARTS
    try:
        records = run_loop(wl, seconds, MIN_OPS_PER_PART, digests, args.part * PART_STRIDE)
    finally:
        wl.close()
    doc["ops"] = compact(records)
    doc["digest"], counted = run_digest(records)
    every = warm + records
    if args.trace:
        traced_wl, traced_warm = setup_workload(args.workload, args.seed, True, digests)
        try:
            traced_wl.tracer.spans.clear()
            traced = run_loop(traced_wl, seconds, MIN_OPS_PER_PART, digests)
            summary = traced_wl.tracer.summary()
            layer = traced_wl.layer_metrics(summary, len(traced))
        finally:
            traced_wl.close()
        layer.update(traced_wl.counts(counted) if counted else {})
        untraced = summarise(doc["ops"])["work_per_s"]
        doc["traced_ops"] = compact(traced)
        traced_rate = summarise(doc["traced_ops"])["work_per_s"]
        layer["trace.overhead_pct"] = (
            100.0 * (1.0 - traced_rate / untraced) if untraced and traced_rate else None
        )
        doc["spans"] = summary
        doc["span_rows"] = traced_wl.tracer.spans
        doc["per_layer"] = layer
        every += traced_warm + traced
    doc["attempted"] = len(every)
    doc["failed"] = sum(1 for r in every if r["failures"])
    doc["failures"] = [f for r in every for f in r["failures"]][:20]
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return doc


# ---------------------------------------------------------------------------
# orchestrating process
# ---------------------------------------------------------------------------


def child(args, part: int, timeout: float) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_CACHE_DIR"] = str(RUNS / "repro_cache")
    cmd = [sys.executable, str(HERE / "run.py"), "--child", str(part),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measuring process {part} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def combine(args, parts: list[dict]) -> dict:
    """One run document from the measuring processes' documents."""
    first = parts[0]
    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "work_unit": first["work_unit"],
        "engine_kind": first["engine_kind"], "digest": first["digest"],
        "setup_s_samples": [part["setup_s"] for part in parts],
        "setup_s": statistics.median(part["setup_s"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "run": summarise([row for part in parts for row in part["ops"]]),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "failures": [f for part in parts for f in part["failures"]][:20],
        "noise_controls": {
            "env": PINNED_ENV, "gc_collect_between_ops": True,
            "warmup_ops_excluded": True, "summary": "median",
            "measuring_processes": len(parts), "min_ops_per_process": MIN_OPS_PER_PART,
        },
        "parts": parts,
    }
    doc["fail_ratio"] = doc["failed"] / doc["attempted"]
    if args.trace:
        doc["traced"] = summarise(first["traced_ops"])
        for key in ("per_layer", "spans", "span_rows"):
            doc[key] = first[key]
    return doc


def report(doc: dict, spec: dict) -> dict:
    """Print the human-readable table; return the result line's metrics."""
    trace = doc["trace"]
    run = doc["run"]
    if trace:
        section = spec["per_layer"]
        values = {m["name"]: doc["per_layer"].get(m["name"], 0.0) for m in section}
    else:
        section = spec["end_to_end"]
        values = {m["name"]: run.get(m["name"]) for m in section}
        values["setup_s"] = doc["setup_s"]
        values["peak_rss_mb"] = doc["peak_rss_mb"]
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in section}
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {trace}")
    print(f"engine   {doc['engine_kind']}")
    print(f"work     {doc['work_unit']}; {run['ops']} timed ops ({run['cold_ops']} first "
          f"runs, {run['repeat_ops']} repeats); op_tail_ms is p90 of "
          f"{run['cold_ops']}")
    if not trace:
        print(f"recorded op_p50_ms {run['op_p50_ms']:.3f}, hit_p10_ms "
              f"{run['hit_p10_ms']:.3f}, hit_p50_ms {run['hit_p50_ms']:.3f}")
    print(f"checks   {doc['attempted']} ops attempted, {doc['failed']} failed, "
          f"fail_ratio {doc['fail_ratio']:.4f}; output digest {doc['digest']}")
    for failure in doc["failures"][:5]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}")
    if trace:
        print(f"spans    {len(doc['span_rows'])} recorded; self time per op (ms):")
        ops = max(doc["traced"]["ops"], 1)
        for name, entry in sorted(doc["spans"].items()):
            print(f"  {name:48s} {1e3 * entry['self_s'] / ops:12.3f}  "
                  f"({entry['count']} spans)")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>16.6f} {metric['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, dest="part", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.part is not None:
        print(json.dumps(measure(args), default=repr))
        return 0

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of {WORKLOADS}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = load_spec()
    RUNS.mkdir(exist_ok=True)
    count = 1 if args.trace else MEASURE_PARTS
    try:
        parts = [child(args, part, 60 + args.seconds) for part in range(count)]
        doc = combine(args, parts)
        out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(doc, indent=1, default=repr))
        metrics = report(doc, spec)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
