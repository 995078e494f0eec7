"""The repository benchmark: co-existing schema versions under load.

Run from the root of a checkout::

    python3 perfbench/run.py --workload point-local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` makes the separate traced pass that
yields the per-layer metrics.  Both check the database against the
expected state afterwards.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Earlier lines
are a readable report; ``.perfbench_run/`` keeps each run's report and,
for traced runs, its spans.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Wall-clock budget of the single-client layer measurements.
LAYER_BUDGET_S = 4.0
#: Loop length of each ``--self-test`` run.
SELF_TEST_SECONDS = 2
#: Blocks of the timed loop (see :func:`block_latency`).  The machine
#: switches between a fast and a slow state every few seconds; a block
#: this short mostly sits in one state, as do the reference measurements
#: right before and after it.
BLOCKS = 20
#: Point reads over TCP that the traced run times for the wire layer.
WIRE_SECONDS = 2.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def warmup_for(seconds: float) -> float:
    return min(1.0, 0.1 * seconds)


class Phases:
    """Wall-clock seconds of each phase of a run, kept in the report."""

    def __init__(self, report: dict):
        self.out = report.setdefault("phase_s", {})
        self.last = time.perf_counter()

    def __call__(self, name: str) -> None:
        now = time.perf_counter()
        self.out[name] = round(now - self.last, 3)
        self.last = now


def block_latency(clients, kind: str, q: int, factors=None) -> float:
    """A latency percentile robust to a short stall of the machine.

    Each client keeps its percentile per block of the timed loop (``q``
    is 0 for the p50, 1 for the p99), scaled by the block's reference
    factor when ``factors`` is given; its value is their median over the
    blocks, and the workload's value is the mean over its clients, so
    each pinned version weighs the same however fast its client runs.
    """
    values = []
    for client in clients:
        stats = [block[kind][q] * (factors[index] if factors else 1.0)
                 for index, block in enumerate(client.block_stats) if kind in block]
        if stats:
            values.append(statistics.median(stats))
    return statistics.fmean(values) if values else 0.0


def block_throughput(clients, loop: "Loop", factors=None) -> float:
    """The median over the blocks of the statements completed per second."""
    return statistics.median(
        sum(client.block_completed[index] for client in clients) / (end - start)
        / (factors[index] if factors else 1.0)
        for index, (start, end) in enumerate(loop.windows))


@dataclass
class Loop:
    """What :func:`timed_loop` measured besides the clients' blocks."""

    windows: list[tuple[float, float]] = field(default_factory=list)
    #: Per block, the mean of the reference factors measured right
    #: before and right after it.
    factors: list[float] = field(default_factory=list)
    #: The short probes of the :class:`ProbeLog`, each scaled by the mean
    #: of the factors measured right before and after its probes.
    scaled: dict[str, list[float]] = field(default_factory=lambda: {
        "scan_s": [], "evolve_s": []})


def timed_loop(wl, engine, backend, clients, model, seed: int, seconds: float,
               log, reference, *, traced: bool) -> Loop:
    """Run the workload's clients for ``seconds`` in ``BLOCKS`` blocks.
    Each client reduces a block's samples to its percentiles when the
    block ends.

    Between blocks the clients pause for the probes their mix lacks:
    scans, and an evolution cycle (with the two moves after
    ``probe_move_cycles`` blocks spread over the run), so the probes
    sample the whole run rather than one moment.  The machine-speed
    reference is measured right before and after each block, after the
    scans, and around each move.  A traced run adds one block, outside
    the measured ones, in which a DDL thread moves the data while the
    clients keep running; its samples stay with the clients.
    """
    import scenario as sc

    ddl = sc.DdlClient(engine, backend, model, seed, log, reference, progress=traced)
    move_after = {round((k + 1) * BLOCKS / wl.probe_move_cycles) - 1
                  for k in range(wl.probe_move_cycles)}
    loop = Loop()

    def scale(name: str, since: int, factor: float) -> None:
        loop.scaled[name].extend(s * factor for s in getattr(log, name)[since:])

    try:
        before = reference.factor()
        for block in range(BLOCKS):
            warmup = warmup_for(seconds) if block == 0 else 0.0
            loop.windows.append(sc.run_clients(clients, seconds / BLOCKS, warmup))
            after = reference.factor()
            loop.factors.append((before + after) / 2)
            for client in clients:
                client.end_block()
            mark = len(log.scan_s)
            if not wl.scan_share:
                ddl.scans(sc.SCANS_PER_BLOCK)
            middle = reference.factor() if not wl.scan_share else after
            scale("scan_s", mark, (after + middle) / 2)
            mark = len(log.evolve_s)
            ddl.cycle(move=block in move_after)
            before = reference.factor()
            scale("evolve_s", mark, (middle + before) / 2)
        if traced:
            sc.run_clients(clients, seconds / BLOCKS, 0.0,
                           lambda window: sc.evolution_job(ddl, window))
        return loop
    finally:
        ddl.close()


def p50(samples, scale: float) -> float:
    return statistics.median(samples) * scale if samples else 0.0


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def run_timed(wl, seed: int, seconds: float, workdir: Path, report: dict) -> dict:
    import scenario as sc
    from reference import NOMINAL_US, Reference

    phase = Phases(report)
    reference = Reference()
    orders, stock = sc.generate_rows(wl, seed)
    model = sc.model_from_rows(orders)
    # The memory figure is what set-up and serving add on top of the
    # interpreter, the program's modules and the benchmark's inputs.
    gc.collect()
    harness_mb = sc.rss_mb()
    sc.reset_rss_peak()
    setups: list[float] = []
    setup_factors = [reference.factor()]  # before and after each set-up
    for index in range(wl.setups):
        path = workdir / f"orders-{index}.db"
        begun = time.perf_counter()
        engine, backend, _ = sc.build_database(path, orders, stock)
        pin = wl.pins[0]
        conn = sc.connect(engine, backend, pin)
        try:
            conn.execute(sc.statements(pin, sc.tables(pin)[0])["read"], (1,)).fetchall()
        finally:
            conn.close()
        setups.append(time.perf_counter() - begun)
        setup_factors.append(reference.factor())
        if index < wl.setups - 1:
            backend.close()
            sc.remove_database(path)
    sc.check_loaded(engine, backend, model)
    report["workload"] = sc.describe(wl, database_bytes(path))
    phase("setup")

    conns = [sc.connect(engine, backend, pin) for pin in wl.pins]
    clients = [sc.Client(i, pin, conns[i], model, wl, seed) for i, pin in enumerate(wl.pins)]
    log = sc.ProbeLog()
    try:
        loop = timed_loop(wl, engine, backend, clients, model, seed, seconds, log,
                          reference, traced=False)
    finally:
        for conn in conns:
            conn.close()
        reference.close()
    peak_mb = sc.rss_peak_mb()
    report["memory_mb"] = {
        "peak_rss_mb": "VmHWM over set-up and loop minus the RSS before set-up",
        "vmhwm": peak_mb, "before_setup": harness_mb,
    }
    phase("loop_and_probes")
    problems = finish(engine, backend, model, clients)
    phase("check")

    def timings(scaled: bool) -> dict:
        """A block of statements, a probe, a move or a set-up is scaled by
        the mean of the factors measured right before and after it."""
        factors = loop.factors if scaled else None
        probes = loop.scaled if scaled else vars(log)
        moves = [seconds * (factor if scaled else 1.0)
                 for seconds, factor in zip(log.move_s, log.move_factors)]
        setup_scaled = [
            seconds * ((before + after) / 2 if scaled else 1.0)
            for seconds, before, after in zip(setups, setup_factors, setup_factors[1:])]
        scan = (block_latency(clients, "scan", 0, factors) if wl.scan_share
                else p50(probes["scan_s"], 1.0))
        return {
            "ops_per_s": block_throughput(clients, loop, factors),
            "read_p50_us": block_latency(clients, "read", 0, factors) * 1e6,
            "write_p50_us": block_latency(clients, "write", 0, factors) * 1e6,
            "range_p50_us": block_latency(clients, "range", 0, factors) * 1e6,
            "scan_p50_ms": scan * 1e3,
            "evolve_p50_ms": p50(probes["evolve_s"], 1e3),
            "materialize_p50_s": p50(moves, 1.0),
            "setup_s": statistics.median(setup_scaled),
        }

    metrics = timings(scaled=True)
    metrics["peak_rss_mb"] = peak_mb - harness_mb
    report["as_measured"] = timings(scaled=False)
    report["reference_us"] = {"nominal": NOMINAL_US, "samples": reference.samples_us}
    report["samples"] = {
        "ops_per_s": sum(sum(c.block_completed) for c in clients),
        "read": sum(c.sample_counts["read"] for c in clients),
        "write": sum(c.sample_counts["write"] for c in clients),
        "range": sum(c.sample_counts["range"] for c in clients),
        "scan": (sum(c.sample_counts["scan"] for c in clients) if wl.scan_share
                 else len(log.scan_s)),
        "evolve": len(log.evolve_s), "materialize": len(log.move_s),
        "setup": len(setups),
    }
    report["scan_source"] = "mix" if wl.scan_share else "ddl client between blocks"
    report["setup_samples_s"] = setups
    report["block_read_p50_us"] = [
        [round(block["read"][0] * 1e6, 2) for block in client.block_stats if "read" in block]
        for client in clients]
    report["block_factors"] = [round(factor, 4) for factor in loop.factors]
    missing = [k for k, n in report["samples"].items() if n == 0]
    if missing:
        problems.append(f"no samples for {missing}")
    return summarize(metrics, clients, log, problems)


def database_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(f"{path}{suffix}")
        for suffix in ("", "-wal")
        if os.path.exists(f"{path}{suffix}")
    )


def finish(engine, backend, model, clients) -> list[str]:
    """Check the database against the expected state, then stop serving."""
    import scenario as sc

    for client in clients:
        client.merge_into(model)
    problems = [m for client in clients for m in client.mismatches]
    try:
        problems += sc.check_database(engine, backend, model)
    finally:
        backend.close()
    return problems


def summarize(metrics: dict, clients, log, problems: list[str]) -> dict:
    attempted = sum(c.attempted for c in clients) + log.attempted
    failed = sum(c.failed for c in clients) + log.failed
    errors = [e for c in clients for e in c.errors] + log.errors
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "errors": errors[:10]}


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------


def _histogram_delta(before: dict, after: dict, name: str) -> dict[str, tuple]:
    """``{label: (count, sum)}`` added between two registry snapshots."""

    def series(snapshot):
        out = {}
        for entry in snapshot.get(name, {}).get("series", []):
            label = ",".join(str(v) for v in entry["labels"].values())
            out[label] = (entry["count"], entry["sum"])
        return out

    old, new = series(before), series(after)
    return {label: (count - old.get(label, (0, 0.0))[0],
                    total - old.get(label, (0, 0.0))[1])
            for label, (count, total) in new.items()}


def _mean_ms(delta: tuple) -> float:
    count, total = delta
    return total / count * 1e3 if count else 0.0


def run_traced(wl, seed: int, seconds: float, workdir: Path, report: dict) -> dict:
    import repro
    import scenario as sc
    from layers import (REMOTE_GAP_S, SPAN_TOLERANCE_S, LayerProbe,
                        SpanRecorder, model_rowids, wire_reads)
    from reference import Reference

    phase = Phases(report)
    orders, stock = sc.generate_rows(wl, seed)
    path = workdir / "orders.db"
    engine, backend, parts = sc.build_database(path, orders, stock)
    report["workload"] = sc.describe(wl, database_bytes(path))
    copy = workdir / "recover.db"
    sc.copy_database(path, copy)
    begun = time.perf_counter()
    recovered = repro.open(str(copy), create=False)
    recover_s = time.perf_counter() - begun
    recovered.live_backend.close()
    sc.remove_database(copy)

    model = sc.model_from_rows(orders)
    sc.check_loaded(engine, backend, model)
    probe = LayerProbe(engine, backend, path, model_rowids(model), wl.pins, seed,
                       LAYER_BUDGET_S)
    probe.run()
    model = sc.snapshot_model(engine, backend, orders, probe.increments)
    phase("setup_and_layers")

    recorder = SpanRecorder(remote=False)
    conns = [sc.connect(engine, backend, pin, trace=True) for pin in wl.pins]
    clients = [sc.Client(i, pin, conns[i], model, wl, seed, tracer=recorder)
               for i, pin in enumerate(wl.pins)]
    log = sc.ProbeLog()
    reference = Reference()
    try:
        before = conns[0].stats()
        timed_loop(wl, engine, backend, clients, model, seed, seconds, log,
                   reference, traced=True)
        after = conns[0].stats()
    finally:
        for conn in conns:
            conn.close()
        reference.close()
    phase("loop_and_probes")
    problems = finish(engine, backend, model, clients)
    phase("check")

    # The wire layer: the checked file served by python -m repro.server,
    # point reads from one traced TCP client.
    wire = SpanRecorder(remote=True)
    server = sc.Server(path, ROOT)
    try:
        remote = repro.connect_remote(server.host, server.port, wl.pins[0],
                                      autocommit=True, trace=True)
        try:
            wire_reads(remote, wl.pins[0], model_rowids(model), seed, WIRE_SECONDS, wire)
        finally:
            remote.close()
    finally:
        server.stop()
    wire.check_remote_gap()
    wire_layers = wire.medians_us()
    phase("wire")

    spans_dir = ROOT / ".perfbench_run" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_file = spans_dir / f"{wl.name}-seed{seed}.jsonl"
    recorder.write(spans_file)
    wire.write(spans_file, append=True)
    report["spans_file"] = str(spans_file.relative_to(ROOT))
    report["traced_statements"] = recorder.statements + wire.statements
    violations = recorder.violations + wire.violations
    report["layer_sum"] = {
        "rule": "children of a span end within their parent; in process the "
        "statement span lies inside cursor.execute; over TCP wire + engine "
        "fits in the benchmark's timing of cursor.execute, the median "
        "remainder is at most remote_gap_us, and the server statement span "
        "fits in engine_ms",
        "tolerance_us": SPAN_TOLERANCE_S * 1e6,
        "remote_gap_us": REMOTE_GAP_S * 1e6,
        "remote_gap_median_us": wire_layers.get("server.call_gap_us", 0.0),
        "violations": violations,
    }
    problems += violations

    hits = after["plan_cache"]["hits"] - before["plan_cache"]["hits"]
    misses = after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
    transitions = _histogram_delta(before["metrics"], after["metrics"],
                                   "repro_transition_duration_seconds")
    lock_wait = _histogram_delta(before["metrics"], after["metrics"],
                                 "repro_rwlock_write_wait_seconds")
    # The clients' samples left are those of the block with the moves.
    in_moves = [d for client in clients
                for begun, d in zip(client.started["read"], client.samples["read"])
                if any(start <= begun + d <= end for start, end in log.move_windows)]
    progress = log.move_progress or [(0.0, 0.0)]
    layers = recorder.medians_us()
    metrics = dict(probe.metrics)
    metrics.update({
        # Too unsteady from run to run on a shared 2-core machine to gate
        # a change (about +-20%), so the traced pass reports them.
        "read_p99_us": block_latency(clients, "read", 1) * 1e6,
        "write_p99_us": block_latency(clients, "write", 1) * 1e6,
        "server.wire_us": wire_layers.get("server.wire_us", 0.0),
        "server.engine_us": wire_layers.get("server.engine_us", 0.0),
        "sql.plan_us": layers.get("sql.plan_us", 0.0),
        "sql.execute_us.read": layers.get("sql.execute_us.read", 0.0),
        "sql.execute_us.write": layers.get("sql.execute_us.write", 0.0),
        "sql.self_us": layers.get("sql.self_us", 0.0),
        "sql.plancache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sql.plancache.lookups": hits + misses,
        "sql.replans_per_cycle": misses / max(1, log.cycles),
        "engine.transition_ms.evolve": _mean_ms(transitions.get("evolve", (0, 0.0))),
        "engine.transition_ms.materialize": _mean_ms(
            transitions.get("materialize", (0, 0.0))),
        "engine.transition_ms.drop": _mean_ms(transitions.get("drop", (0, 0.0))),
        "engine.write_lock_wait_ms": _mean_ms(lock_wait.get("", (0, 0.0))),
        "online.chunks": statistics.median(c for c, _ in progress),
        "online.rows": statistics.median(r for _, r in progress),
        "online.fg_read_p99_us": sc.percentile(in_moves, 0.99) * 1e6,
        "setup.build_s": parts["build_s"],
        "setup.attach_s": parts["attach_s"],
        "setup.recover_s": recover_s,
        "machine.reference_us": statistics.median(reference.samples_us),
    })
    report["samples"] = dict(probe.detail["samples"])
    report["samples"].update({name: len(v) for name, v in recorder.layers.items()})
    report["samples"].update({name: len(v) for name, v in wire.layers.items()})
    report["samples"].update({
        "online.fg_read_p99_us": len(in_moves),
        "traced_reads": sum(c.sample_counts["read"] for c in clients),
        "moves": len(log.move_s), "plan_cache_lookups": hits + misses,
    })
    report["physical_table"] = probe.detail["physical_table"]
    report["counts_on"] = probe.detail["counts_on"]
    report["fig8_paper_reference"] = probe.detail["fig8_paper_reference"]
    report["scanning_shapes"] = probe.detail["scanning_shapes"]
    result = summarize(metrics, clients, log, problems)
    result["metrics"]["failed_ratio"] = (
        result["failed"] / result["attempted"] if result["attempted"] else 0.0)
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def emit(spec: dict, wl_name: str, seed: int, trace: int, result: dict,
         report: dict) -> None:
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    produced = result["metrics"]
    if set(produced) != set(units):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(units) - set(produced))}, "
            f"extra {sorted(set(produced) - set(units))}")
    correct = not result["problems"]
    report.update({"workload_name": wl_name, "seed": seed, "trace": trace,
                   "problems": result["problems"], "errors": result["errors"]})
    out_dir = ROOT / ".perfbench_run" / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    report_file = out_dir / f"{wl_name}-seed{seed}-trace{trace}.json"
    with open(report_file, "w", encoding="utf-8") as out:
        json.dump({"report": report, "metrics": produced}, out, indent=1, default=str)

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(wl_name, "")
    print(f"# workload {wl_name}  seed {seed}  trace {trace}")
    print(f"#   why: {why}")
    for key, value in report.get("workload", {}).items():
        print(f"#   {key}: {value}")
    for name in units:
        print(f"#   {name:34s} {produced[name]:14.4f} {units[name]}")
    print(f"#   samples: {json.dumps(report.get('samples', {}))}")
    print(f"#   phases (s): {json.dumps(report.get('phase_s', {}))}")
    for shape in report.get("scanning_shapes", []):
        scans = sorted({t for plan in shape["plans"] for t in plan["scans"]})
        print(f"# scanning shape {shape['version']}.{shape['table']} "
              f"{shape['shape']}: SCAN {', '.join(scans)} (plans in {report_file})")
    if report.get("fig8_paper_reference"):
        print(f"#   paper Fig. 8 reference: {report['fig8_paper_reference']}")
    for problem in result["problems"][:10]:
        print(f"# CHECK FAILED: {problem}")
    for error in result["errors"]:
        print(f"# statement error: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(produced[name]), "unit": units[name]}
                    for name in units},
    }))


def self_test(spec: dict) -> int:
    """Run every workload in both modes for ``SELF_TEST_SECONDS`` and
    assert that each named metric is printed with its unit, that no
    statement failed and that the correctness check passed."""
    failed_runs = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", "1", "--seconds", str(SELF_TEST_SECONDS),
                       "--trace", str(trace)]
            done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=600)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                verdict = f"no result line (exit {done.returncode}): {done.stderr[-500:]}"
            else:
                expected = {m["name"]: m["unit"] for m in spec[kind]}
                printed = {k: v.get("unit") for k, v in result["metrics"].items()}
                if printed != expected:
                    verdict = "metric names or units differ from BENCHMARK.json"
                elif not result["correct"] or result["failed"]:
                    verdict = (f"correct={result['correct']} "
                               f"failed={result['failed']}")
                else:
                    verdict = "ok"
            failed_runs += verdict != "ok"
            print(f"self-test {workload} trace {trace}: {verdict}")
    print("self-test passed" if not failed_runs else "self-test failed")
    return 1 if failed_runs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed loop (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload briefly in both modes and "
                        "assert metric names, units and correctness")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro  # noqa: F401 - fail early without the program's sources
        import scenario
    except ImportError as exc:
        print(f"perfbench: the program cannot be imported: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.self_test:
        return self_test(spec)
    if args.workload not in scenario.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(scenario.WORKLOADS)}")
    wl = scenario.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_run" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report: dict = {}
    try:
        runner = run_traced if args.trace else run_timed
        result = runner(wl, args.seed, args.seconds, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(spec, wl.name, args.seed, args.trace, result, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
