"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hr_write --seed 1 --seconds 20 --trace 0

One process, one closed-loop client, no threads: the workload's operation
types are issued round-robin, each only after the previous one returned.
The run generates its inputs from ``--seed``, times set-up several times and
keeps the median, warms up, then measures for ``--seconds`` seconds.  Every
operation's output is checked by the workload's oracle; an exception or a
wrong output counts as a failed operation and its latency is not recorded.

Every gated time is given at a fixed *reference speed* (see
:class:`Reference`): a fixed pure-Python computation is timed right before
each operation and around each set-up, and the measured time is scaled by
``REFERENCE_MS`` over the reference's own time.  The machines this runs on
are shared and change speed by up to 2x over minutes; scaled times follow
the program, raw times follow the neighbours.  Raw times are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the separate
traced run: it alternates untraced cycles with cycles in which the program
records spans on a :class:`repro.obs.Tracer` and the benchmark's timing
wrappers are installed (``layers.py``), and reports the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).
Lines before it are a human-readable report, including each operation
type's median and tail latency with its sample count.
"""

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is timed at least this many times, and again while the total is
#: under ``SETUP_BUDGET_S`` (cheap set-ups get many repetitions), up to
#: ``SETUP_MAX_REPS``; the median is reported.
SETUP_MIN_REPS = 5
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPS = 100

#: The reference computation's nominal duration: scaled times read as
#: milliseconds on a machine where one reference run takes this long.
REFERENCE_MS = 1.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Reference:
    """A fixed pure-Python computation timed next to every measurement.

    It mixes the two kinds of work the program does: interpreter arithmetic
    and dictionary probes with tuple keys.  The probes are run once untimed
    first, so the timed run finds them in the processor's caches whatever
    work came before; otherwise an operation that evicts more or less
    memory would shift the scale of the next one.  On a shared machine whose
    speed swung up to 2x, ten-run spreads of the workloads' median latencies
    were 14-62% raw and 2-10% scaled.  The table is built before anything
    else, so the peak resident set it adds is measured and subtracted from
    ``peak_rss_mb``."""

    ENTRIES = 200_000
    PROBES = 2000
    LOOP = 16_000

    def __init__(self):
        before = peak_rss_mb()
        self.table = {(index, f"k{index}"): index for index in range(self.ENTRIES)}
        self.keys = random.Random(0).sample(list(self.table), self.PROBES)
        self.loop = range(self.LOOP)
        self.rss_mb = peak_rss_mb() - before

    def _probe(self):
        total = 0
        for key in self.keys:
            total += self.table[key]
        return total

    def seconds(self):
        self._probe()
        start = time.perf_counter()
        total = self._probe()
        for value in self.loop:
            total += value * value
        return time.perf_counter() - start

    def median_seconds(self, runs=5):
        return statistics.median(self.seconds() for _ in range(runs))

    @staticmethod
    def scaled_ms(elapsed, reference):
        """*elapsed* seconds, measured next to a reference run of
        *reference* seconds, as milliseconds at the reference speed."""
        return REFERENCE_MS * elapsed / reference


class GcMonitor:
    """Collector pauses and generation-2 collections, via ``gc.callbacks``
    (garbage collection stays enabled while timing)."""

    def __init__(self):
        self.pause_ms = 0.0
        self.gen2_collections = 0
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_ms += (time.perf_counter() - self._started) * 1000.0
            self._started = None
            if info["generation"] == 2:
                self.gen2_collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self)
        return False


def tail(samples):
    """The highest whole percentile with at least ten samples beyond it:
    ``(percentile, value, samples beyond)`` by nearest rank, or ``None``
    when there are too few samples."""
    count = len(samples)
    if count <= 10:
        return None
    percentile = math.floor(100 * (count - 10) / count)
    rank = max(1, math.ceil(percentile * count / 100))
    return percentile, sorted(samples)[rank - 1], count - rank


def geometric_mean(values):
    return math.exp(sum(math.log(value) for value in values) / len(values))


class Latencies:
    """Latency samples (ms) per operation kind, kept per *stratum*.

    A kind whose operations come in distinct shapes (``univ_ask`` asks eleven
    different questions) has a many-humped latency distribution; its pooled
    median can jump between humps on a small change of machine speed.  A
    kind's p50 is therefore the geometric mean of its strata's medians; the
    tail is read from the pooled samples."""

    def __init__(self, kinds):
        self.strata = {kind: {} for kind in kinds}

    def add(self, kind, stratum, value):
        self.strata[kind].setdefault(stratum, []).append(value)

    def values(self, kind):
        return [value for values in self.strata[kind].values() for value in values]

    def p50(self, kind):
        medians = [statistics.median(values) for values in self.strata[kind].values()]
        return geometric_mean(medians) if medians else None

    def report(self):
        lines = []
        for kind in self.strata:
            values = self.values(kind)
            if not values:
                lines.append(f"    {kind:<8} no samples")
                continue
            line = f"    {kind:<8} p50 {self.p50(kind):9.3f} ms"
            found = tail(values)
            if found is not None:
                percentile, value, beyond = found
                line += f"   p{percentile} {value:9.3f} ms ({beyond} beyond)"
            lines.append(line + f"   n={len(values)}")
        return lines


class Runner:
    """Drives one workload and keeps the samples, failures and (for the
    traced run) the layer totals."""

    def __init__(self, workload, reference, instrumentation=None):
        from layers import LayerTotals

        self.workload = workload
        self.reference = reference
        self.instrumentation = instrumentation
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = Latencies(workload.KINDS)
        self.raw_samples = Latencies(workload.KINDS)
        self.traced_samples = Latencies(workload.KINDS)
        self.layers = LayerTotals()
        self.maintenance = {"rounds": 0, "delta_passes": 0, "derived_changed": 0}

    def operation(self, kind, record=True, traced=False):
        """Issue one operation and check its output; an exception anywhere
        in preparing, calling or checking it makes it a failed one."""
        self.attempted += 1
        try:
            call, check, *stratum = self.workload.prepare(kind)
            reference = self.reference.seconds()
            result, elapsed = self._call(kind, call, traced)
            reason = check(result)
        except Exception as error:  # noqa: BLE001 — counted, the run goes on
            reason = f"{type(error).__name__}: {error}"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{kind}: {reason}")
        elif record:
            stratum = stratum[0] if stratum else kind
            scaled = Reference.scaled_ms(elapsed, reference)
            if traced:
                self.traced_samples.add(kind, stratum, scaled)
            else:
                self.samples.add(kind, stratum, scaled)
                self.raw_samples.add(kind, stratum, elapsed * 1000.0)

    def _call(self, kind, call, traced):
        """Time *call*; when traced, inside an ``op.<kind>`` root span whose
        finished spans are then charged to the layers."""
        if not traced:
            start = time.perf_counter()
            result = call()
            return result, time.perf_counter() - start
        tracer = self.instrumentation.tracer
        try:
            with tracer.span("op." + kind):
                start = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - start
        finally:
            self.layers.fold(kind, tracer.entries)
            tracer.clear()
        return result, elapsed

    def cycle(self, record=True, traced=False):
        if traced:
            self.instrumentation.install()
            self.workload.set_tracer(self.instrumentation.tracer)
            before = self._maintenance_counts()
        try:
            for kind in self.workload.KINDS:
                self.operation(kind, record=record, traced=traced)
        finally:
            if traced:
                from repro.obs import NOOP_TRACER

                self.instrumentation.uninstall()
                self.workload.set_tracer(NOOP_TRACER)
                after = self._maintenance_counts()
                for key in self.maintenance:
                    self.maintenance[key] += after[key] - before[key]

    def measure(self, seconds):
        """Round-robin cycles for *seconds*; in the traced run every other
        cycle is traced."""
        gc.collect()
        cycles = 0
        start = time.perf_counter()
        with GcMonitor() as monitor:
            while cycles < 2 or time.perf_counter() - start < seconds:
                self.cycle(traced=self.instrumentation is not None and cycles % 2 == 1)
                cycles += 1
        return monitor

    def rebuilds(self):
        return sum(model.statistics.rebuilds for model in self.workload.models())

    def _maintenance_counts(self):
        totals = dict.fromkeys(self.maintenance, 0)
        for model in self.workload.models():
            stats = model.statistics
            totals["rounds"] += stats.rounds
            totals["delta_passes"] += stats.delta_passes
            totals["derived_changed"] += stats.facts_added + stats.facts_removed
        return totals


def time_setup(workload, reference, tracer=None):
    """Time one set-up of the program (inputs already generated); returns
    ``(raw seconds, seconds at the reference speed)``."""
    workload.release()
    gc.collect()
    before = reference.median_seconds()
    start = time.perf_counter()
    if tracer is None:
        workload.setup()
    else:
        with tracer.span("op.setup"):
            workload.setup(tracer=tracer)
    elapsed = time.perf_counter() - start
    scale = statistics.median([before, reference.median_seconds()])
    return elapsed, Reference.scaled_ms(elapsed, scale) / 1000.0


def time_setups(workload, reference):
    """Time set-up several times; the last set-up is kept for the run."""
    times = []
    while True:
        times.append(time_setup(workload, reference))
        if len(times) >= SETUP_MAX_REPS:
            break
        if len(times) >= SETUP_MIN_REPS and sum(raw for raw, _ in times) >= SETUP_BUDGET_S:
            break
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload_name, seed, seconds, trace, size="full", out=print):
    """Run one workload; prints the report through *out* and returns the
    result dict.  ``size="toy"`` shrinks the inputs for the smoke test."""
    from layers import LAYER_MS, Instrumentation
    from repro.obs import NOOP_TRACER
    from workloads import WORKLOADS

    reference = Reference()
    workload = WORKLOADS[workload_name](seed, size)
    instrumentation = Instrumentation() if trace else None
    runner = Runner(workload, reference, instrumentation)
    calib_before = reference.median_seconds(runs=5) * 1000.0

    if trace:
        instrumentation.install()
        try:
            setup_times = [time_setup(workload, reference, instrumentation.tracer)]
        finally:
            instrumentation.uninstall()
        setup_layers = type(runner.layers)()
        setup_layers.fold("setup", instrumentation.tracer.entries)
        instrumentation.tracer.clear()
        workload.set_tracer(NOOP_TRACER)
    else:
        setup_times = time_setups(workload, reference)
    rebuilds_at_setup = runner.rebuilds()

    for _ in range(workload.warmup_cycles):
        runner.cycle(record=False)
    monitor = runner.measure(seconds)
    calib_after = reference.median_seconds(runs=5) * 1000.0

    checks = []
    if runner.rebuilds() != rebuilds_at_setup:
        checks.append(
            f"maintained models rebuilt during the run: {rebuilds_at_setup} -> {runner.rebuilds()}"
        )
    program_rss_mb = peak_rss_mb() - reference.rss_mb
    calib_ms = statistics.median([calib_before, calib_after])
    setup_s = statistics.median(scaled for _, scaled in setup_times)

    out(f"workload {workload_name} seed {seed} size {size} seconds {seconds} trace {trace}")
    out(f"  setup: {len(setup_times)} runs, median {setup_s:.4f} s at reference speed, "
        f"{statistics.median(raw for raw, _ in setup_times):.4f} s raw")
    out("  untraced latency, ms at reference speed:")
    for line in runner.samples.report():
        out(line)
    out("  untraced latency, raw ms:")
    for line in runner.raw_samples.report():
        out(line)
    out(f"  gc: {monitor.pause_ms:.1f} ms paused, {monitor.gen2_collections} gen-2 collections")
    out(f"  env.calib_ms: before {calib_before:.2f}, after {calib_after:.2f}")
    out(f"  peak_rss_mb: {program_rss_mb:.1f} (reference table {reference.rss_mb:.1f} excluded)")
    for failure in runner.failures + checks:
        out(f"  FAILED {failure}")

    p50s = [runner.samples.p50(kind) for kind in workload.KINDS]
    p50s = [value for value in p50s if value is not None]
    if trace:
        metrics = layer_metrics(runner, setup_layers, monitor, calib_ms, LAYER_MS, out)
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_p50_ms": metric(geometric_mean(p50s) if p50s else 0.0, "ms"),
            # The closed-loop client's throughput over one round-robin cycle
            # at every type's median latency; a mean over all samples would
            # follow every short slow phase of a shared machine.
            "ops_per_s": metric(1000.0 * len(p50s) / sum(p50s) if p50s else 0.0, "1/s"),
            "peak_rss_mb": metric(program_rss_mb, "MB"),
        }
    return {
        "correct": runner.failed == 0 and not checks and len(p50s) == len(workload.KINDS),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def layer_metrics(runner, setup_layers, monitor, calib_ms, layer_ms, out):
    """The per-layer metrics of the traced run, plus the per-kind breakdown
    printed beside the untraced latencies."""
    layers = runner.layers
    traced_ops = sum(layers.ops.values())
    out("  traced latency, ms at reference speed:")
    for line in runner.traced_samples.report():
        out(line)
    out("  self time per operation (ms), traced cycles:")
    for kind in runner.workload.KINDS:
        ops = layers.ops[kind]
        if not ops:
            continue
        shares = sorted(layers.self_ms[kind].items(), key=lambda item: -item[1])
        parts = ", ".join(f"{name} {total / ops:.3f}" for name, total in shares if total > 0)
        out(f"  {kind:<8} unattributed {layers.unattributed_pct(kind):5.2f}%  {parts}")
    setup_parts = sorted(setup_layers.self_ms["setup"].items(), key=lambda item: -item[1])
    out("  set-up self time (ms): "
        + ", ".join(f"{name} {total:.1f}" for name, total in setup_parts if total > 0))

    ratios = [
        runner.traced_samples.p50(kind) / runner.samples.p50(kind)
        for kind in runner.workload.KINDS
        if runner.traced_samples.values(kind) and runner.samples.values(kind)
    ]
    overhead_pct = 100.0 * (geometric_mean(ratios) - 1.0) if ratios else 0.0

    def per_op(value):
        return value / traced_ops if traced_ops else 0.0

    revises = layers.ops.get("revise", 0)
    answers = layers.total_count("answers")
    metrics = {name: metric(layers.per_op_ms(name), "ms/op") for name in layer_ms}
    metrics["semantics.reducer_build_ms"] = metric(
        setup_layers.total_ms("semantics.reducer_build_ms")
        + layers.total_ms("semantics.reducer_build_ms"),
        "ms",
    )
    metrics.update({
        "constraints.fallbacks": metric(layers.total_count("fallbacks"), "count"),
        "datalog.join_passes": metric(per_op(runner.maintenance["delta_passes"]), "count/op"),
        "datalog.fixpoint_rounds": metric(per_op(runner.maintenance["rounds"]), "count/op"),
        "datalog.derived_changed": metric(per_op(runner.maintenance["derived_changed"]), "count/op"),
        "datalog.facts_touched_per_answer": metric(
            layers.total_count("touched") / answers if answers else 0.0, "ratio"
        ),
        "datalog.rebuilds": metric(runner.rebuilds(), "count"),
        "revision.peeks_per_revise": metric(
            layers.counts["revise"]["datalog.peek"] / revises if revises else 0.0, "count/op"
        ),
        "semantics.reducer_builds": metric(
            setup_layers.total_count("semantics.reducer_build")
            + layers.total_count("semantics.reducer_build"),
            "count",
        ),
        "prover.entails_calls": metric(per_op(layers.total_count("prover.entails")), "count/op"),
        "unattributed_pct": metric(layers.unattributed_pct(), "%"),
        "trace_overhead_pct": metric(overhead_pct, "%"),
        "gc.pause_ms": metric(monitor.pause_ms, "ms"),
        "gc.gen2_collections": metric(monitor.gen2_collections, "count"),
        "env.calib_ms": metric(calib_ms, "ms"),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("hr_write", "tc_view", "univ_ask"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
