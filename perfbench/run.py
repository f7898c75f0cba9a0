#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shortflow --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/predictions.json``):

* ``fastpath``  — long-lived minimum-size iperf flows through all six
  bundled middleboxes; almost every packet finishes in the switch pre
  pipeline;
* ``shortflow`` — CONGA-sized short flows over many distinct 5-tuples
  through mazunat, lb, minilb and trojan; SYNs (and FINs) punt;
* ``features``  — Zipf-recurring short flows through the bounded cache,
  the active-standby pair, a 3-server pool and 3-tenant switch sharing;
* ``gauntlet``  — generated programs compiled, verified and run through
  the interpreter baseline and the deployment, plus the symbolic proof.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it instead runs a fixed amount of work twice,
untraced and then with spans on every layer, and reports the per-layer
split; span logs land in ``.perfbench/``.  Either way every output is
checked (packets against the hand-written references, programs against
the interpreter, proofs must prove), the metrics are printed one per
line, and the last line is the JSON result.  Latency percentiles
(``pkt_us_p50``/``pkt_us_p99``, ``program_ms_p50``/``program_ms_tail``)
and gauntlet's ``prove_s`` are printed as ``info`` lines: they are
reported on every run but are not among the bounded metrics.
``ops_per_s`` and ``setup_s`` are scaled to a reference host by
host-speed samples taken through the timed loop (``calibration.py``);
the figures as measured are printed as ``info`` lines too.
``peak_rss_mb`` is the peak resident set once set-up and the first
round of work are done (the first round of every renewing lane, or of
gauntlet's program set; the whole loop where lanes never renew), so it
does not depend on how many rounds the host's speed lets the loop
finish; the peak at the end of the run is printed as ``peak_rss_mb.end``.  The exit
code is 0 when a result was printed, 2 when the repository sources are
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fastpath", "shortflow", "features", "gauntlet")
#: Set-up builds made during the timed loop, besides the one before it.
BUILDS_IN_LOOP = 10
#: Host-speed samples taken during the timed loop.
CALIBRATION_SAMPLES = 36
#: Percentiles the gauntlet tail is chosen from.
TAIL_PERCENTILES = (90, 75, 50)
#: The traced run's layer self times must cover at least this share of
#: its end-to-end time.
COVERAGE_TOLERANCE = 0.15


class Report:
    """Metrics (name -> value, unit), checks and the operation tally."""

    def __init__(self):
        self.metrics = {}
        self.info = []
        self.checks = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def note(self, name, value, unit=""):
        self.info.append((name, value, unit))

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def emit(self):
        for name, value, unit in self.info:
            print(f"info   {name:<42} {value} {unit}".rstrip())
        for name, ok, detail in self.checks:
            print(f"check  {name:<42} {'ok' if ok else 'FAILED'} {detail}"
                  .rstrip())
        for name, (value, unit) in self.metrics.items():
            print(f"metric {name:<42} {value:.6g} {unit}")
        result = {
            "correct": self.failed == 0 and all(ok for _, ok, _ in self.checks),
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
        print(json.dumps(result), flush=True)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(function, times):
    """``function()``, its duration appended to ``times``."""
    gc.collect()
    started = time.perf_counter()
    result = function()
    times.append(time.perf_counter() - started)
    return result


class Pauses:
    """Untimed work spread evenly over the timed loop's work, called
    between its operations: ``BUILDS_IN_LOOP`` set-up builds (besides
    the one before the loop, which the loop uses) and
    ``CALIBRATION_SAMPLES`` host-speed samples.

    The host this runs on changes speed for seconds to minutes at a time,
    in step across workloads.  ``setup_s`` is the median of builds taken
    across the whole run, and every timed end-to-end figure is scaled by
    the run's host speed (``calibration``) to the reference host.

    The loop calls ``mark()`` when its first round of work is done; the
    peak resident set then is ``peak_rss_mb``."""

    def __init__(self, build, seconds):
        self.build = build
        self.budget_ns = seconds * 1e9
        self.build_times = []
        self.samples = []
        self.rss_mb = None

    def first_build(self):
        return timed(self.build, self.build_times)

    def __call__(self, spent_ns):
        if self._due(spent_ns, len(self.build_times), BUILDS_IN_LOOP + 1):
            timed(self.build, self.build_times)
        if self._due(spent_ns, len(self.samples), CALIBRATION_SAMPLES):
            self.samples.append(calibration.sample())

    def mark(self):
        """Record the peak resident set (the first call only)."""
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()

    def _due(self, spent_ns, done, count):
        return done < count and spent_ns >= done * self.budget_ns / count

    def speed(self):
        """The host's speed over the loop relative to the reference."""
        return calibration.REFERENCE_S / statistics.mean(self.samples)

    def emit(self, report):
        """Report ``setup_s`` and ``peak_rss_mb``, and the raw figures
        behind the scaling."""
        speed = self.speed()
        raw = statistics.median(self.build_times)
        self.mark()
        report.metric("setup_s", raw * speed, "s")
        report.metric("peak_rss_mb", self.rss_mb, "MB")
        report.note("peak_rss_mb.end", f"{peak_rss_mb():.4f}",
                    "MB (at the end of the run)")
        report.note("setup_s.raw", f"{raw:.4f}",
                    f"s (median of {len(self.build_times)} builds)")
        report.note("host.speed", f"{speed:.4f}",
                    f"x reference ({len(self.samples)} calibration samples,"
                    f" mean {statistics.mean(self.samples) * 1e3:.3f} ms)")


def compile_bundled(names):
    """(bundle, plan, program) per bundled middlebox, compiled."""
    from repro.middleboxes import load
    from repro.runtime.deployment import compile_middlebox

    out = []
    for name in names:
        bundle = load(name)
        plan, program = compile_middlebox(bundle.lowered)
        out.append((bundle, plan, program))
    return out


def prove(report, spans=None):
    """Symbolic proof of the six bundled middleboxes (with their config),
    each under a ``verify.symbolic`` span when ``spans`` is given.
    Returns (seconds per middlebox, worlds explored); every proof must
    prove (a proof that does not counts as a failed operation)."""
    from repro.middleboxes import MIDDLEBOX_NAMES
    from repro.verify.symbolic import verify_symbolic

    compiled = compile_bundled(MIDDLEBOX_NAMES)
    worlds = 0
    seconds = []
    gc.collect()
    for bundle, plan, program in compiled:
        started = time.perf_counter()
        with spans.span("verify.symbolic") if spans else nullcontext():
            outcome = verify_symbolic(plan, program, config=bundle.config)
        seconds.append(time.perf_counter() - started)
        worlds += outcome.worlds
        report.attempted += 1
        if not outcome.proved:
            report.failed += 1
            print(f"proof failed: {bundle.name}", file=sys.stderr)
    return seconds, worlds


# -- packet workloads -------------------------------------------------------------


def packet_run(workload, args, report):
    import packets

    build = packets.LANE_BUILDERS[workload]
    if args.trace:
        lanes = build(args.seed)
        names = sorted({name for lane in lanes for name in lane.programs})
        return packet_trace(workload, args, report, lanes, names)
    pauses = Pauses(lambda: build(args.seed), args.seconds)
    lanes = pauses.first_build()
    gc.collect()
    loop = packets.timed_loop(lanes, args.seconds, pauses, pauses.mark)
    del lanes
    report_loop(workload, loop, report, pauses.speed())
    pauses.emit(report)


def report_loop(workload, loop, report, speed):
    """The timed loop's metrics, notes and workload checks; ``speed`` is
    the host's, relative to the reference host."""
    import packets

    report.attempted += loop.packets
    report.failed += loop.failed
    pps = loop.packets / (loop.timed_ns / 1e9)
    p50 = loop.percentile_us(50)
    p99 = loop.percentile_us(99)
    if all(lane.sim_mark_us is not None for lane in loop.lanes):
        sim = sum(lane.sim_mark_us for lane in loop.lanes) / (
            packets.SIM_MARK * len(loop.lanes))
    else:
        sim = sum(lane.sim_us() for lane in loop.lanes) / loop.packets
    report.metric("ops_per_s", pps / speed, "1/s")
    report.metric("sim_us_per_pkt", sim, "sim_us")
    report.note("pps", f"{pps:.1f}", "1/s (as measured)")
    report.note("pkt_us_p50", f"{p50:.3f}", f"us (n={loop.packets})")
    report.note("pkt_us_p99", f"{p99:.3f}", f"us (n={loop.packets})")
    report.note("failed_share", f"{loop.failed / max(1, loop.packets):.6f}")
    for lane in loop.lanes:
        report.note(f"lane.{lane.name}.packets", lane.processed)
        for line in lane.mismatches:
            print(f"mismatch: {line}", file=sys.stderr)
    share = loop.punts / max(1, loop.punts + loop.fast)
    report.note("punt_share", f"{share:.4f}", "of all packets")
    if workload == "fastpath":
        report.check("fastpath.punt_share<=0.01", share <= 0.01,
                     f"{share:.4f}")
    if workload == "shortflow":
        report.check("shortflow.punt_share>=0.10", share >= 0.10,
                     f"{share:.4f}")
        entries = sum(loop.entries.values())
        report.note("replicated_entries", entries,
                    "(replicated-table entries at the end of a round)")
        report.check("shortflow.replicated_entries>=1e4", entries >= 10_000,
                     str(entries))
    if workload == "features":
        stats = cache_stats(loop.lanes)
        report.check("features.cache_hit_rate_in_(0,1)",
                     0 < stats.hit_rate < 1, f"{stats.hit_rate:.4f}")
        report.check("features.cache_evictions>0", stats.evictions > 0,
                     str(stats.evictions))


def punt_share(lanes):
    counts = [lane.counts() for lane in lanes]
    punts = sum(count["punts"] for count in counts)
    return punts / max(1, punts + sum(count["fast"] for count in counts))


def cache_stats(lanes):
    for lane in lanes:
        stats = getattr(lane.top, "stats", None)
        if stats is not None:
            return stats
    return None


def packet_trace(workload, args, report, lanes, names):
    """Fixed passes: untraced, traced (spans), telemetry on."""
    import packets
    from spans import Spans

    build = packets.LANE_BUILDERS[workload]
    gc.collect()
    untraced = packets.fixed_pass(lanes)
    off_counts = [lane.counts() for lane in lanes]
    traced_lanes = build(args.seed)
    spans = Spans()
    for lane in traced_lanes:
        packets.instrument(spans, lane)
    gc.collect()
    traced = packets.fixed_pass(traced_lanes)
    spans.restore()
    on_counts = [lane.counts() for lane in traced_lanes]
    report.attempted += untraced.packets + traced.packets
    report.failed += untraced.failed + traced.failed
    report.check("trace.deterministic_counts", off_counts == on_counts,
                 "" if off_counts == on_counts
                 else f"{off_counts} != {on_counts}")
    summary = spans.summary()
    n = traced.packets
    layer_metrics(report, summary, spans, n)
    coverage(report, spans, traced.timed_ns, untraced.timed_ns, n)
    report.metric("punt_share", punt_share(traced_lanes), "ratio")
    stats = cache_stats(traced_lanes)
    report.metric("runtime.cache.hit_rate",
                  stats.hit_rate if stats else 0.0, "ratio")
    report.metric("runtime.cache.evictions",
                  stats.evictions if stats else 0, "count")
    report.metric("runtime.cache.refills",
                  stats.refills if stats else 0, "count")
    flavours = {lane.name: lane for lane in lanes}
    for flavour in packets.FEATURE_FLAVOURS:
        lane = flavours.get(flavour)
        report.metric(
            f"features.{flavour}.us_per_pkt",
            lane.timed_ns / 1e3 / lane.processed if lane else 0.0, "us")
    report.metric("tables.replicated_entries",
                  sum(lane.replicated_entries() for lane in traced_lanes),
                  "count")
    report.metric("telemetry.off_us_per_pkt",
                  untraced.timed_ns / 1e3 / untraced.packets, "us")
    on_us = 0.0
    if workload in ("fastpath", "shortflow"):
        telemetry_lanes = build(args.seed, telemetry=packets.traced_telemetry)
        gc.collect()
        telemetry_on = packets.fixed_pass(telemetry_lanes)
        report.attempted += telemetry_on.packets
        report.failed += telemetry_on.failed
        on_us = telemetry_on.timed_ns / 1e3 / telemetry_on.packets
    report.metric("telemetry.on_us_per_pkt", on_us, "us")
    report.metric("ir.interp.us_per_pkt", 0.0, "us")
    report.metric("gauntlet.deploy_ms", 0.0, "ms")
    compiler_layers(report, names)
    spans.write(Path(".perfbench") / f"spans-{workload}-{args.seed}.jsonl")


def _us_per(summary, layer, per=None):
    """Self time of ``layer`` in us, per call (or per ``per`` ops)."""
    row = summary.get(layer)
    if not row:
        return 0.0
    return row["self_ns"] / 1e3 / (per if per is not None else row["calls"])


def _calls(summary, layer):
    row = summary.get(layer)
    return row["calls"] if row else 0


#: (metric, span layer, statistic): ``per_call`` is self time per call,
#: ``per_op`` self time per packet, ``calls`` the number of spans.
SPAN_METRICS = (
    ("switchsim.pre.us_per_call", "switchsim.pre", "per_call"),
    ("switchsim.pre.calls", "switchsim.pre", "calls"),
    ("switchsim.post.us_per_call", "switchsim.post", "per_call"),
    ("switchsim.post.calls", "switchsim.post", "calls"),
    ("codegen.shim.encode.us_per_call", "codegen.shim.encode", "per_call"),
    ("codegen.shim.decode.us_per_call", "codegen.shim.decode", "per_call"),
    ("runtime.server.self_us_per_call", "runtime.server", "per_call"),
    ("runtime.server.calls", "runtime.server", "calls"),
    ("switchsim.control_plane.us_per_batch", "switchsim.control_plane",
     "per_call"),
    ("switchsim.control_plane.batches", "switchsim.control_plane", "calls"),
    ("runtime.deployment.self_us_per_pkt", "runtime.deployment", "per_op"),
    ("runtime.pool.route.us_per_call", "runtime.pool.route", "per_call"),
    ("runtime.failover.standby_us_per_batch", "runtime.failover.standby",
     "per_call"),
    ("tenancy.dispatch.us_per_call", "tenancy.dispatch", "per_call"),
    ("tenancy.deployment.self_us_per_pkt", "tenancy.deployment", "per_op"),
)


def layer_metrics(report, summary, spans, packets_seen):
    for name, layer, statistic in SPAN_METRICS:
        if statistic == "calls":
            report.metric(name, _calls(summary, layer), "count")
        else:
            per = packets_seen if statistic == "per_op" else None
            report.metric(name, _us_per(summary, layer, per), "us")
    report.metric("codegen.shim.calls",
                  _calls(summary, "codegen.shim.encode")
                  + _calls(summary, "codegen.shim.decode"), "count")
    report.metric("switchsim.control_plane.updates",
                  spans.tallies.get("switchsim.control_plane", 0), "count")


def coverage(report, spans, traced_ns, untraced_ns, ops):
    """Layer self times against the traced end-to-end time."""
    covered = spans.root_ns() / traced_ns
    report.metric("trace.coverage", covered, "ratio")
    report.metric("trace.overhead", traced_ns / untraced_ns, "ratio")
    report.metric("harness.us_per_op",
                  (traced_ns - spans.root_ns()) / 1e3 / ops, "us")
    report.check(f"trace.coverage>={1 - COVERAGE_TOLERANCE:.2f}",
                 covered >= 1 - COVERAGE_TOLERANCE, f"{covered:.4f}")


def compiler_layers(report, names=(), instructions=None, spans=None):
    """Stage-by-stage compile of the workload's programs, then the
    traced symbolic proof.  Without ``spans`` the programs compiled are
    the bundled middleboxes ``names`` (the packet workloads' setup
    compile); the gauntlet passes the spans of its generated programs
    and their IR ``instructions``.  Stage times are
    inclusive: ``partition.labels`` and ``analysis.depgraph`` run inside
    ``partition`` (and the latter inside ``verify`` too)."""
    import gauntlet
    from spans import Spans

    if spans is None:
        from repro.middleboxes import load_source

        spans = Spans()
        gauntlet.instrument_compiler(spans)
        try:
            instructions = []
            for name in names:
                result = gauntlet.staged_compile(spans, load_source(name),
                                                 f"{name}.cc")
                instructions.append(
                    sum(1 for _ in result.lowered.process.instructions()))
        finally:
            spans.restore()
        untraced = [gauntlet.ir_size(load_source(name)) for name in names]
        report.check("trace.deterministic_ir", untraced == instructions)
    programs = len(instructions)
    summary = spans.summary()

    def ms(layer):
        row = summary.get(layer)
        return row["total_ns"] / 1e6 / programs if row else 0.0

    for layer in ("lang.parse", "ir.lowering", "partition",
                  "partition.labels", "analysis.depgraph", "codegen",
                  "verify"):
        report.metric(f"{layer}.ms", ms(layer), "ms")
    report.metric("partition.labels.calls",
                  _calls(summary, "partition.labels") / programs, "count")
    report.metric("ir.instructions", sum(instructions) / programs, "count")
    proof_spans = Spans()
    _, worlds = prove(report, spans=proof_spans)
    proved = proof_spans.summary().get("verify.symbolic")
    report.metric("verify.symbolic.ms",
                  proved["total_ns"] / 1e6 / proved["calls"], "ms")
    report.metric("verify.symbolic.worlds", worlds / proved["calls"], "count")


# -- gauntlet -----------------------------------------------------------------------


def gauntlet_run(args, report):
    import gauntlet
    from repro.middleboxes import MIDDLEBOX_NAMES

    if args.trace:
        return gauntlet_trace(args, report)
    pauses = Pauses(lambda: compile_bundled(MIDDLEBOX_NAMES), args.seconds)
    pauses.first_build()
    proof_s, worlds = prove(report)
    gc.collect()
    loop = gauntlet.timed_loop(args.seed, args.seconds, pauses, pauses.mark)
    report.note("prove_s", f"{sum(proof_s):.4f}",
                f"s (six bundled symbolic proofs, {worlds} worlds)")
    pauses.emit(report)
    runs = [run for round_ in loop.rounds for run in round_]
    checked = runs + [loop.large]
    report.attempted += len(checked)
    errors = [run for run in checked if run.error]
    report.failed += len(errors)
    for run in errors[:5]:
        print(f"program {run.program_seed}: {run.error}", file=sys.stderr)
    # each program's mean time over the rounds
    times_us = [statistics.mean(run.elapsed_ns for run in program) / 1e3
                for program in zip(*loop.rounds)]
    tail_p = next((p for p in TAIL_PERCENTILES
                   if len(times_us) * (100 - p) / 100 >= 10), 50)
    sim = statistics.median(run.sim_us / run.packets
                            for run in loop.rounds[0] if run.packets)
    per_s = len(runs) / (sum(run.elapsed_ns for run in runs) / 1e9)
    report.metric("ops_per_s", per_s / pauses.speed(), "1/s")
    report.metric("sim_us_per_pkt", sim, "sim_us")
    about = f"(mean of {len(loop.rounds)} rounds, n={len(times_us)})"
    report.note("programs_per_s", f"{per_s:.3f}", "1/s (as measured)")
    report.note("program_ms_p50", f"{percentile(times_us, 50) / 1e3:.3f}",
                f"ms {about}")
    report.note("program_ms_tail",
                f"{percentile(times_us, tail_p) / 1e3:.3f}",
                f"ms (p{tail_p:g}) {about}")
    report.note("large_program_ms", f"{loop.large.elapsed_ns / 1e6:.3f}",
                f"ms ({loop.large.lines} lines,"
                f" {loop.large.instructions} instructions)")
    report.note("failed_share", f"{len(errors) / len(checked):.6f}")
    report.note("rejected_programs",
                sum(1 for run in checked if run.rejected),
                "(refused by the compiler within its resource budget)")
    report.check("gauntlet.has_program>=100_lines", loop.large.lines >= 100,
                 str(loop.large.lines))


def gauntlet_trace(args, report):
    import gauntlet
    import packets
    from spans import Spans

    chosen = gauntlet.fixed_draw(args.seed)
    gc.collect()
    # The first pass warms imports and caches; the second is the
    # untraced reference the traced pass is compared with.
    warm = [gauntlet.run_program(seed, source) for seed, source in chosen]
    untraced = [gauntlet.run_program(seed, source) for seed, source in chosen]
    spans = Spans()
    gauntlet.instrument_compiler(spans)

    def wrap(baseline, deployment):
        spans.patch(baseline, "process_packet", "ir.interp")
        packets.instrument_middlebox(spans, deployment)
        spans.patch(deployment, "process_packet", "runtime.deployment")

    traced = []
    gc.collect()
    for index, (program_seed, source) in enumerate(chosen):
        spans.op_id = index
        traced.append(gauntlet.run_program(
            program_seed, source,
            compile_fn=lambda text: gauntlet.staged_compile(spans, text),
            wrap=wrap, timer=lambda: spans.span("gauntlet.deploy"),
        ))
    spans.restore()
    untraced_ns = sum(run.elapsed_ns for run in untraced)
    traced_ns = sum(run.elapsed_ns for run in traced)
    runs = warm + untraced + traced
    report.attempted += len(runs)
    report.failed += sum(1 for run in runs if run.error)
    signature = [(r.instructions, r.packets, r.sim_us, r.error)
                 for r in untraced]
    traced_signature = [(r.instructions, r.packets, r.sim_us, r.error)
                        for r in traced]
    report.check("trace.deterministic_counts", signature == traced_signature)
    summary = spans.summary()
    packets_seen = sum(run.packets for run in traced)
    layer_metrics(report, summary, spans, packets_seen)
    coverage(report, spans, traced_ns, untraced_ns, len(traced))
    for name in ("punt_share", "runtime.cache.hit_rate"):
        report.metric(name, 0.0, "ratio")
    for name in ("runtime.cache.evictions", "runtime.cache.refills",
                 "tables.replicated_entries"):
        report.metric(name, 0, "count")
    for flavour in packets.FEATURE_FLAVOURS:
        report.metric(f"features.{flavour}.us_per_pkt", 0.0, "us")
    report.metric("telemetry.off_us_per_pkt", 0.0, "us")
    report.metric("telemetry.on_us_per_pkt", 0.0, "us")
    report.metric("ir.interp.us_per_pkt",
                  _us_per(summary, "ir.interp"), "us")
    report.metric("gauntlet.deploy_ms",
                  _us_per(summary, "gauntlet.deploy") / 1e3, "ms")
    report.note("largest_program_lines", max(run.lines for run in traced))
    compiler_layers(report, instructions=[run.instructions for run in traced],
                    spans=spans)
    spans.write(Path(".perfbench") / f"spans-gauntlet-{args.seed}.jsonl")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source_root = Path.cwd() / "src"
    if not (source_root / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source_root))
    sys.path.insert(0, str(HERE))
    report = Report()
    if args.workload == "gauntlet":
        gauntlet_run(args, report)
    else:
        packet_run(args.workload, args, report)
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
