"""The ``gauntlet`` workload: generated programs through the compiler.

Each operation is one program from ``difftest.generator.generate_source``:
``compile_source(verify=True)``, then a short seeded stream through the
interpreter baseline (``FastClickRuntime``) and the compiled deployment
(``GalliumMiddlebox`` on the compiled engine).  The per-packet verdict,
egress port and observed header fields, and the final state, are compared
after the operation's timer stops.

The draw is seeded and stratified by size.  Each run first
compiles one large program (100-110 lines, where label removal is
superlinear); its time is reported on its own because one such program
can cost as much as a hundred ordinary ones.  The timed loop then runs a
fixed set of programs of 40-80 IR instructions, the same number from
each band of ten instructions, so every seed measures the same kind of
work.  It runs the whole set round after round for ``--seconds``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, List, Optional, Tuple

from repro.difftest.generator import generate_source
from repro.difftest.oracle import OBSERVED_FIELDS, StreamSpec
from repro.ir.interp import PacketView

#: Source lines of the large program.
LARGE = (100, 110)
#: IR instructions of the main draw: compile cost varies about 3x
#: within this band, against 8x or more within any band of source lines.
MAIN = (40, 80)
#: The main set takes this many programs from each band of ten
#: instructions in ``MAIN`` (the last band includes 80).
PER_BAND = 24
BANDS = (MAIN[1] - MAIN[0]) // 10
#: Source lines outside which no program falls in ``MAIN`` (a cheap
#: filter before lowering a candidate).
MAIN_LINES = (18, 55)
#: Main-set programs in the fixed passes of the traced run (the large
#: program comes first).
FIXED_PROGRAMS = 8
STREAM_PACKETS = 25
_PORT_PAIRS = {1: 2, 2: 1}
#: Decorrelates per-draw generator seeds from the workload seed.
_SEED_STRIDE = 1_000_003


def source_lines(source: str) -> int:
    return source.count("\n") + (0 if source.endswith("\n") else 1)


def ir_size(source: str) -> int:
    """Instructions in the lowered ``process`` function."""
    from repro.ir.lowering import lower_program
    from repro.lang.parser import parse_program

    lowered = lower_program(parse_program(source, "<draw>"))
    return sum(1 for _ in lowered.process.instructions())


def main_band(source: str) -> Optional[int]:
    """Index of the ``MAIN`` band of ten instructions ``source`` falls in,
    or None.  A program that fails to lower goes in the first band, so
    the timed run records the failure."""
    if not MAIN_LINES[0] <= source_lines(source) <= MAIN_LINES[1]:
        return None
    try:
        size = ir_size(source)
    except Exception:
        return 0
    if not MAIN[0] <= size <= MAIN[1]:
        return None
    return min((size - MAIN[0]) // 10, BANDS - 1)


def _candidates(seed: int) -> Iterator[Tuple[int, str]]:
    """(generator seed, source) of the workload seed's programs."""
    index = 0
    while True:
        program_seed = seed * _SEED_STRIDE + index
        yield program_seed, generate_source(program_seed)
        index += 1


def large_program(seed: int) -> Tuple[int, str]:
    """The first of the seed's programs with ``LARGE`` source lines."""
    return next(
        (program_seed, source) for program_seed, source in _candidates(seed)
        if LARGE[0] <= source_lines(source) <= LARGE[1]
    )


def main_set(seed: int) -> Iterator[Tuple[int, str]]:
    """(generator seed, source) of the main set in draw order:
    ``PER_BAND`` programs from each band."""
    filled = [0] * BANDS
    for program_seed, source in _candidates(seed):
        band = main_band(source)
        if band is not None and filled[band] < PER_BAND:
            filled[band] += 1
            yield program_seed, source
            if sum(filled) == PER_BAND * BANDS:
                return


def fixed_draw(seed: int) -> List[Tuple[int, str]]:
    """The large program, then the first ``FIXED_PROGRAMS`` of the main
    set."""
    return [large_program(seed)] + list(islice(main_set(seed),
                                               FIXED_PROGRAMS))


@dataclass
class ProgramRun:
    program_seed: int
    lines: int
    instructions: int = 0
    elapsed_ns: int = 0
    packets: int = 0
    sim_us: float = 0.0
    error: Optional[str] = None
    #: why the compiler refused the program (a resource budget it cannot
    #: meet): a correct outcome, as in the difftest oracle, not a failure
    rejected: Optional[str] = None


def _fields(packet) -> tuple:
    view = PacketView(packet)
    return tuple(view.get_field(region, name) for region, name in OBSERVED_FIELDS)


def _observe(verdict, port, packet) -> tuple:
    if verdict != "send":
        return ("drop",)
    return ("send", port, _fields(packet))


def run_program(program_seed: int, source: str, compile_fn=None,
                wrap=None, timer=nullcontext) -> ProgramRun:
    """Compile, deploy and differentially run one generated program.

    ``compile_fn`` replaces ``compile_source`` (the traced run passes its
    stage-by-stage compile), ``wrap`` instruments the two runtimes, and
    ``timer`` is entered around the timed region.
    """
    from repro.compiler import compile_source
    from repro.partition.partitioner import PartitionError
    from repro.runtime.baseline import FastClickRuntime
    from repro.runtime.deployment import GalliumMiddlebox
    from repro.switchsim.program import SwitchProgramError

    run = ProgramRun(program_seed, source_lines(source))
    stream = StreamSpec(seed=program_seed ^ 0x5EED,
                        count=STREAM_PACKETS).build()
    copies = [(packet.copy(), port) for packet, port in stream]
    base_results = []
    journeys = []
    started = time.perf_counter_ns()
    try:
        with timer():
            result = (compile_fn or compile_source)(source)
            baseline = FastClickRuntime(result.lowered)
            baseline.install()
            deployment = GalliumMiddlebox(
                result.plan, result.switch_program, fast_path=True
            )
            deployment.install()
            if wrap is not None:
                wrap(baseline, deployment)
            for (packet, port), (copy, _) in zip(stream, copies):
                base_results.append(baseline.process_packet(copy, port))
                journeys.append(deployment.process_packet(packet, port))
    except (PartitionError, SwitchProgramError) as exc:
        run.elapsed_ns = time.perf_counter_ns() - started
        run.rejected = f"{type(exc).__name__}: {exc}"
        return run
    except Exception as exc:  # a crash is a failed operation
        run.elapsed_ns = time.perf_counter_ns() - started
        run.error = f"{type(exc).__name__}: {exc}"
        return run
    run.elapsed_ns = time.perf_counter_ns() - started
    run.instructions = sum(1 for _ in result.lowered.process.instructions())
    run.packets = len(stream)
    run.sim_us = deployment.telemetry.clock.now_us
    run.error = _compare(stream, copies, base_results, journeys,
                         baseline, deployment)
    return run


def _compare(stream, copies, base_results, journeys, baseline,
             deployment) -> Optional[str]:
    for index, ((packet, port), (copy, _), base, journey) in enumerate(
        zip(stream, copies, base_results, journeys)
    ):
        expected = _observe(
            base.verdict, base.egress_port or _PORT_PAIRS.get(port, port),
            copy,
        )
        if journey.verdict == "send" and journey.emitted:
            out_port, out_packet = journey.emitted[0]
            actual = _observe("send", out_port, out_packet)
        else:
            actual = _observe(journey.verdict, None, packet)
        if actual != expected:
            return f"packet {index}: baseline {expected[:2]} vs {actual[:2]}"
    base_state = baseline.state.snapshot()
    dut_state = deployment.state.snapshot()
    for name, register in deployment.switch.registers.items():
        placement = deployment.plan.placements.get(name)
        if placement is not None and placement.kind.value == "switch_register":
            dut_state["scalars"][name] = register.value
    for kind in ("maps", "scalars"):
        if base_state[kind] != dut_state[kind]:
            return f"final {kind} differ"
    return None


@dataclass
class GauntletLoop:
    large: ProgramRun
    #: the main set's runs, one list per round, in set order
    rounds: List[List[ProgramRun]] = field(default_factory=list)


def timed_loop(seed: int, seconds: float, pause: Callable[[int], object],
               mark: Callable[[], object]) -> GauntletLoop:
    """The large program once, then whole rounds of the main set until
    ``seconds`` of program time have passed.  ``pause`` is called,
    untimed, after each program with the main set's time so far, and
    ``mark`` after each round."""
    loop = GauntletLoop(run_program(*large_program(seed)))
    programs = list(main_set(seed))
    budget = int(seconds * 1e9)
    spent = 0
    while spent < budget:
        current = []
        for program in programs:
            current.append(run_program(*program))
            spent += current[-1].elapsed_ns
            pause(spent)
        loop.rounds.append(current)
        mark()
    return loop


def staged_compile(spans, source: str, filename: str = "<middlebox>"):
    """``compile_source(verify=True)`` as ``compile_lowered`` runs it, one
    span per stage (``lang.parse`` ... ``verify``)."""
    from repro.codegen.cpp import emit_cpp_program
    from repro.codegen.headers import synthesize_shim_layouts
    from repro.codegen.p4 import emit_p4_program
    from repro.compiler import CompilationResult
    from repro.ir.lowering import lower_program
    from repro.lang.parser import parse_program
    from repro.partition.partitioner import partition_middlebox
    from repro.switchsim.program import SwitchProgram
    from repro.verify import VerificationError, verify_compilation

    with spans.span("lang.parse"):
        program = parse_program(source, filename)
    with spans.span("ir.lowering"):
        lowered = lower_program(program)
    with spans.span("partition"):
        plan = partition_middlebox(lowered, None)
    with spans.span("codegen"):
        shim_to_server, shim_to_switch = synthesize_shim_layouts(
            plan.to_server, plan.to_switch
        )
        switch_program = SwitchProgram.from_plan(
            plan, shim_to_server, shim_to_switch
        )
        p4_source = emit_p4_program(switch_program)
        cpp_source = emit_cpp_program(plan, shim_to_server, shim_to_switch)
    result = CompilationResult(
        lowered=lowered, plan=plan, switch_program=switch_program,
        shim_to_server=shim_to_server, shim_to_switch=shim_to_switch,
        p4_source=p4_source, cpp_source=cpp_source,
    )
    with spans.span("verify"):
        report = verify_compilation(result)
        if not report.ok:
            raise VerificationError(report)
    return result


def instrument_compiler(spans) -> None:
    """Trace label removal and dependency-graph construction wherever the
    compiler calls them (undone by ``spans.restore()``)."""
    import repro.partition.partitioner as partitioner
    import repro.verify.invariants as invariants
    import repro.verify.p4lint as p4lint

    spans.patch(partitioner, "run_label_removal", "partition.labels")
    for module in (partitioner, invariants, p4lint):
        spans.patch(module, "build_dependency_graph", "analysis.depgraph")
