"""The compiled fast-path engine vs. the IR interpreter (the oracle).

``repro.ir.compile`` specializes each lowered function into per-block
Python closures; these tests pin its contract: byte-identical results —
verdict, egress, step counts, executed instruction ids, final register
environment, packet bytes, and state journal — on every program, plus
the edge semantics (undefined registers, step limits, deep-trace
fallback) that are easy to lose in specialization.
"""

import gc
import weakref

import pytest

from repro.ir import instructions as irin
from repro.ir.builder import FunctionBuilder
from repro.ir.compile import CompiledFunction, compile_function
from repro.ir.externs import ExternHost
from repro.ir.interp import (
    Interpreter,
    InterpreterError,
    PacketView,
    StateStore,
)
from repro.ir.values import Const, Reg
from repro.lang.types import UINT32
from repro.workloads import IperfWorkload, middlebox_stream
from tests.conftest import get_bundle
from tests.ir.test_interp import lower


def both_ways(lowered, packets, collect_ids=True):
    """Run ``lowered.process`` through interpreter and compiled engine on
    the same stream with independent state; return the paired results."""
    states = [StateStore(lowered.state), StateStore(lowered.state)]
    for state in states:
        if lowered.configure is not None:
            Interpreter(lowered.configure, state, ExternHost()).run()
        state.drain_journal()
    compiled = compile_function(lowered.process)
    pairs = []
    for packet, port in packets:
        left, right = packet.copy(), packet.copy()
        left.ingress_port = right.ingress_port = port
        a = Interpreter(lowered.process, states[0], ExternHost()).run(
            PacketView(left), collect_ids=collect_ids
        )
        b = compiled.run(
            states[1], ExternHost(), packet=PacketView(right),
            collect_ids=collect_ids,
        )
        pairs.append((a, b, left, right))
    return pairs, states


class TestBundledMiddleboxEquivalence:
    def test_byte_identical_on_stream(self, middlebox_name):
        lowered = get_bundle(middlebox_name).lowered
        from itertools import islice

        stream = list(
            islice(middlebox_stream(middlebox_name, IperfWorkload()), 60)
        )
        pairs, states = both_ways(lowered, stream)
        for a, b, left, right in pairs:
            assert a.verdict == b.verdict
            assert a.egress_port == b.egress_port
            assert a.instructions_executed == b.instructions_executed
            assert a.executed_ids == b.executed_ids
            assert a.env == b.env
            assert left.pack() == right.pack()
        assert states[0].drain_journal() == states[1].drain_journal()
        assert states[0].snapshot() == states[1].snapshot()


class TestCompiledEdgeSemantics:
    def test_undefined_register_message_matches(self):
        builder = FunctionBuilder("broken")
        dst = builder.fresh_temp(UINT32)
        builder.emit(irin.Assign(dst, Reg("ghost", UINT32)))
        builder.emit(irin.Return())
        with pytest.raises(InterpreterError) as interp_err:
            Interpreter(builder.function, StateStore({})).run()
        with pytest.raises(InterpreterError) as compiled_err:
            compile_function(builder.function).run(StateStore({}))
        assert str(interp_err.value) == str(compiled_err.value)

    def test_step_limit_message_matches(self):
        lowered = lower("while (1) { } pkt->send();")
        state = StateStore(lowered.state)
        with pytest.raises(InterpreterError) as interp_err:
            Interpreter(lowered.process, state).run()
        with pytest.raises(InterpreterError) as compiled_err:
            compile_function(lowered.process).run(StateStore(lowered.state))
        assert "step limit" in str(compiled_err.value)
        assert str(interp_err.value) == str(compiled_err.value)

    def test_packet_access_without_packet_raises(self):
        lowered = lower(
            "iphdr *ip = pkt->network_header(); ip->ttl = 1; pkt->send();"
        )
        with pytest.raises(InterpreterError, match="without a packet"):
            compile_function(lowered.process).run(StateStore(lowered.state))

    def test_compile_cache_reuses_object(self):
        lowered = lower("pkt->send();")
        assert compile_function(lowered.process) is compile_function(
            lowered.process
        )
        assert isinstance(compile_function(lowered.process), CompiledFunction)

    def test_compiled_function_is_freed_with_its_function(self):
        lowered = lower("uint32_t a = 1 + 2; pkt->send();")
        function = lowered.process
        compiled = compile_function(function)
        function_ref = weakref.ref(function)
        compiled_ref = weakref.ref(compiled)
        del lowered, function, compiled
        gc.collect()
        assert function_ref() is None
        assert compiled_ref() is None

    def test_fused_jump_chain_keeps_step_accounting(self):
        # if/else reconverges through jumps: superblock fusion must not
        # change the executed-id sequence or the step count.
        lowered = lower(
            "iphdr *ip = pkt->network_header();"
            " if (ip->ttl > 3) { ip->ttl = ip->ttl - 1; }"
            " else { ip->tos = 7; }"
            " ip->id = 99; pkt->send();"
        )
        from repro.net.addresses import ip as ip_addr
        from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
        from repro.net.packet import RawPacket

        packet = RawPacket.make_tcp(
            EthernetHeader(),
            Ipv4Header(saddr=ip_addr("10.0.0.1"), daddr=ip_addr("10.0.0.2")),
            TcpHeader(sport=1, dport=2),
            b"x",
        )
        pairs, _ = both_ways(lowered, [(packet, 1)])
        a, b, _, _ = pairs[0]
        assert a.executed_ids == b.executed_ids
        assert a.instructions_executed == b.instructions_executed

    def test_deep_tracer_falls_back_to_interpreter(self):
        from repro.telemetry import Telemetry

        lowered = lower("pkt->drop();")
        telemetry = Telemetry(tracing=True, deep=True)
        state = StateStore(lowered.state)
        state.tracer = telemetry.tracer
        telemetry.tracer.begin_packet(0)
        result = compile_function(lowered.process).run(state)
        assert result.verdict == "drop"
        # Deep tracing demands one event per executed instruction — only
        # the interpreter emits those, so the fallback must have run.
        assert any(
            event.kind == "exec" for event in telemetry.tracer.events
        )


class TestGeneratedProgramEquivalence:
    def test_compiled_gauntlet_slice_is_clean(self):
        from repro.difftest import run_compiled_gauntlet

        stats, failures = run_compiled_gauntlet(runs=12, seed=101, packets=15)
        assert failures == []
        assert stats.diverge == 0
        assert stats.crash == 0
        assert stats.agree == 12
