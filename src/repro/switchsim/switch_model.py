"""The full switch: ports, ingress dispatch, shim encap/decap.

Mirrors §4.3.1's combined P4 program: one pipeline whose first table
matches on the ingress interface — packets arriving from the middlebox
server run the post-processing partition; everything else runs the
pre-processing partition.

Shim headers ride between the Ethernet and IP headers on the switch↔server
link.  In the simulator the shim travels as packet metadata (the structured
``RawPacket`` stays intact for the inner headers), but the byte layout is
the real synthesized one — :meth:`SwitchModel.shim_wire_bytes` produces the
exact on-wire encoding and the test suite round-trips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.codegen.headers import (
    FLAG_VERDICT_DROP,
    FLAG_VERDICT_NONE,
    FLAG_VERDICT_SEND,
)
from repro.ir.interp import PacketView
from repro.net.headers import ETHERTYPE_GALLIUM, ETHERTYPE_IPV4
from repro.net.packet import RawPacket
from repro.sim.clock import PARSE_US, SWITCH_INSTR_US
from repro.switchsim.control_plane import ControlPlane
from repro.switchsim.pipeline import (
    PipelineExecutor,
    SwitchStateAdapter,
    TraversalResult,
)
from repro.switchsim.program import SwitchProgram
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable

SHIM_KEY = "gallium_shim"
SHIM_DIR_KEY = "gallium_shim_dir"


@dataclass
class SwitchOutput:
    """What the switch did with one received packet."""

    #: (egress_port, packet) pairs — empty when dropped or queued nowhere
    emitted: List[Tuple[int, RawPacket]] = field(default_factory=list)
    #: True when the packet completed on the switch without server help
    fast_path: bool = False
    #: True when the packet was punted to the server
    punted: bool = False
    dropped: bool = False
    pipeline_instructions: int = 0


class SwitchModel:
    """A deployed switch running one compiled Gallium program."""

    def __init__(
        self,
        program: SwitchProgram,
        server_port: int = 3,
        port_pairs: Optional[Dict[int, int]] = None,
        seed: int = 0,
        telemetry=None,
        fast_path: bool = False,
    ):
        from repro.telemetry import INSTRUCTION_BOUNDS, Telemetry

        self.program = program
        self.server_port = server_port
        #: middlebox wiring: ingress side -> default egress side
        self.port_pairs = port_pairs or {1: 2, 2: 1}
        self.fast_path = fast_path
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tables: Dict[str, ExactMatchTable] = {
            name: ExactMatchTable(name, spec.key_widths, spec.value_width,
                                  spec.size)
            for name, spec in program.tables.items()
        }
        self.registers: Dict[str, Register] = {
            name: Register(name, spec.width_bits)
            for name, spec in program.registers.items()
        }
        self.control_plane = ControlPlane(
            self.tables, self.registers, seed=seed, telemetry=self.telemetry
        )
        self.adapter = SwitchStateAdapter(self.tables, self.registers)
        self.adapter.tracer = self.telemetry.active_tracer
        from repro.switchsim.compiled import make_pipeline_executor

        self._pre = make_pipeline_executor(
            program.pre, self.adapter, program.needs_server_reg,
            fast_path=fast_path,
        )
        self._post = make_pipeline_executor(
            program.post, self.adapter, program.needs_server_reg,
            fast_path=fast_path,
        )
        # Counters (views over the deployment's metrics registry).
        metrics = self.telemetry.metrics
        self._c_fast = metrics.counter("switch.fast_path_packets")
        self._c_punted = metrics.counter("switch.punted_packets")
        self._c_post = metrics.counter("switch.post_packets")
        self._c_dropped = metrics.counter("switch.dropped_packets")
        self._h_pre = metrics.histogram("switch.pre_instructions",
                                        INSTRUCTION_BOUNDS)
        self._h_post = metrics.histogram("switch.post_instructions",
                                         INSTRUCTION_BOUNDS)
        # In-band telemetry source (None when INT is off).
        self._int = self.telemetry.active_int

    def _int_stamp(self, packet: RawPacket, hop: str, instructions: int,
                   latency_us: float, punted: bool = False) -> None:
        """Append one INT record to a sampled packet (no-op otherwise)."""
        if self._int is not None and self._int.stamping:
            self._int.stamp(packet, hop, instructions, latency_us,
                            punted=punted)

    @property
    def fast_path_packets(self) -> int:
        return self._c_fast.value

    @property
    def punted_packets(self) -> int:
        return self._c_punted.value

    @property
    def post_packets(self) -> int:
        return self._c_post.value

    @property
    def dropped_packets(self) -> int:
        return self._c_dropped.value

    # -- packet handling -------------------------------------------------------

    def receive(self, packet: RawPacket, ingress_port: int) -> SwitchOutput:
        packet.ingress_port = ingress_port
        if ingress_port == self.server_port:
            return self._receive_from_server(packet)
        return self._receive_from_network(packet, ingress_port)

    def _receive_from_network(
        self, packet: RawPacket, ingress_port: int
    ) -> SwitchOutput:
        tracer = self.adapter.tracer
        clock = self.telemetry.clock
        view = PacketView(packet)
        if tracer is not None:
            tracer.set_component("switch.parser")
            tracer.record(
                "parse", ingress_port=ingress_port,
                eth_type=packet.eth.ethertype,
                saddr=str(packet.ip.saddr) if packet.ip else None,
                daddr=str(packet.ip.daddr) if packet.ip else None,
                proto=packet.ip.protocol if packet.ip else None,
            )
            tracer.set_component("switch.pre")
        clock.advance(PARSE_US)
        result = self._pre.run(view)
        # A miss on a bounded cache table is not authoritative: punt.
        verdict = None if self.adapter.cache_missed else result.verdict
        clock.advance(result.instructions * SWITCH_INSTR_US)
        self._h_pre.observe(result.instructions)
        self._int_stamp(
            packet, "switch.pre", result.instructions,
            PARSE_US + result.instructions * SWITCH_INSTR_US,
            punted=verdict not in ("send", "drop"),
        )
        if verdict == "send":
            self._c_fast.inc()
            port = self._resolve_egress(result.egress_port, ingress_port)
            if tracer is not None:
                tracer.record("verdict", verdict="send",
                              port=result.egress_port or 0)
            return SwitchOutput(
                emitted=[(port, packet)],
                fast_path=True,
                pipeline_instructions=result.instructions,
            )
        if verdict == "drop":
            self._c_fast.inc()
            self._c_dropped.inc()
            if tracer is not None:
                tracer.record("verdict", verdict="drop", port=0)
            return SwitchOutput(
                fast_path=True, dropped=True,
                pipeline_instructions=result.instructions,
            )
        # Fell off the end: punt to the server with the to-server shim.
        self._c_punted.inc()
        values = {"__ingress_port": ingress_port}
        for shim_field in self.program.shim_to_server.fields:
            if shim_field.name.startswith("__"):
                continue
            values[shim_field.name] = result.env.get(shim_field.name, 0)
        packet.metadata[SHIM_KEY] = self.program.shim_to_server.encode(values)
        packet.metadata[SHIM_DIR_KEY] = "to_server"
        if tracer is not None:
            tracer.record("punt", reason="needs_server",
                          shim_bytes=len(packet.metadata[SHIM_KEY]))
        return SwitchOutput(
            emitted=[(self.server_port, packet)],
            punted=True,
            pipeline_instructions=result.instructions,
        )

    def _receive_from_server(self, packet: RawPacket) -> SwitchOutput:
        tracer = self.adapter.tracer
        shim_bytes = packet.metadata.pop(SHIM_KEY, b"")
        packet.metadata.pop(SHIM_DIR_KEY, None)
        values = self.program.shim_to_switch.decode(shim_bytes)
        self._c_post.inc()
        verdict_flag = values.get("__verdict", FLAG_VERDICT_NONE)
        original_ingress = values.get("__ingress_port", 1)
        if tracer is not None:
            tracer.set_component("switch.post")
        if verdict_flag == FLAG_VERDICT_DROP:
            self._c_dropped.inc()
            # The verdict was decided (and traced) server-side; the switch
            # only applies it, so this is not a second semantic verdict.
            if tracer is not None:
                tracer.record("apply_verdict", verdict="drop")
            self._int_stamp(packet, "switch.post", 0, 0.0)
            return SwitchOutput(dropped=True)
        if verdict_flag == FLAG_VERDICT_SEND:
            port = self._resolve_egress(
                values.get("__egress_port") or None, original_ingress
            )
            if tracer is not None:
                tracer.record("apply_verdict", verdict="send", port=port)
            self._int_stamp(packet, "switch.post", 0, 0.0)
            return SwitchOutput(emitted=[(port, packet)])
        # No verdict yet: run the post-processing pipeline with the
        # packet's original ingress annotation restored.
        packet.ingress_port = original_ingress
        view = PacketView(packet)
        env = {
            name: value
            for name, value in values.items()
            if not name.startswith("__")
        }
        result = self._post.run(view, initial_env=env)
        self.telemetry.clock.advance(result.instructions * SWITCH_INSTR_US)
        self._h_post.observe(result.instructions)
        self._int_stamp(
            packet, "switch.post", result.instructions,
            result.instructions * SWITCH_INSTR_US,
        )
        if result.verdict == "drop":
            self._c_dropped.inc()
            if tracer is not None:
                tracer.record("verdict", verdict="drop", port=0)
            return SwitchOutput(
                dropped=True, pipeline_instructions=result.instructions
            )
        if result.verdict == "send":
            port = self._resolve_egress(result.egress_port, original_ingress)
            if tracer is not None:
                tracer.record("verdict", verdict="send",
                              port=result.egress_port or 0)
            return SwitchOutput(
                emitted=[(port, packet)],
                pipeline_instructions=result.instructions,
            )
        # Defensive: a packet with no verdict anywhere is dropped.
        self._c_dropped.inc()
        if tracer is not None:
            tracer.record("defensive_drop")
        return SwitchOutput(
            dropped=True, pipeline_instructions=result.instructions
        )

    def _resolve_egress(self, explicit: Optional[int], ingress: int) -> int:
        if explicit:
            return explicit
        return self.port_pairs.get(ingress, ingress)

    # -- wire-format helpers (for byte-level tests / pcap export) ---------------

    def shim_wire_bytes(self, packet: RawPacket) -> bytes:
        """The exact on-wire frame for a shim-carrying packet.

        Layout: Ethernet header (EtherType = Gallium) | shim | original
        EtherType | rest of packet — the receiver restores the inner
        EtherType after stripping the shim.
        """
        shim = packet.metadata.get(SHIM_KEY, b"")
        eth = packet.eth.copy()
        inner_ethertype = eth.ethertype
        eth.ethertype = ETHERTYPE_GALLIUM
        inner = packet.pack()[14:]
        import struct

        return eth.pack() + shim + struct.pack("!H", inner_ethertype) + inner

    # -- stats -------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "fast_path": self.fast_path_packets,
            "punted": self.punted_packets,
            "post": self.post_packets,
            "dropped": self.dropped_packets,
        }
