"""P4-16 text emission.

Emits one deployable program per middlebox containing both the pre- and
post-processing partitions, dispatched on the packet's ingress interface
(§4.3.1: "Gallium creates a match-action table that matches on the ingress
interface of the packet at the beginning of the processing pipeline").

Mapping (paper Figure 6):

==========================  =======================================
CFG construct               P4 construct
==========================  =======================================
temporary variable          ``meta.<name>`` scratchpad field
map                         exact-match table (+ write-back table)
global scalar               ``register`` extern
branch                      ``if`` in the apply block
header access               ``hdr.<header>.<field>``
ALU operation               P4 arithmetic on metadata
map lookup                  key copy + ``table.apply()``
==========================  =======================================

Replicated tables get the §4.3.3 write-back machinery: a small companion
table, a one-bit visibility register, and a lookup sequence that consults
the write-back table first when the bit is set.

The behavioral switch model executes the (equivalent) IR directly; this
emitter produces the artifact a real deployment would compile with the
Tofino SDK, and the LoC accounting for Table 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.reachability import compute_reachability
from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.values import Const, Reg
from repro.partition.projection import _immediate_postdominator
from repro.switchsim.program import SwitchProgram

_HEADER_FIELDS = {
    "ip": {
        "saddr": "hdr.ipv4.srcAddr",
        "daddr": "hdr.ipv4.dstAddr",
        "protocol": "hdr.ipv4.protocol",
        "ttl": "hdr.ipv4.ttl",
        "tos": "hdr.ipv4.diffserv",
        "tot_len": "hdr.ipv4.totalLen",
        "id": "hdr.ipv4.identification",
        "frag_off": "hdr.ipv4.fragOffset",
        "check": "hdr.ipv4.hdrChecksum",
        "version": "hdr.ipv4.version",
        "ihl": "hdr.ipv4.ihl",
    },
    "tcp": {
        "sport": "hdr.tcp.srcPort",
        "dport": "hdr.tcp.dstPort",
        "seq": "hdr.tcp.seqNo",
        "ack_seq": "hdr.tcp.ackNo",
        "doff": "hdr.tcp.dataOffset",
        "flags": "hdr.tcp.flags",
        "window": "hdr.tcp.window",
        "check": "hdr.tcp.checksum",
        "urg_ptr": "hdr.tcp.urgentPtr",
    },
    "udp": {
        "sport": "hdr.udp.srcPort",
        "dport": "hdr.udp.dstPort",
        "len": "hdr.udp.length",
        "check": "hdr.udp.checksum",
    },
    "eth": {
        "h_dest": "hdr.ethernet.dstAddr",
        "h_source": "hdr.ethernet.srcAddr",
        "h_proto": "hdr.ethernet.etherType",
    },
    "meta": {
        "ingress_port": "standard_metadata.ingress_port",
    },
}

_BINOP_TEXT = {
    irin.BinOpKind.ADD: "+",
    irin.BinOpKind.SUB: "-",
    irin.BinOpKind.AND: "&",
    irin.BinOpKind.OR: "|",
    irin.BinOpKind.XOR: "^",
    irin.BinOpKind.SHL: "<<",
    irin.BinOpKind.SHR: ">>",
    irin.BinOpKind.EQ: "==",
    irin.BinOpKind.NE: "!=",
    irin.BinOpKind.LT: "<",
    irin.BinOpKind.LE: "<=",
    irin.BinOpKind.GT: ">",
    irin.BinOpKind.GE: ">=",
    irin.BinOpKind.LAND: "&&",
    irin.BinOpKind.LOR: "||",
}


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _width_of_reg(reg: Reg) -> int:
    bits = reg.type.bit_width() if hasattr(reg.type, "bit_width") else 32
    return max(1, bits)


class _P4Emitter:
    def __init__(self, program: SwitchProgram, server_port: int = 3):
        self.program = program
        self.server_port = server_port
        self.lines: List[str] = []
        self.indent = 0
        self.meta_fields: Dict[str, int] = {}
        self._collect_metadata()

    # -- utilities -----------------------------------------------------------

    def emit(self, text: str = "") -> None:
        self.lines.append(("    " * self.indent + text).rstrip())

    def block(self, header: str):
        emitter = self

        class _Block:
            def __enter__(self_inner):
                emitter.emit(header + " {")
                emitter.indent += 1

            def __exit__(self_inner, *exc):
                emitter.indent -= 1
                emitter.emit("}")

        return _Block()

    def _collect_metadata(self) -> None:
        for function in (self.program.pre, self.program.post):
            for inst in function.instructions():
                for reg in self._regs_of(inst):
                    width = _width_of_reg(reg)
                    name = _sanitize(reg.name)
                    self.meta_fields[name] = max(
                        self.meta_fields.get(name, 0), width
                    )
        # Key-copy fields for each table.
        for name, spec in self.program.tables.items():
            for index, width in enumerate(spec.key_widths):
                self.meta_fields[f"key_{name}_{index}"] = width
            self.meta_fields[f"hit_{name}"] = 1
            self.meta_fields[f"val_{name}"] = max(spec.value_width, 1)
            self.meta_fields[f"wb_visible_{name}"] = 1

    @staticmethod
    def _regs_of(inst: irin.Instruction) -> List[Reg]:
        return [op for op in inst.operands() if isinstance(op, Reg)] + inst.defs()

    def _operand(self, operand, width: Optional[int] = None) -> str:
        if isinstance(operand, Const):
            bits = width or (
                operand.type.bit_width()
                if hasattr(operand.type, "bit_width")
                else 32
            )
            return f"{max(bits, 1)}w{operand.value}"
        return f"meta.{_sanitize(operand.name)}"

    # -- top level ----------------------------------------------------------------

    def render(self) -> str:
        self.emit("/* Auto-generated by the Gallium reproduction compiler. */")
        self.emit(f"/* Middlebox: {self.program.name} */")
        self.emit("#include <core.p4>")
        self.emit("#include <v1model.p4>")
        self.emit()
        self._emit_headers()
        self._emit_metadata()
        self._emit_parser()
        self._emit_ingress()
        self._emit_fixups()
        return "\n".join(self.lines) + "\n"

    # -- headers --------------------------------------------------------------------

    def _emit_headers(self) -> None:
        with self.block("header ethernet_t"):
            self.emit("bit<48> dstAddr;")
            self.emit("bit<48> srcAddr;")
            self.emit("bit<16> etherType;")
        self.emit()
        for layout, type_name in (
            (self.program.shim_to_server, "gallium_to_server_t"),
            (self.program.shim_to_switch, "gallium_to_switch_t"),
        ):
            with self.block(f"header {type_name}"):
                total = 0
                for field in layout.fields:
                    self.emit(
                        f"bit<{field.width_bits}> {_sanitize(field.name)};"
                    )
                    total += field.width_bits
                pad = layout.byte_size * 8 - total
                if pad > 0:
                    self.emit(f"bit<{pad}> _pad;")
                self.emit("bit<16> innerEtherType;")
            self.emit()
        with self.block("header ipv4_t"):
            for line in (
                "bit<4> version;", "bit<4> ihl;", "bit<8> diffserv;",
                "bit<16> totalLen;", "bit<16> identification;",
                "bit<3> flags;", "bit<13> fragOffset;", "bit<8> ttl;",
                "bit<8> protocol;", "bit<16> hdrChecksum;",
                "bit<32> srcAddr;", "bit<32> dstAddr;",
            ):
                self.emit(line)
        self.emit()
        with self.block("header tcp_t"):
            for line in (
                "bit<16> srcPort;", "bit<16> dstPort;", "bit<32> seqNo;",
                "bit<32> ackNo;", "bit<4> dataOffset;", "bit<4> res;",
                "bit<8> flags;", "bit<16> window;", "bit<16> checksum;",
                "bit<16> urgentPtr;",
            ):
                self.emit(line)
        self.emit()
        with self.block("header udp_t"):
            for line in (
                "bit<16> srcPort;", "bit<16> dstPort;",
                "bit<16> length;", "bit<16> checksum;",
            ):
                self.emit(line)
        self.emit()
        with self.block("struct headers_t"):
            self.emit("ethernet_t ethernet;")
            self.emit("gallium_to_server_t shim_to_server;")
            self.emit("gallium_to_switch_t shim_to_switch;")
            self.emit("ipv4_t ipv4;")
            self.emit("tcp_t tcp;")
            self.emit("udp_t udp;")
        self.emit()

    def _emit_metadata(self) -> None:
        with self.block("struct metadata_t"):
            for name in sorted(self.meta_fields):
                self.emit(f"bit<{self.meta_fields[name]}> {name};")
        self.emit()

    def _emit_parser(self) -> None:
        with self.block(
            "parser GalliumParser(packet_in pkt, out headers_t hdr,"
            " inout metadata_t meta,"
            " inout standard_metadata_t standard_metadata)"
        ):
            with self.block("state start"):
                self.emit("pkt.extract(hdr.ethernet);")
                with self.block("transition select(hdr.ethernet.etherType)"):
                    self.emit("0x0800: parse_ipv4;")
                    self.emit("0x88B5: parse_shim;")
                    self.emit("default: accept;")
            with self.block("state parse_shim"):
                self.emit("pkt.extract(hdr.shim_to_switch);")
                self.emit("transition parse_ipv4;")
            with self.block("state parse_ipv4"):
                self.emit("pkt.extract(hdr.ipv4);")
                with self.block("transition select(hdr.ipv4.protocol)"):
                    self.emit("8w6: parse_tcp;")
                    self.emit("8w17: parse_udp;")
                    self.emit("default: accept;")
            with self.block("state parse_tcp"):
                self.emit("pkt.extract(hdr.tcp);")
                self.emit("transition accept;")
            with self.block("state parse_udp"):
                self.emit("pkt.extract(hdr.udp);")
                self.emit("transition accept;")
        self.emit()

    # -- tables / registers --------------------------------------------------------

    def _emit_table(self, name: str) -> None:
        spec = self.program.tables[name]
        action_set = f"set_val_{name}"
        with self.block(f"action {action_set}(bit<{max(spec.value_width, 1)}> value)"):
            self.emit(f"meta.hit_{name} = 1;")
            self.emit(f"meta.val_{name} = value;")
        with self.block(f"action miss_{name}()"):
            self.emit(f"meta.hit_{name} = 0;")
        with self.block(f"table tbl_{name}"):
            with self.block("key ="):
                for index in range(len(spec.key_widths)):
                    self.emit(f"meta.key_{name}_{index}: exact;")
            with self.block("actions ="):
                self.emit(f"{action_set};")
                self.emit(f"miss_{name};")
            self.emit(f"default_action = miss_{name}();")
            self.emit(f"size = {max(spec.size, 1)};")
        if spec.replicated:
            # Write-back companion (paper 4.3.3): gated by a visibility bit
            # copied into the key, so a cleared bit matches nothing.
            self.emit(f"register<bit<1>>(1) wb_bit_{name};")
            with self.block(f"table tbl_wb_{name}"):
                with self.block("key ="):
                    self.emit(f"meta.wb_visible_{name}: exact;")
                    for index in range(len(spec.key_widths)):
                        self.emit(f"meta.key_{name}_{index}: exact;")
                with self.block("actions ="):
                    self.emit(f"{action_set};")
                    self.emit(f"miss_{name};")
                self.emit(f"default_action = miss_{name}();")
                self.emit(f"size = {max(spec.size // 16, 16)};")
        self.emit()

    def _emit_registers(self) -> None:
        for name, spec in self.program.registers.items():
            self.emit(f"register<bit<{spec.width_bits}>>(1) reg_{name};")
        if self.program.registers:
            self.emit()

    # -- pipeline bodies --------------------------------------------------------

    def _emit_ingress(self) -> None:
        with self.block(
            "control GalliumIngress(inout headers_t hdr,"
            " inout metadata_t meta,"
            " inout standard_metadata_t standard_metadata)"
        ):
            for name in sorted(self.program.tables):
                self._emit_table(name)
            self._emit_registers()
            with self.block("apply"):
                with self.block(
                    f"if (standard_metadata.ingress_port == {self.server_port})"
                ):
                    self._emit_post_dispatch()
                with self.block("else"):
                    self._emit_pipeline(self.program.pre, punt=True)
        self.emit()

    def _emit_post_dispatch(self) -> None:
        shim = "hdr.shim_to_switch"
        self.emit("/* returning from the middlebox server */")
        with self.block(f"if ({shim}.__verdict == 2)"):
            self.emit("mark_to_drop(standard_metadata);")
        with self.block(f"else if ({shim}.__verdict == 1)"):
            self.emit(
                f"standard_metadata.egress_spec ="
                f" (bit<9>){shim}.__egress_port;"
            )
            self.emit(f"{shim}.setInvalid();")
        with self.block("else"):
            for field in self.program.shim_to_switch.fields:
                if field.name.startswith("__"):
                    continue
                self.emit(
                    f"meta.{_sanitize(field.name)} ="
                    f" {shim}.{_sanitize(field.name)};"
                )
            self._emit_pipeline(self.program.post, punt=False)
            self.emit(f"{shim}.setInvalid();")

    def _emit_pipeline(self, function: Function, punt: bool) -> None:
        info = compute_reachability(function)
        emitted: Set[str] = set()
        self._emit_region(function, function.entry, None, info, emitted, punt)

    def _emit_region(
        self,
        function: Function,
        block_name: Optional[str],
        stop: Optional[str],
        info,
        emitted: Set[str],
        punt: bool,
    ) -> None:
        while block_name is not None and block_name != stop:
            block = function.blocks[block_name]
            for inst in block.body:
                self._emit_instruction(inst)
            terminator = block.terminator
            if isinstance(terminator, irin.Jump):
                block_name = terminator.target
            elif isinstance(terminator, irin.Branch):
                join = _immediate_postdominator(
                    function, info.postdominators, block_name
                )
                cond = self._operand(terminator.cond, width=1)
                with self.block(f"if ({cond} == 1)"):
                    self._emit_region(
                        function, terminator.if_true, join, info, emitted, punt
                    )
                with self.block("else"):
                    self._emit_region(
                        function, terminator.if_false, join, info, emitted, punt
                    )
                block_name = join
            elif isinstance(terminator, (irin.Send, irin.SendTo)):
                if isinstance(terminator, irin.SendTo):
                    self.emit(
                        "standard_metadata.egress_spec ="
                        f" (bit<9>){self._operand(terminator.port)};"
                    )
                else:
                    self.emit("/* forward on the wire pair */")
                    self.emit(
                        "standard_metadata.egress_spec ="
                        " (standard_metadata.ingress_port == 1) ? 9w2 : 9w1;"
                    )
                return
            elif isinstance(terminator, irin.Drop):
                self.emit("mark_to_drop(standard_metadata);")
                return
            elif isinstance(terminator, irin.Return):
                if punt:
                    self._emit_punt()
                return
            else:
                return

    def _emit_punt(self) -> None:
        shim = "hdr.shim_to_server"
        self.emit("/* punt to the middlebox server with the shim header */")
        self.emit(f"{shim}.setValid();")
        self.emit(f"{shim}.innerEtherType = hdr.ethernet.etherType;")
        self.emit("hdr.ethernet.etherType = 0x88B5;")
        for field in self.program.shim_to_server.fields:
            name = _sanitize(field.name)
            if field.name == "__ingress_port":
                self.emit(
                    f"{shim}.{name} ="
                    " (bit<8>)standard_metadata.ingress_port;"
                )
            elif field.name.startswith("__"):
                self.emit(f"{shim}.{name} = 0;")
            else:
                self.emit(f"{shim}.{name} = meta.{name};")
        self.emit(f"standard_metadata.egress_spec = {self.server_port};")

    def _emit_instruction(self, inst: irin.Instruction) -> None:
        if isinstance(inst, irin.Assign):
            self.emit(
                f"meta.{_sanitize(inst.dst.name)} ="
                f" {self._operand(inst.src, _width_of_reg(inst.dst))};"
            )
        elif isinstance(inst, irin.BinOp):
            width = _width_of_reg(inst.dst)
            op = _BINOP_TEXT[inst.op]
            lhs = self._operand(inst.lhs)
            rhs = self._operand(inst.rhs)
            if inst.op.is_comparison or inst.op in (
                irin.BinOpKind.LAND, irin.BinOpKind.LOR
            ):
                if inst.op in (irin.BinOpKind.LAND, irin.BinOpKind.LOR):
                    lhs = f"({lhs} == 1)"
                    rhs = f"({rhs} == 1)"
                self.emit(
                    f"meta.{_sanitize(inst.dst.name)} ="
                    f" ({lhs} {op} {rhs}) ? 1w1 : 1w0;"
                )
            else:
                self.emit(
                    f"meta.{_sanitize(inst.dst.name)} = ({lhs}) {op} ({rhs});"
                )
        elif isinstance(inst, irin.UnOp):
            dst = f"meta.{_sanitize(inst.dst.name)}"
            src = self._operand(inst.src)
            if inst.op is irin.UnOpKind.NOT:
                self.emit(f"{dst} = ~({src});")
            elif inst.op is irin.UnOpKind.LNOT:
                self.emit(f"{dst} = ({src} == 0) ? 1w1 : 1w0;")
            else:
                self.emit(f"{dst} = -({src});")
        elif isinstance(inst, irin.Cast):
            width = _width_of_reg(inst.dst)
            self.emit(
                f"meta.{_sanitize(inst.dst.name)} ="
                f" (bit<{width}>)({self._operand(inst.src)});"
            )
        elif isinstance(inst, irin.LoadPacketField):
            source = _HEADER_FIELDS[inst.region][inst.field]
            width = _width_of_reg(inst.dst)
            self.emit(
                f"meta.{_sanitize(inst.dst.name)} = (bit<{width}>){source};"
            )
        elif isinstance(inst, irin.StorePacketField):
            target = _HEADER_FIELDS[inst.region][inst.field]
            self.emit(f"{target} = {self._operand(inst.src)};")
        elif isinstance(inst, irin.MapFind):
            self._emit_lookup(inst)
        elif isinstance(inst, irin.VectorGet):
            name = inst.state
            self.emit(
                f"meta.key_{name}_0 = (bit<32>){self._operand(inst.index)};"
            )
            self.emit(f"tbl_{name}.apply();")
            self.emit(
                f"meta.{_sanitize(inst.dst.name)} = meta.val_{name};"
            )
        elif isinstance(inst, irin.LoadState):
            self.emit(
                f"reg_{inst.state}.read(meta.{_sanitize(inst.dst.name)}, 0);"
            )
        elif isinstance(inst, irin.RegisterRMW):
            dst = f"meta.{_sanitize(inst.dst.name)}"
            op = _BINOP_TEXT[inst.op]
            self.emit(f"reg_{inst.state}.read({dst}, 0);")
            self.emit(
                f"reg_{inst.state}.write(0, ({dst}) {op}"
                f" ({self._operand(inst.operand)}));"
            )
        else:
            self.emit(f"/* unsupported: {type(inst).__name__} */")

    def _emit_lookup(self, inst: irin.MapFind) -> None:
        name = inst.state
        spec = self.program.tables[name]
        for index, key in enumerate(inst.keys):
            width = spec.key_widths[index]
            self.emit(
                f"meta.key_{name}_{index} ="
                f" (bit<{width}>){self._operand(key)};"
            )
        if spec.replicated:
            self.emit(f"wb_bit_{name}.read(meta.wb_visible_{name}, 0);")
            self.emit(f"tbl_wb_{name}.apply();")
            with self.block(f"if (meta.hit_{name} == 0)"):
                self.emit(f"tbl_{name}.apply();")
        else:
            self.emit(f"tbl_{name}.apply();")
        self.emit(f"meta.{_sanitize(inst.found.name)} = meta.hit_{name};")
        if inst.value is not None:
            self.emit(
                f"meta.{_sanitize(inst.value.name)} = meta.val_{name};"
            )

    def _emit_fixups(self) -> None:
        with self.block(
            "control GalliumEgress(inout headers_t hdr, inout metadata_t meta,"
            " inout standard_metadata_t standard_metadata)"
        ):
            with self.block("apply"):
                self.emit("/* no egress processing */")
        self.emit()
        with self.block(
            "control GalliumChecksum(inout headers_t hdr, inout metadata_t meta)"
        ):
            with self.block("apply"):
                self.emit("update_checksum(hdr.ipv4.isValid(),")
                self.emit("    { hdr.ipv4.version, hdr.ipv4.ihl,")
                self.emit("      hdr.ipv4.diffserv, hdr.ipv4.totalLen,")
                self.emit("      hdr.ipv4.identification, hdr.ipv4.flags,")
                self.emit("      hdr.ipv4.fragOffset, hdr.ipv4.ttl,")
                self.emit("      hdr.ipv4.protocol, hdr.ipv4.srcAddr,")
                self.emit("      hdr.ipv4.dstAddr },")
                self.emit("    hdr.ipv4.hdrChecksum, HashAlgorithm.csum16);")
        self.emit()
        with self.block(
            "control GalliumDeparser(packet_out pkt, in headers_t hdr)"
        ):
            with self.block("apply"):
                self.emit("pkt.emit(hdr.ethernet);")
                self.emit("pkt.emit(hdr.shim_to_server);")
                self.emit("pkt.emit(hdr.shim_to_switch);")
                self.emit("pkt.emit(hdr.ipv4);")
                self.emit("pkt.emit(hdr.tcp);")
                self.emit("pkt.emit(hdr.udp);")
        self.emit()
        self.emit(
            "V1Switch(GalliumParser(), GalliumChecksum(), GalliumIngress(),"
        )
        self.emit(
            "         GalliumEgress(), GalliumChecksum(), GalliumDeparser())"
        )
        self.emit("main;")


def emit_p4_program(program: SwitchProgram, server_port: int = 3) -> str:
    """Render the combined pre+post P4-16 program."""
    return _P4Emitter(program, server_port).render()
