"""Compile IR functions to specialized Python code (the fast path).

The :class:`~repro.ir.interp.Interpreter` re-dispatches every instruction
on every packet: an ``isinstance`` ladder, operand boxing, field-map
lookups, and width resolution all run per instruction executed.  This
module removes that overhead the way the NetKAT compiler removes
interpretation overhead from its pipeline: each basic block is compiled
**once** into a specialized Python function in which

* operand reads are inlined ``env['name']`` subscripts or literal ints,
* result masks (``& 0xff`` ...) are resolved from the register types at
  compile time,
* header field paths (``packet.raw.ip.saddr`` ...) are resolved from the
  field map at compile time, including the TCP/UDP port aliasing and the
  absent-header semantics,
* state calls carry literal member names and RMW widths, and
* terminators return the integer index of the successor block (or ``None``
  when the function is done), so the driver loop is a tuple unpack and a
  call per *block*, not per instruction.

The interpreter stays the oracle: ``difftest --compiled`` runs every
generated program through both engines and demands byte-identical
verdicts, environments, journals, and state (the Gauntlet discipline —
the fast path never replaces the reference semantics, it is checked
against them).

Equivalence caveats, by construction:

* The step limit is enforced per *block* (the compiled engine counts a
  block's instructions before running it), so a runaway program raises
  the same :class:`InterpreterError` as the interpreter but may execute
  up to one block fewer.  No terminating program is affected: a block's
  instructions always execute atomically (terminators are last).
* Deep tracing (one event per executed instruction) falls back to the
  interpreter — specialization would have to emit a trace call per
  instruction, which is exactly the overhead being removed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lang.types import BOOL, IntType
from repro.ir import instructions as irin
from repro.ir.externs import ExternHost
from repro.ir.function import Function
from repro.ir.interp import (
    ExecutionResult,
    Interpreter,
    InterpreterError,
    _FIELD_MAP,
    _MAX_STEPS,
    _width_of,
)
from repro.ir.values import Const, Reg
from repro.net.addresses import Ipv4Address, MacAddress


def _no_packet():
    raise InterpreterError("packet access without a packet")


#: Binary operators as inline source templates, mirroring ``_apply_binop``
#: exactly (division by zero yields 0, shifts mask the amount to 6 bits,
#: comparisons and logicals produce 0/1).
_BINOP_SRC = {
    irin.BinOpKind.ADD: "({a} + {b})",
    irin.BinOpKind.SUB: "({a} - {b})",
    irin.BinOpKind.MUL: "({a} * {b})",
    irin.BinOpKind.DIV: "(({a} // {b}) if {b} else 0)",
    irin.BinOpKind.MOD: "(({a} % {b}) if {b} else 0)",
    irin.BinOpKind.AND: "({a} & {b})",
    irin.BinOpKind.OR: "({a} | {b})",
    irin.BinOpKind.XOR: "({a} ^ {b})",
    irin.BinOpKind.SHL: "({a} << ({b} & 63))",
    irin.BinOpKind.SHR: "({a} >> ({b} & 63))",
    irin.BinOpKind.EQ: "(1 if {a} == {b} else 0)",
    irin.BinOpKind.NE: "(1 if {a} != {b} else 0)",
    irin.BinOpKind.LT: "(1 if {a} < {b} else 0)",
    irin.BinOpKind.LE: "(1 if {a} <= {b} else 0)",
    irin.BinOpKind.GT: "(1 if {a} > {b} else 0)",
    irin.BinOpKind.GE: "(1 if {a} >= {b} else 0)",
    irin.BinOpKind.LAND: "(1 if ({a} and {b}) else 0)",
    irin.BinOpKind.LOR: "(1 if ({a} or {b}) else 0)",
}


class _BlockCompiler:
    """Emits the source of one specialized block function."""

    def __init__(self, function: Function, block_index: Dict[str, int],
                 reg_reads: Set[str]):
        self.function = function
        self.block_index = block_index
        self.reg_reads = reg_reads
        self.lines: List[str] = []
        self._packet_guarded = False

    # -- expression fragments ------------------------------------------------

    def operand(self, operand) -> str:
        if isinstance(operand, Const):
            return repr(int(operand.value))
        if isinstance(operand, Reg):
            self.reg_reads.add(operand.name)
            return f"env[{operand.name!r}]"
        raise InterpreterError(f"bad operand {operand!r}")

    @staticmethod
    def wrap(expr: str, reg: Reg) -> str:
        """Inline the interpreter's ``_wrap`` with the mask resolved now."""
        type_ = reg.type
        if type_ is BOOL:
            return f"(1 if {expr} else 0)"
        if isinstance(type_, IntType):
            return f"({expr} & {type_.mask:#x})"
        return f"({expr} & 0xFFFFFFFFFFFFFFFF)"

    def keys(self, operands) -> str:
        parts = [self.operand(k) for k in operands]
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    # -- emission ------------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def emit_guard(self) -> None:
        # A superblock is straight-line code, so ``packet`` cannot change
        # between its instructions: one guard at the first packet access
        # raises at exactly the program point the interpreter would.
        if self._packet_guarded:
            return
        self._packet_guarded = True
        self.emit("if packet is None:")
        self.emit("    _no_packet()")

    def emit_header(self, region: str, field: str) -> None:
        """Bind ``_h`` to the region's header (or ``None`` when absent)."""
        if region == "ip":
            self.emit("_h = packet.raw.ip")
        elif region == "udp":
            self.emit("_h = packet.raw.udp")
        else:
            # Inlined ``PacketView._header('tcp', ...)``: Click's
            # transport_header() aliases the TCP/UDP port fields (same
            # offsets); other TCP fields read 0 / drop writes on UDP.
            self.emit("_h = packet.raw.tcp")
            if field in ("sport", "dport"):
                self.emit("if _h is None:")
                self.emit("    _h = packet.raw.udp")

    def load_packet_field(self, inst: irin.LoadPacketField) -> None:
        self.emit_guard()
        region, fname = inst.region, inst.field
        dst = f"env[{inst.dst.name!r}]"
        if region == "meta":
            if fname != "ingress_port":
                msg = f"unknown meta field {fname!r}"
                self.emit(f"raise InterpreterError({msg!r})")
                return
            value = "packet.raw.ingress_port"
            self.emit(f"{dst} = {self.wrap(value, inst.dst)}")
            return
        if region == "eth":
            if fname == "h_dest":
                value = "int(packet.raw.eth.dst)"
            elif fname == "h_source":
                value = "int(packet.raw.eth.src)"
            elif fname == "h_proto":
                value = "packet.raw.eth.ethertype"
            else:
                msg = f"unknown eth field {fname!r}"
                self.emit(f"raise InterpreterError({msg!r})")
                return
            self.emit(f"{dst} = {self.wrap(value, inst.dst)}")
            return
        mapping = _FIELD_MAP.get((region, fname))
        if mapping is None:
            msg = f"unknown field {region}.{fname}"
            self.emit(f"raise InterpreterError({msg!r})")
            return
        _, attr, is_addr = mapping
        self.emit_header(region, fname)
        access = f"int(_h.{attr})" if is_addr else f"_h.{attr}"
        value = f"(0 if _h is None else {access})"
        self.emit(f"{dst} = {self.wrap(value, inst.dst)}")

    def store_packet_field(self, inst: irin.StorePacketField) -> None:
        self.emit_guard()
        region, fname = inst.region, inst.field
        self.emit(f"_v = {self.operand(inst.src)}")
        if region == "eth":
            if fname == "h_dest":
                self.emit("packet.raw.eth.dst = MacAddress(_v &"
                          " 0xFFFFFFFFFFFF)")
            elif fname == "h_source":
                self.emit("packet.raw.eth.src = MacAddress(_v &"
                          " 0xFFFFFFFFFFFF)")
            elif fname == "h_proto":
                self.emit("packet.raw.eth.ethertype = _v & 0xFFFF")
            else:
                msg = f"unknown eth field {fname!r}"
                self.emit(f"raise InterpreterError({msg!r})")
                return
        else:
            mapping = _FIELD_MAP.get((region, fname))
            if mapping is None:
                msg = f"unknown field {region}.{fname}"
                self.emit(f"raise InterpreterError({msg!r})")
                return
            _, attr, is_addr = mapping
            self.emit_header(region, fname)
            self.emit("if _h is not None:")
            if is_addr:
                self.emit(f"    _h.{attr} = Ipv4Address(_v & 0xFFFFFFFF)")
            else:
                self.emit(f"    _h.{attr} = _v")
        # The interpreter traces the write whether or not the header was
        # present (writes to absent headers drop silently but still trace).
        self.emit("if tracer is not None:")
        self.emit(f"    tracer.record('packet_write', region={region!r},"
                  f" field={fname!r}, value=_v)")

    def instruction(self, inst) -> None:
        if isinstance(inst, irin.Assign):
            self.emit(f"env[{inst.dst.name!r}] ="
                      f" {self.wrap(self.operand(inst.src), inst.dst)}")
        elif isinstance(inst, irin.BinOp):
            src = _BINOP_SRC.get(inst.op)
            if src is None:
                raise InterpreterError(f"unknown binop {inst.op}")
            expr = src.format(a=self.operand(inst.lhs),
                              b=self.operand(inst.rhs))
            self.emit(f"env[{inst.dst.name!r}] = {self.wrap(expr, inst.dst)}")
        elif isinstance(inst, irin.UnOp):
            src = self.operand(inst.src)
            if inst.op is irin.UnOpKind.NEG:
                expr = f"(-{src})"
            elif inst.op is irin.UnOpKind.NOT:
                expr = f"(~{src})"
            else:  # LNOT
                expr = f"(0 if {src} else 1)"
            self.emit(f"env[{inst.dst.name!r}] = {self.wrap(expr, inst.dst)}")
        elif isinstance(inst, irin.Cast):
            self.emit(f"env[{inst.dst.name!r}] ="
                      f" {self.wrap(self.operand(inst.src), inst.dst)}")
        elif isinstance(inst, irin.LoadPacketField):
            self.load_packet_field(inst)
        elif isinstance(inst, irin.StorePacketField):
            self.store_packet_field(inst)
        elif isinstance(inst, irin.LoadState):
            expr = f"state.load_scalar({inst.state!r})"
            self.emit(f"env[{inst.dst.name!r}] = {self.wrap(expr, inst.dst)}")
        elif isinstance(inst, irin.StoreState):
            self.emit(f"state.store_scalar({inst.state!r},"
                      f" {self.operand(inst.src)})")
        elif isinstance(inst, irin.RegisterRMW):
            width = _width_of(inst.dst.type)
            expr = (f"state.rmw_scalar({inst.state!r}, _K.{inst.op.name},"
                    f" {self.operand(inst.operand)}, {width})")
            self.emit(f"env[{inst.dst.name!r}] = {self.wrap(expr, inst.dst)}")
        elif isinstance(inst, irin.MapFind):
            self.emit(f"_f, _v = state.map_find({inst.state!r},"
                      f" {self.keys(inst.keys)})")
            self.emit(f"env[{inst.found.name!r}] = int(_f)")
            if inst.value is not None:
                # Deliberately unwrapped, like the interpreter.
                self.emit(f"env[{inst.value.name!r}] = _v")
        elif isinstance(inst, irin.MapInsert):
            self.emit(f"state.map_insert({inst.state!r},"
                      f" {self.keys(inst.keys)},"
                      f" {self.operand(inst.value)})")
        elif isinstance(inst, irin.MapErase):
            self.emit(f"state.map_erase({inst.state!r},"
                      f" {self.keys(inst.keys)})")
        elif isinstance(inst, irin.VectorGet):
            self.emit(f"env[{inst.dst.name!r}] ="
                      f" state.vector_get({inst.state!r},"
                      f" {self.operand(inst.index)})")
        elif isinstance(inst, irin.VectorLen):
            self.emit(f"env[{inst.dst.name!r}] ="
                      f" state.vector_len({inst.state!r})")
        elif isinstance(inst, irin.VectorPush):
            self.emit(f"state.vector_push({inst.state!r},"
                      f" {self.operand(inst.value)})")
        elif isinstance(inst, irin.ExternCall):
            args = ", ".join(self.operand(a) for a in inst.args)
            self.emit(f"_r = externs.call({inst.name!r}, [{args}], packet)")
            if inst.dst is not None:
                self.emit(f"env[{inst.dst.name!r}] ="
                          f" {self.wrap('_r', inst.dst)}")
        elif isinstance(inst, irin.SendTo):
            self.emit(f"_p = {self.operand(inst.port)}")
            self.emit("out[0] = 'send'")
            self.emit("out[1] = _p")
            self.emit("if packet is not None:")
            self.emit("    packet.send(_p)")
            self.emit("return None")
        elif isinstance(inst, irin.Send):
            self.emit("out[0] = 'send'")
            self.emit("if packet is not None:")
            self.emit("    packet.send()")
            self.emit("return None")
        elif isinstance(inst, irin.Drop):
            self.emit("out[0] = 'drop'")
            self.emit("if packet is not None:")
            self.emit("    packet.drop()")
            self.emit("return None")
        elif isinstance(inst, irin.Jump):
            self.emit(f"return {self.block_index[inst.target]}")
        elif isinstance(inst, irin.Branch):
            cond = self.operand(inst.cond)
            self.emit(f"return {self.block_index[inst.if_true]} if {cond}"
                      f" else {self.block_index[inst.if_false]}")
        elif isinstance(inst, irin.Return):
            self.emit("return None")
        else:
            raise InterpreterError(
                f"unhandled instruction {type(inst).__name__}"
            )


def _superblocks(function: Function) -> List[List[str]]:
    """Merge ``Jump`` chains into superblocks.

    A block whose terminator is an unconditional ``Jump`` to a block with
    exactly one predecessor is fused with its successor: the jump itself
    is still *counted* (the interpreter executes it) but no dispatch
    through the driver loop happens.  Entry blocks and join points keep
    their own superblock, so every remaining Jump/Branch target is a
    superblock head.
    """
    preds: Dict[str, int] = {name: 0 for name in function.blocks}
    for block in function.blocks.values():
        for inst in block.instructions:
            if isinstance(inst, irin.Jump):
                preds[inst.target] += 1
            elif isinstance(inst, irin.Branch):
                preds[inst.if_true] += 1
                preds[inst.if_false] += 1

    def merges_into(name: str) -> Optional[str]:
        block = function.blocks[name]
        if not block.instructions:
            return None
        last = block.instructions[-1]
        if not isinstance(last, irin.Jump):
            return None
        target = last.target
        if target == name or target == function.entry:
            return None
        return target if preds[target] == 1 else None

    merged = {
        target for name in function.blocks
        if (target := merges_into(name)) is not None
    }
    chains: List[List[str]] = []
    for name in function.blocks:
        if name in merged and name != function.entry:
            continue  # emitted inside its predecessor's chain
        chain = [name]
        while (target := merges_into(chain[-1])) is not None:
            chain.append(target)
        chains.append(chain)
    return chains


class CompiledFunction:
    """One IR function compiled to per-superblock specialized Python."""

    def __init__(self, function: Function):
        self.function = function
        chains = _superblocks(function)
        block_index = {chain[0]: i for i, chain in enumerate(chains)}
        reg_reads: Set[str] = set()
        lines: List[str] = []
        for i, chain in enumerate(chains):
            compiler = _BlockCompiler(function, block_index, reg_reads)
            lines.append(
                f"def _b{i}(env, packet, state, externs, tracer, out):"
            )
            for position, name in enumerate(chain):
                instructions = function.blocks[name].instructions
                for inst in instructions:
                    if (position < len(chain) - 1
                            and inst is instructions[-1]):
                        break  # fused Jump: counted, not dispatched
                    compiler.instruction(inst)
            compiler.emit("return None")
            lines.extend(compiler.lines)
            lines.append("")
        self.source = "\n".join(lines)
        namespace = {
            "InterpreterError": InterpreterError,
            "Ipv4Address": Ipv4Address,
            "MacAddress": MacAddress,
            "_K": irin.BinOpKind,
            "_no_packet": _no_packet,
        }
        exec(compile(self.source, f"<compiled {function.name}>", "exec"),
             namespace)
        #: (block_fn, instruction_count, instruction_ids) per superblock;
        #: counts and ids include the fused jumps, matching the
        #: interpreter's per-instruction accounting exactly.
        self._blocks: List[Tuple] = []
        for i, chain in enumerate(chains):
            ids: List[int] = []
            for name in chain:
                ids.extend(
                    inst.id for inst in function.blocks[name].instructions
                )
            self._blocks.append((namespace[f"_b{i}"], len(ids), ids))
        self._entry = block_index[function.entry]
        self._reg_reads = frozenset(reg_reads)
        self._uses_externs = any(
            isinstance(inst, irin.ExternCall)
            for block in function.blocks.values()
            for inst in block.instructions
        )

    def run(
        self,
        state,
        externs: Optional[ExternHost] = None,
        packet=None,
        initial_env: Optional[Dict[str, int]] = None,
        collect_ids: bool = False,
    ) -> ExecutionResult:
        tracer = getattr(state, "tracer", None)
        if tracer is not None and getattr(tracer, "deep", False):
            # Deep tracing wants one event per executed instruction; the
            # interpreter is the engine that can provide it.
            return Interpreter(self.function, state, externs).run(
                packet=packet, initial_env=initial_env,
                collect_ids=collect_ids,
            )
        if externs is None and self._uses_externs:
            externs = ExternHost()
        env: Dict[str, int] = dict(initial_env or {})
        out: List = [None, None]
        steps = 0
        executed: List[int] = []
        blocks = self._blocks
        index: Optional[int] = self._entry
        name = self.function.name
        try:
            while index is not None:
                fn, count, ids = blocks[index]
                steps += count
                if steps > _MAX_STEPS:
                    raise InterpreterError(
                        f"{name}: step limit exceeded (runaway loop?)"
                    )
                if collect_ids:
                    executed.extend(ids)
                index = fn(env, packet, state, externs, tracer, out)
        except KeyError as exc:
            if exc.args and exc.args[0] in self._reg_reads:
                raise InterpreterError(
                    f"{name}: read of undefined register %{exc.args[0]}"
                ) from None
            raise
        return ExecutionResult(
            verdict=out[0],
            egress_port=out[1],
            instructions_executed=steps,
            executed_ids=executed,
            env=env,
        )


def compile_function(function: Function) -> CompiledFunction:
    """Compile (or fetch the cached compilation of) one IR function.

    The compilation is cached on the function itself: the two reference
    each other, so they are freed together once nothing else holds
    either.
    """
    compiled = function._compiled
    if compiled is None:
        compiled = CompiledFunction(function)
        function._compiled = compiled
    return compiled
