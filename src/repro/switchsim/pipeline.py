"""Pipeline execution: one traversal of the pre or post program.

The executor reuses the IR interpreter for evaluation semantics but backs
all state accesses with the switch's tables and registers through
:class:`SwitchStateAdapter`, which

* services ``MapFind``/``VectorGet`` from exact-match tables (honouring the
  write-back visibility bit),
* services scalar loads/RMWs from registers,
* **rejects** any mutation a data plane cannot perform (map inserts, bare
  stores) — hitting one is a compiler bug, and
* counts accesses so a traversal touching a stateful element twice fails
  loudly (the run-time shadow of constraint 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir import instructions as irin
from repro.ir.function import Function
from repro.ir.interp import ExecutionResult, Interpreter, PacketView
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable


class DataPlaneViolation(Exception):
    """A pipeline attempted an operation the data plane cannot perform."""


class SwitchStateAdapter:
    """StateStore-compatible facade over switch tables and registers."""

    def __init__(self, tables: Dict[str, ExactMatchTable],
                 registers: Dict[str, Register]):
        self.tables = tables
        self.registers = registers
        self._access_counts: Dict[str, int] = {}
        #: Whether this traversal missed a ``punt_on_miss`` table.
        self.cache_missed = False
        #: Optional :class:`repro.telemetry.PacketTracer` (``None`` when
        #: tracing is off; the interpreter picks it up via ``state.tracer``).
        self.tracer = None

    def begin_traversal(self) -> None:
        self._access_counts = {}
        self.cache_missed = False

    def _count(self, state: str) -> None:
        self._access_counts[state] = self._access_counts.get(state, 0) + 1
        if self._access_counts[state] > 1:
            raise DataPlaneViolation(
                f"stateful element {state!r} accessed twice in one traversal"
            )

    # -- StateStore interface ------------------------------------------------

    def map_find(self, name: str, keys: tuple):
        self._count(name)
        table = self.tables.get(name)
        if table is None:
            raise DataPlaneViolation(f"lookup on unknown table {name!r}")
        found, value = table.lookup(keys)
        if not found and table.punt_on_miss:
            self.cache_missed = True
        if self.tracer is not None:
            self.tracer.record("table_lookup", name=name, key=keys,
                               hit=found, value=value)
        return found, value

    def vector_get(self, name: str, index: int) -> int:
        self._count(name)
        table = self.tables.get(name)
        if table is None:
            raise DataPlaneViolation(f"lookup on unknown table {name!r}")
        found, value = table.lookup((index,))
        value = value if found else 0
        if self.tracer is not None:
            self.tracer.record("vector_get", name=name, index=index,
                               value=value)
        return value

    def load_scalar(self, name: str) -> int:
        self._count(name)
        register = self.registers.get(name)
        if register is None:
            raise DataPlaneViolation(f"read of unknown register {name!r}")
        value = register.read()
        if self.tracer is not None:
            self.tracer.record("register_read", name=name, value=value)
        return value

    def rmw_scalar(self, name: str, op, operand: int,
                   width: Optional[int] = None) -> int:
        self._count(name)
        register = self.registers.get(name)
        if register is None:
            raise DataPlaneViolation(f"RMW of unknown register {name!r}")
        if width and width != register.width_bits:
            # Uniform with StateStore.rmw_scalar: a caller-supplied width
            # must agree with the cell's declared width, never silently
            # re-mask (the stateful ALU wraps at width_bits, full stop).
            raise DataPlaneViolation(
                f"RMW width {width} does not match register {name!r}"
                f" width {register.width_bits}"
            )
        old = register.rmw(op, operand)
        if self.tracer is not None:
            self.tracer.record("register_rmw", name=name,
                               op=getattr(op, "name", str(op)).lower(),
                               old=old, new=register.value)
        return old

    # -- operations the data plane cannot do -----------------------------------

    def map_insert(self, name: str, keys: tuple, value: int) -> None:
        raise DataPlaneViolation(
            f"map_insert({name!r}) in a switch pipeline — table writes must"
            " go through the control plane"
        )

    def map_erase(self, name: str, keys: tuple) -> None:
        raise DataPlaneViolation(f"map_erase({name!r}) in a switch pipeline")

    def store_scalar(self, name: str, value: int) -> None:
        raise DataPlaneViolation(
            f"bare register write {name!r} in a switch pipeline"
        )

    def vector_len(self, name: str) -> int:
        raise DataPlaneViolation(
            f"vector_len({name!r}) has no switch implementation"
        )

    def vector_push(self, name: str, value: int) -> None:
        raise DataPlaneViolation(f"vector_push({name!r}) in a switch pipeline")


@dataclass
class TraversalResult:
    """Outcome of one pipeline traversal."""

    verdict: Optional[str]  # "send" | "drop" | None (fell off the end)
    egress_port: Optional[int]
    env: Dict[str, int]
    needs_server: bool
    instructions: int

    @property
    def fast_path(self) -> bool:
        return self.verdict is not None


class PipelineExecutor:
    """Executes pre/post pipeline traversals against switch state."""

    def __init__(self, function: Function, adapter: SwitchStateAdapter,
                 needs_server_reg: str):
        self.function = function
        self.adapter = adapter
        self.needs_server_reg = needs_server_reg

    def run(self, packet: PacketView,
            initial_env: Optional[Dict[str, int]] = None) -> TraversalResult:
        self.adapter.begin_traversal()
        interpreter = Interpreter(self.function, self.adapter)  # type: ignore[arg-type]
        result = interpreter.run(packet, initial_env=initial_env)
        needs_server = bool(result.env.get(self.needs_server_reg, 0))
        return TraversalResult(
            verdict=result.verdict,
            egress_port=result.egress_port,
            env=result.env,
            needs_server=needs_server,
            instructions=result.instructions_executed,
        )
