"""Basic blocks and functions (the IR's control-flow graph)."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.ir.instructions import Branch, Instruction, Jump, Terminator
from repro.ir.values import Location, Reg


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str):
        self.name = name
        self.instructions: List[Instruction] = []

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    @property
    def body(self) -> List[Instruction]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instructions[:-1]
        return list(self.instructions)

    def successors(self) -> List[str]:
        term = self.terminator
        return term.successors() if term is not None else []

    def append(self, instruction: Instruction) -> None:
        if self.terminator is not None:
            raise ValueError(
                f"block {self.name!r} already terminated; cannot append"
            )
        self.instructions.append(instruction)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """An IR function: named basic blocks with a designated entry."""

    def __init__(self, name: str, entry: str = "entry"):
        self.name = name
        self.entry = entry
        self.blocks: Dict[str, BasicBlock] = {}
        #: the compiled engine's code for this function, built on first use
        #: by :func:`repro.ir.compile.compile_function`
        self._compiled: Optional[Any] = None

    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def add_block(self, name: str) -> BasicBlock:
        if name in self.blocks:
            raise ValueError(f"duplicate block name {name!r}")
        block = BasicBlock(name)
        self.blocks[name] = block
        return block

    # -- traversal ------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """All instructions, in block order (entry-first RPO where possible)."""
        for block_name in self.block_order():
            yield from self.blocks[block_name].instructions

    def block_order(self) -> List[str]:
        """Reverse post-order from the entry, then any unreachable blocks."""
        order: List[str] = []
        visited: Set[str] = set()

        def visit(name: str) -> None:
            if name in visited or name not in self.blocks:
                return
            visited.add(name)
            for succ in self.blocks[name].successors():
                visit(succ)
            order.append(name)

        visit(self.entry)
        order.reverse()
        for name in self.blocks:
            if name not in visited:
                order.append(name)
        return order

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {name: [] for name in self.blocks}
        for name, block in self.blocks.items():
            for succ in block.successors():
                if succ in preds:
                    preds[succ].append(name)
        return preds

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks.values())

    def find_instruction(self, inst_id: int) -> Optional[Instruction]:
        for inst in self.instructions():
            if inst.id == inst_id:
                return inst
        return None

    def block_of(self, instruction: Instruction) -> Optional[str]:
        for name, block in self.blocks.items():
            if any(inst.id == instruction.id for inst in block.instructions):
                return name
        return None

    # -- derived info -----------------------------------------------------------

    def defined_regs(self) -> Dict[str, Reg]:
        """All registers defined anywhere in the function, by name."""
        regs: Dict[str, Reg] = {}
        for inst in self.instructions():
            result = inst.result()
            if result is not None:
                regs[result.name] = result
            # MapFind defines `found` too.
            found = getattr(inst, "found", None)
            if isinstance(found, Reg):
                regs[found.name] = found
        return regs

    def global_states(self) -> Set[str]:
        """Names of element-state members the function touches."""
        out: Set[str] = set()
        for inst in self.instructions():
            for loc in inst.reads() | inst.writes():
                if loc.is_global:
                    out.add(loc.name)
        return out

    def __repr__(self) -> str:
        return (
            f"<Function {self.name}: {len(self.blocks)} blocks,"
            f" {self.instruction_count()} insts>"
        )
