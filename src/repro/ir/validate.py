"""IR structural validation.

The one home of the IR's well-formedness rules.  Run after lowering and
after every transformation (partition projection, peephole passes) to
catch compiler bugs early:

* IR001 the entry block exists,
* IR002-IR004 every block ends with exactly one terminator, which is the
  last instruction,
* IR005 every branch/jump target exists,
* IR006 temporaries are assigned exactly once (SSA for temps),
* IR007 every register use is reached by a definition on every path (the
  forward definitely-defined dataflow of :func:`uses_before_def`).

:func:`validate_function` raises on the first finding;
:func:`repro.verify.ir_verifier.verify_ir` reports every finding as a
diagnostic and adds the checks that only the verifier makes (IR008-IR010).
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Dict, Iterator, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Reg

#: ``(code, block, instruction, message)``; block and instruction are None
#: where the finding is about the whole function.
Finding = Tuple[str, Optional[str], Optional[Instruction], str]


class IRValidationError(Exception):
    """Raised when an IR function is structurally invalid."""


def validate_function(function: Function, check_defs: bool = True) -> None:
    """Raise :class:`IRValidationError` on the first violation found."""
    findings: Iterator[Finding] = structural_findings(function)
    if check_defs:
        findings = itertools.chain(findings, def_use_findings(function))
    for _code, block, _inst, message in findings:
        where = function.name if block is None else f"{function.name}/{block}"
        raise IRValidationError(f"{where}: {message}")


def structural_findings(function: Function) -> Iterator[Finding]:
    """IR001-IR006, in block order.  Stops after IR001 (no entry)."""
    if function.entry not in function.blocks:
        yield "IR001", None, None, f"entry block {function.entry!r} missing"
        return
    for name, block in function.blocks.items():
        if not block.instructions:
            yield "IR002", name, None, "empty basic block"
            continue
        last = block.instructions[-1]
        if not last.is_terminator:
            message = f"no terminator: falls through after {last!r}"
            yield "IR003", name, last, message
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                yield "IR004", name, inst, f"terminator in block body: {inst!r}"
        for target in block.successors():
            if target not in function.blocks:
                yield "IR005", name, last, f"branch to unknown block {target!r}"
    temp_defs: Dict[str, List[Instruction]] = {}
    for inst in function.instructions():
        for reg in inst.defs():
            if reg.is_temp:
                temp_defs.setdefault(reg.name, []).append(inst)
    for temp_name, sites in temp_defs.items():
        if len(sites) > 1:
            yield (
                "IR006", None, sites[1],
                f"temp %{temp_name} assigned {len(sites)} times",
            )


def uses_before_def(
    function: Function, boundary_inputs: AbstractSet[str] = frozenset()
) -> List[Tuple[str, Instruction, Reg]]:
    """``(block, instruction, register)`` at the first use of each register
    that some path reaches before any definition, in block order.

    The forward definitely-defined dataflow: a block's entry set is the
    intersection of its predecessors' exit sets, starting from "every
    register" and iterated to the fixpoint.  ``boundary_inputs`` are
    defined on entry (a projected partition reads them from the shim
    header).  Blocks without predecessors, other than the entry, are
    unreachable and not checked.
    """
    entry = function.entry
    preds = function.predecessors()
    gen: Dict[str, Set[str]] = {
        name: {reg.name for inst in block.instructions for reg in inst.defs()}
        for name, block in function.blocks.items()
    }
    top = set(boundary_inputs).union(*gen.values())
    defined_in: Dict[str, Set[str]] = {name: top for name in function.blocks}
    defined_in[entry] = set(boundary_inputs)
    defined_out = {name: defined_in[name] | gen[name] for name in function.blocks}
    order = [
        name for name in function.block_order() if name != entry and preds[name]
    ]
    changed = True
    while changed:
        changed = False
        for name in order:
            incoming = set.intersection(*(defined_out[p] for p in preds[name]))
            if incoming != defined_in[name]:
                defined_in[name] = incoming
                defined_out[name] = incoming | gen[name]
                changed = True
    found: List[Tuple[str, Instruction, Reg]] = []
    seen: Set[str] = set()
    for name, block in function.blocks.items():
        if name != entry and not preds[name]:
            continue
        defined = set(defined_in[name])
        for inst in block.instructions:
            for op in inst.operands():
                if (
                    isinstance(op, Reg)
                    and op.name not in defined
                    and op.name not in seen
                ):
                    seen.add(op.name)
                    found.append((name, inst, op))
            defined.update(reg.name for reg in inst.defs())
    return found


def def_use_findings(
    function: Function, boundary_inputs: AbstractSet[str] = frozenset()
) -> Iterator[Finding]:
    """IR007 for each :func:`uses_before_def` result."""
    for block, inst, reg in uses_before_def(function, boundary_inputs):
        message = f"%{reg.name} may be used before definition in {inst!r}"
        yield "IR007", block, inst, message


def unsatisfied_uses(function: Function) -> Dict[str, Reg]:
    """Registers that may be read before any definition in ``function``.

    The partition splitter uses this to compute shim transfer sets: a
    projection's unsatisfied uses are exactly the values earlier partitions
    must hand over.
    """
    return {reg.name: reg for _block, _inst, reg in uses_before_def(function)}
