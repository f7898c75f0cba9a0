"""The dependency graph (paper §4.1, Figure 3).

Vertices are IR instructions; a directed edge S1 → S2 means **S2 depends on
S1** ("S2 must run after S1").  Edge kinds follow the paper's program
dependence graph plus one reproduction-specific kind:

* ``DATA`` — S1 writes state S2 reads or writes (read-after-write and
  write-after-write),
* ``ANTI`` — S1 reads state S2 modifies (write-after-read; the paper's
  "reverse data dependency"),
* ``CONTROL`` — S1 is a branch that determines whether S2 executes,
* ``OUTPUT_COMMIT`` — S1 mutates global (cross-packet) state and S2 is a
  packet-release verdict reachable from S1.  This encodes the output-commit
  requirement of §4.3.3 — a packet that triggers state updates must not be
  released before those updates — directly as an ordering edge, so the
  label-removing rules 1–2 automatically keep such verdicts off the
  fast path.  Output-commit edges are excluded from the "same global state"
  rules 3–4 (they are ordering constraints, not table accesses).

Edges only exist where "S2 can happen after S1" holds (CFG reachability).

Representation: every instruction owns one bit, numbered in
``function.instructions()`` order, and the analysis runs on Python-int
bitsets.  ``after[i]`` holds the instructions that can happen after
instruction ``i`` (the later instructions of its block, plus every
instruction of every block reachable from it — the same answers as
:meth:`ReachabilityInfo.can_happen_after`).  Per-location ``readers`` and
``writers`` masks turn the pairwise read/write-set test into two ANDs per
instruction.  The transitive closure (``⇝*``) is one bit row per
instruction, ``reach[i]``.  ``edges``, ``dependents`` and ``dependencies``
stay id-keyed dicts and sets, built in the same order as a pairwise scan
would build them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction
from repro.ir.values import Location
from repro.analysis.reachability import (
    ReachabilityInfo,
    compute_reachability,
    control_dependence_sources,
)


class DependencyKind(enum.Enum):
    DATA = "data"
    ANTI = "anti"
    CONTROL = "control"
    OUTPUT_COMMIT = "output_commit"


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class DependencyGraph:
    """Instruction-level dependency graph with its transitive closure."""

    function: Function
    reachability: ReachabilityInfo
    instructions: List[Instruction]
    #: (src_id, dst_id) -> set of kinds; edge means dst depends on src
    edges: Dict[Tuple[int, int], Set[DependencyKind]]
    #: successors in the dependency graph: src_id -> {dst_id}
    dependents: Dict[int, Set[int]]
    #: predecessors: dst_id -> {src_id}
    dependencies: Dict[int, Set[int]]
    #: transitive closure as bit rows: bit j of ``reach[i]`` is set when
    #: ``instructions[j]`` depends on ``instructions[i]`` via some chain
    reach: List[int]

    def __post_init__(self):
        self._index = {inst.id: inst for inst in self.instructions}
        #: instruction id -> its bit position
        self.bit = {inst.id: i for i, inst in enumerate(self.instructions)}

    def by_id(self, inst_id: int) -> Instruction:
        return self._index[inst_id]

    def depends_transitively(self, later: Instruction, earlier: Instruction) -> bool:
        """True if ``later`` depends on ``earlier`` via any chain (⇝*)."""
        src = self.bit.get(earlier.id)
        dst = self.bit.get(later.id)
        if src is None or dst is None:
            return False
        return bool(self.reach[src] >> dst & 1)

    def self_dependent(self, inst: Instruction) -> bool:
        return self.depends_transitively(inst, inst)

    @cached_property
    def p4_mask(self) -> int:
        """Instructions a switch pipeline can execute (§4.2.1)."""
        mask = 0
        for i, inst in enumerate(self.instructions):
            if inst.p4_supported():
                mask |= 1 << i
        return mask

    @cached_property
    def loop_mask(self) -> int:
        """Instructions that depend on themselves or sit on a CFG cycle."""
        info = self.reachability
        mask = 0
        for i, inst in enumerate(self.instructions):
            if self.reach[i] >> i & 1 or info.in_cycle(inst):
                mask |= 1 << i
        return mask

    @cached_property
    def shared_state_ends(self) -> Tuple[int, int]:
        """``(upstream, downstream)``: the ends of every ``S' ⇝* S`` pair
        (S' ≠ S) whose instructions access a common global state."""
        accesses = [inst.global_state_accesses() for inst in self.instructions]
        accessors: Dict[Location, int] = {}
        for i, locs in enumerate(accesses):
            for loc in locs:
                accessors[loc] = accessors.get(loc, 0) | 1 << i
        upstream = downstream = 0
        for i, locs in enumerate(accesses):
            if not locs:
                continue
            sharing = 0
            for loc in locs:
                sharing |= accessors[loc]
            targets = self.reach[i] & sharing & ~(1 << i)
            if targets:
                upstream |= 1 << i
                downstream |= targets
        return upstream, downstream

    def edge_kinds(self, src: Instruction, dst: Instruction) -> Set[DependencyKind]:
        return self.edges.get((src.id, dst.id), set())

    def statement_edges(self) -> Set[Tuple[int, int]]:
        """Edges lifted to source-statement granularity (for Figure 3)."""
        out: Set[Tuple[int, int]] = set()
        for (src_id, dst_id) in self.edges:
            src_stmt = self._index[src_id].stmt_id
            dst_stmt = self._index[dst_id].stmt_id
            if src_stmt >= 0 and dst_stmt >= 0 and src_stmt != dst_stmt:
                out.add((src_stmt, dst_stmt))
        return out


def build_dependency_graph(
    function: Function, reachability: Optional[ReachabilityInfo] = None
) -> DependencyGraph:
    info = reachability or compute_reachability(function)
    order = function.block_order()
    instructions = [
        inst for name in order for inst in function.blocks[name].instructions
    ]
    ids = [inst.id for inst in instructions]
    edges: Dict[Tuple[int, int], Set[DependencyKind]] = {}

    def add_edge(src: Instruction, dst: Instruction, kind: DependencyKind) -> None:
        edges.setdefault((src.id, dst.id), set()).add(kind)

    after = _after_masks(function, info, order)

    # Data / anti dependencies from read-write set intersection.  Each
    # location is numbered once, so the masks below are list lookups.
    writes = [inst.writes() for inst in instructions]
    numbers: Dict[Location, int] = {}
    read_locs = [
        [numbers.setdefault(loc, len(numbers)) for loc in inst.reads()]
        for inst in instructions
    ]
    write_locs = [
        [numbers.setdefault(loc, len(numbers)) for loc in locs] for locs in writes
    ]
    readers = [0] * len(numbers)
    writers = [0] * len(numbers)
    for i in range(len(instructions)):
        for loc in read_locs[i]:
            readers[loc] |= 1 << i
        for loc in write_locs[i]:
            writers[loc] |= 1 << i
    for i, first_id in enumerate(ids):
        data = anti = 0
        for loc in write_locs[i]:
            data |= readers[loc] | writers[loc]
        for loc in read_locs[i]:
            anti |= writers[loc]
        data &= after[i]
        anti &= after[i]
        for j in iter_bits(data | anti):
            kinds = edges[(first_id, ids[j])] = set()
            if data >> j & 1:
                kinds.add(DependencyKind.DATA)
            if anti >> j & 1:
                kinds.add(DependencyKind.ANTI)

    # Control dependencies: branch -> every instruction in dependent blocks.
    cdep = control_dependence_sources(function, info)
    branch_by_id = {
        inst.id: inst for inst in instructions if isinstance(inst, Branch)
    }
    for block_name, branch_ids in cdep.items():
        block = function.blocks.get(block_name)
        if block is None:
            continue
        for branch_id in branch_ids:
            branch = branch_by_id.get(branch_id)
            if branch is None:
                continue
            for inst in block.instructions:
                if inst.id != branch.id:
                    add_edge(branch, inst, DependencyKind.CONTROL)
                elif info.in_cycle(inst):
                    # A loop-header branch controls its own re-execution.
                    add_edge(branch, inst, DependencyKind.CONTROL)

    # Output-commit edges: global-state mutation -> reachable verdicts.
    verdicts = 0
    for i, inst in enumerate(instructions):
        if inst.is_verdict:
            verdicts |= 1 << i
    for i, inst in enumerate(instructions):
        if any(loc.is_global for loc in writes[i]):
            for j in iter_bits(after[i] & verdicts):
                add_edge(inst, instructions[j], DependencyKind.OUTPUT_COMMIT)

    dependents: Dict[int, Set[int]] = {inst_id: set() for inst_id in ids}
    dependencies: Dict[int, Set[int]] = {inst_id: set() for inst_id in ids}
    for (src_id, dst_id) in edges:
        dependents[src_id].add(dst_id)
        dependencies[dst_id].add(src_id)

    return DependencyGraph(
        function=function,
        reachability=info,
        instructions=instructions,
        edges=edges,
        dependents=dependents,
        dependencies=dependencies,
        reach=_closure_rows(ids, dependents),
    )


def _after_masks(
    function: Function, info: ReachabilityInfo, order: List[str]
) -> List[int]:
    """``after[i]``: the instructions that can happen after instruction i.

    Instructions are numbered block by block in ``order``, so a block is
    one run of bits.  An instruction is followed by the rest of its own
    block and by every block reachable from it — its own block included,
    whole, exactly when that block sits on a CFG cycle.
    """
    spans: Dict[str, Tuple[int, int]] = {}
    position = 0
    for name in order:
        count = len(function.blocks[name].instructions)
        spans[name] = (position, count)
        position += count
    block_mask = {
        name: ((1 << count) - 1) << start for name, (start, count) in spans.items()
    }
    after: List[int] = []
    for name, (start, count) in spans.items():
        reachable = 0
        for other in info.block_reachable[name]:
            reachable |= block_mask[other]
        end = start + count
        for i in range(start, end):
            later = ((1 << (end - i - 1)) - 1) << (i + 1)
            after.append(later | reachable)
    return after


def _closure_rows(ids: List[int], dependents: Dict[int, Set[int]]) -> List[int]:
    """Transitive closure over the dependency edges, one bit row per
    instruction, relaxed in reverse program order until it stops changing.

    Most edges point forward, so the first pass settles nearly every row;
    further passes only propagate around dependency cycles.
    """
    bit = {inst_id: i for i, inst_id in enumerate(ids)}
    successors = [[bit[dst] for dst in dependents[inst_id]] for inst_id in ids]
    rows = [0] * len(ids)
    for i, succ in enumerate(successors):
        for j in succ:
            rows[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(len(ids) - 1, -1, -1):
            row = rows[i]
            for j in successors[i]:
                row |= rows[j]
            if row != rows[i]:
                rows[i] = row
                changed = True
    return rows
