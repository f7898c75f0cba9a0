"""The label-removing algorithm (paper §4.2.1).

Each instruction starts with the label set ``{pre, post, non_off}`` if P4
can express it, else ``{non_off}``.  The paper applies these rules to a
fixpoint:

1. ``S' ⇝* S  ∧  post ∉ L(S)   ⟹  post ∉ L(S')``
2. ``S' ⇝* S  ∧  pre ∉ L(S')   ⟹  pre ∉ L(S)``
3. ``S' ⇝* S  ∧  same global state  ∧  pre ∈ L(S')   ⟹  pre ∉ L(S)``
4. ``S' ⇝* S  ∧  same global state  ∧  post ∈ L(S)   ⟹  post ∉ L(S')``
5. ``S ⇝* S  ⟹  L(S) = {non_off}`` (loops never offload)

where ``S' ⇝* S`` means S transitively depends on S'.

The fixpoint has a closed form, which is what :func:`run_label_removal`
computes.  Whenever rule 3's pair (S', S) shares global state, S ends
without ``pre``: if S' keeps ``pre``, rule 3 removes it; if S' loses
``pre``, rule 2 does.  So rule 3 is the static removal "every downstream
end of a sharing pair loses ``pre``", whatever order the rules visit the
pairs in; rule 4 likewise reduces, under rule 1, to "every upstream end
loses ``post``".  The ``pre`` rules never read ``post`` and vice versa, and
``⇝*`` is transitive, so after rule 5, the pins and the static removals,
one forward step of rule 2 (OR the closure rows of every instruction
without ``pre``) and one backward step of rule 1 (drop ``post`` from every
instruction whose row meets one without ``post``) reach the fixpoint.
Label sets are bitsets over the dependency graph's instruction bits.

Partition assignment from the final label sets: ``pre ∈ L`` → PRE;
else ``post ∈ L`` → POST; else NON_OFF.  (This is the maximal-offload
reading of the paper's assignment rule and reproduces Figure 4.)

*Pins* let later passes force instructions into the non-offloaded
partition (resource-constraint refinement re-runs the rules after each
pin, as §4.2.2 prescribes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Set, Tuple

from repro.analysis.depgraph import DependencyGraph, iter_bits
from repro.ir.instructions import Instruction


class Label(enum.Enum):
    PRE = "pre"
    POST = "post"
    NON_OFF = "non_off"


class Partition(enum.Enum):
    """Final partition assignment; ordered by execution phase."""

    PRE = 0
    NON_OFF = 1
    POST = 2


@dataclass
class LabelAssignment:
    """Result of the label-removing fixpoint: the instructions (as bitsets
    over ``graph``'s instruction bits) that keep ``pre`` and ``post``.
    Every instruction keeps ``non_off``."""

    graph: DependencyGraph
    pre: int
    post: int

    @cached_property
    def labels(self) -> Dict[int, Set[Label]]:
        """The final label set of every instruction, by id."""
        return _label_sets(self.graph, self.pre, self.post)

    def partition_of(self, inst: Instruction) -> Partition:
        bit = self.graph.bit[inst.id]
        if self.pre >> bit & 1:
            return Partition.PRE
        if self.post >> bit & 1:
            return Partition.POST
        return Partition.NON_OFF

    def assignment(self) -> Dict[int, Partition]:
        return {
            inst.id: self.partition_of(inst) for inst in self.graph.instructions
        }

    def offloaded_count(self) -> int:
        """Number of instructions assigned to the switch."""
        return (self.pre | self.post).bit_count()


def _initial_masks(
    graph: DependencyGraph,
    removed: Optional[Dict[int, Set[Label]]],
) -> Tuple[int, int]:
    """``(pre, post)``: the instructions a switch can execute, minus pins."""
    pre = post = graph.p4_mask
    for inst_id, pinned in (removed or {}).items():
        bit = graph.bit.get(inst_id)
        if bit is None:
            continue
        if Label.PRE in pinned:
            pre &= ~(1 << bit)
        if Label.POST in pinned:
            post &= ~(1 << bit)
    return pre, post


def _label_sets(graph: DependencyGraph, pre: int, post: int) -> Dict[int, Set[Label]]:
    labels: Dict[int, Set[Label]] = {}
    for i, inst in enumerate(graph.instructions):
        label_set = {Label.NON_OFF}  # every statement can run on the server
        if pre >> i & 1:
            label_set.add(Label.PRE)
        if post >> i & 1:
            label_set.add(Label.POST)
        labels[inst.id] = label_set
    return labels


def initial_labels(
    graph: DependencyGraph,
    removed: Optional[Dict[int, Set[Label]]] = None,
) -> Dict[int, Set[Label]]:
    """Initial label sets, minus any labels pinned away by ``removed``.

    The resource-refinement passes of §4.2.2 express "move this statement
    to the non-offloaded partition" as removing its pre/post labels up
    front and re-running the rules.
    """
    return _label_sets(graph, *_initial_masks(graph, removed))


def run_label_removal(
    graph: DependencyGraph,
    removed: Optional[Dict[int, Set[Label]]] = None,
) -> LabelAssignment:
    """Apply rules 1–5 to their fixpoint and return the final label sets."""
    pre, post = _initial_masks(graph, removed)
    # Rule 5: instructions that transitively depend on themselves (or sit
    # on a CFG cycle) can only be non-offloaded.  Rules 3 and 4, reduced
    # to their static removals (see the module docstring).
    upstream, downstream = graph.shared_state_ends
    pre &= ~(graph.loop_mask | downstream)
    post &= ~(graph.loop_mask | upstream)

    reach = graph.reach
    everything = (1 << len(reach)) - 1
    # Rule 2: everything downstream of an instruction without pre loses
    # pre.  An instruction already in ``lost`` adds nothing: its row is
    # inside the row that put it there.
    lost = 0
    for i in iter_bits(everything & ~pre):
        if not lost >> i & 1:
            lost |= reach[i]
    pre &= ~lost
    # Rule 1: everything upstream of an instruction without post loses post.
    no_post = everything & ~post
    for i in iter_bits(post):
        if reach[i] & no_post:
            post &= ~(1 << i)
    return LabelAssignment(graph=graph, pre=pre, post=post)
