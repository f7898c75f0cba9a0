"""Differential oracle for the closed-form label removal (paper §4.2.1).

``run_label_removal`` computes the rules-1–5 fixpoint in closed form on
bitsets.  The reference below is the literal sweep: apply every rule to
every ``S' ⇝* S`` pair, in closure order, until no label changes.  Both
must give identical label sets on the bundled middleboxes and on 200
generated programs, each without pins and under four seeded random pin
sets.  DESIGN.md lists this sweep as a deliberate second copy of the
semantics.
"""

import random
from typing import Dict, Set, Tuple

from repro.analysis.depgraph import build_dependency_graph
from repro.partition.labels import Label, run_label_removal
from tests.analysis.test_depgraph_oracle import reference_closure
from tests.conftest import oracle_corpus

PIN_SETS = 4
ALL_LABELS = {Label.PRE, Label.POST, Label.NON_OFF}


def shared_pairs(graph, closure) -> Set[Tuple[int, int]]:
    """``S' ⇝* S`` pairs (S' ≠ S) that access a common global state."""
    accesses = {i.id: i.global_state_accesses() for i in graph.instructions}
    return {
        (src, dst)
        for src, dsts in closure.items()
        if accesses[src]
        for dst in dsts
        if dst != src and accesses[src] & accesses[dst]
    }


def reference_sweep(graph, closure, shared, removed) -> Dict[int, Set[Label]]:
    """Rules 1–5 applied pair by pair until nothing changes."""
    labels: Dict[int, Set[Label]] = {}
    for inst in graph.instructions:
        label_set = set(ALL_LABELS) if inst.p4_supported() else {Label.NON_OFF}
        label_set -= removed.get(inst.id, set())
        label_set.add(Label.NON_OFF)
        labels[inst.id] = label_set
    for inst in graph.instructions:
        if inst.id in closure[inst.id] or graph.reachability.in_cycle(inst):
            labels[inst.id] = {Label.NON_OFF}
    changed = True
    while changed:
        changed = False
        for src_id, dst_ids in closure.items():
            src = labels[src_id]
            for dst_id in dst_ids:
                if dst_id == src_id:
                    continue
                dst = labels[dst_id]
                sharing = (src_id, dst_id) in shared
                if Label.POST not in dst and Label.POST in src:  # rule 1
                    src.discard(Label.POST)
                    changed = True
                if Label.PRE not in src and Label.PRE in dst:  # rule 2
                    dst.discard(Label.PRE)
                    changed = True
                if sharing and Label.PRE in src and Label.PRE in dst:  # rule 3
                    dst.discard(Label.PRE)
                    changed = True
                if sharing and Label.POST in dst and Label.POST in src:  # rule 4
                    src.discard(Label.POST)
                    changed = True
    return labels


def random_pins(rng: random.Random, graph) -> Dict[int, Set[Label]]:
    ids = [inst.id for inst in graph.instructions]
    pinned = rng.sample(ids, rng.randint(1, min(len(ids), 8)))
    choices = ({Label.PRE}, {Label.POST}, {Label.PRE, Label.POST})
    return {inst_id: set(rng.choice(choices)) for inst_id in pinned}


def test_closed_form_matches_literal_sweep():
    corpus = oracle_corpus()
    rng = random.Random(20)
    loops = sharing = 0
    for name, function in corpus:
        graph = build_dependency_graph(function)
        closure = reference_closure(graph.dependents)
        shared = shared_pairs(graph, closure)
        pin_sets = [{}] + [random_pins(rng, graph) for _ in range(PIN_SETS)]
        for removed in pin_sets:
            expected = reference_sweep(graph, closure, shared, removed)
            assert run_label_removal(graph, removed).labels == expected, (
                name, removed,
            )
        loops += bool(graph.reachability.cyclic_blocks)
        sharing += bool(shared)
    assert len(corpus) >= 206
    assert loops > 0, "corpus exercises no CFG loop (rule 5)"
    assert sharing > 0, "corpus exercises no shared-state pair (rules 3/4)"
