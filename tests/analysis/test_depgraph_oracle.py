"""Differential oracle for the bitset dependency graph (paper §4.1).

``build_dependency_graph`` computes edges from per-instruction bitsets.
The reference below is the literal pairwise construction: every ordered
instruction pair is tested with ``ReachabilityInfo.can_happen_after`` and
its read/write sets, and the closure is a depth-first search per node.
The two must agree exactly — edge kinds, edge insertion order, the
adjacency sets and ``⇝*`` for every instruction pair — over the bundled
middleboxes and 200 generated programs.  DESIGN.md lists this reference
as a deliberate second copy of the semantics.
"""

from typing import Dict, Set, Tuple

from repro.analysis.depgraph import DependencyKind, build_dependency_graph
from repro.analysis.reachability import (
    compute_reachability,
    control_dependence_sources,
)
from repro.ir.instructions import Branch
from tests.conftest import oracle_corpus


def reference_edges(function) -> Dict[Tuple[int, int], Set[DependencyKind]]:
    info = compute_reachability(function)
    instructions = list(function.instructions())
    edges: Dict[Tuple[int, int], Set[DependencyKind]] = {}

    def add_edge(src, dst, kind):
        edges.setdefault((src.id, dst.id), set()).add(kind)

    reads = {inst.id: inst.reads() for inst in instructions}
    writes = {inst.id: inst.writes() for inst in instructions}
    for first in instructions:
        for second in instructions:
            if not info.can_happen_after(first, second):
                continue
            if writes[first.id] & (reads[second.id] | writes[second.id]):
                add_edge(first, second, DependencyKind.DATA)
            if reads[first.id] & writes[second.id]:
                add_edge(first, second, DependencyKind.ANTI)
    cdep = control_dependence_sources(function, info)
    branches = {i.id: i for i in instructions if isinstance(i, Branch)}
    for block_name, branch_ids in cdep.items():
        for branch_id in branch_ids:
            branch = branches[branch_id]
            for inst in function.blocks[block_name].instructions:
                if inst.id != branch.id or info.in_cycle(inst):
                    add_edge(branch, inst, DependencyKind.CONTROL)
    for mutator in instructions:
        if not any(loc.is_global for loc in mutator.writes()):
            continue
        for verdict in instructions:
            if verdict.is_verdict and info.can_happen_after(mutator, verdict):
                add_edge(mutator, verdict, DependencyKind.OUTPUT_COMMIT)
    return edges


def reference_closure(successors: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
    closure: Dict[int, Set[int]] = {}
    for start in successors:
        seen: Set[int] = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(successors[node])
        closure[start] = seen
    return closure


def test_bitset_graph_matches_pairwise_reference():
    corpus = oracle_corpus()
    cyclic = 0
    for name, function in corpus:
        graph = build_dependency_graph(function)
        edges = reference_edges(function)
        assert list(graph.edges) == list(edges), name
        assert graph.edges == edges, name
        dependents: Dict[int, Set[int]] = {i.id: set() for i in graph.instructions}
        dependencies: Dict[int, Set[int]] = {i.id: set() for i in graph.instructions}
        for src, dst in edges:
            dependents[src].add(dst)
            dependencies[dst].add(src)
        assert graph.dependents == dependents, name
        assert graph.dependencies == dependencies, name
        closure = reference_closure(dependents)
        for earlier in graph.instructions:
            row = closure[earlier.id]
            for later in graph.instructions:
                assert graph.depends_transitively(later, earlier) == (
                    later.id in row
                ), (name, earlier, later)
            assert graph.self_dependent(earlier) == (earlier.id in row), name
        cyclic += any(i.id in closure[i.id] for i in graph.instructions)
    assert len(corpus) >= 206
    assert cyclic > 0, "corpus has no dependency cycles"
