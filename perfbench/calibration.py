"""Host-speed calibration for the benchmark's timed figures.

The benchmark runs on shared machines whose speed drifts: the same code
runs up to 1.6x slower for minutes at a time, in step across every
workload.  No statistic taken inside one run removes a drift that lasts
longer than the run, so each run also times a fixed kernel that uses
only the standard library (never the code under test) at evenly spaced
points of its timed loop, and scales its timed figures to a host on
which one kernel pass takes ``REFERENCE_S``.  In ten-seed sets taken
while the host drifted, this cut the run-to-run spread (interquartile
range over median) of the loop rates from 0.11-0.18 to 0.04-0.06.

The kernel mixes what the code under test does: dictionary and list
churn (``difflib``), address parsing and prefix matching
(``ipaddress``), recursive copying of nested containers
(``copy.deepcopy``) and a small attribute-dispatch interpreter loop.
It runs with the cyclic collector paused, so its time does not depend
on how much the workload keeps on the heap.
"""

from __future__ import annotations

import copy
import difflib
import gc
import ipaddress
import random
import statistics
import time

#: Seconds of one kernel pass on the reference host (the kernel's
#: uncontended time on a 2-vCPU x86 VM, rounded).
REFERENCE_S = 0.011
#: Kernel passes per sample; a sample is their median.
PASSES = 3

_rng = random.Random(1234)
_WORDS = [_rng.choice("abcdefghij") * _rng.randint(1, 3) for _ in range(1500)]
_EDITED = list(_WORDS)
for _ in range(300):
    _EDITED[_rng.randrange(len(_EDITED))] = _rng.choice("klmnop")
_ADDRESSES = [
    f"10.{_rng.randrange(256)}.{_rng.randrange(256)}.{_rng.randrange(256)}"
    for _ in range(400)
]
_NETWORKS = [ipaddress.ip_network(f"10.{i * 16}.0.0/12") for i in range(16)]
_TREE = {
    f"k{i}": [{"v": j, "w": [j, str(j), (j, j)]} for j in range(8)]
    for i in range(80)
}


class _Node:
    __slots__ = ("op", "arg", "next")

    def __init__(self, op, arg, next_node):
        self.op = op
        self.arg = arg
        self.next = next_node


def _interpret(repeats: int) -> int:
    chain = None
    for index in range(50):
        chain = _Node(index % 4, index, chain)
    acc = 0
    counts: dict = {}
    for _ in range(repeats):
        node = chain
        while node is not None:
            if node.op == 0:
                acc = (acc + node.arg) & 0xFFFF
            elif node.op == 1:
                acc ^= node.arg << 2
            elif node.op == 2:
                counts[node.arg] = counts.get(node.arg, 0) + 1
            else:
                acc = (acc * 3) & 0xFFFF
            node = node.next
    return acc


def kernel() -> None:
    difflib.SequenceMatcher(None, _WORDS, _EDITED).get_opcodes()
    for text in _ADDRESSES:
        address = ipaddress.ip_address(text)
        sum(address in network for network in _NETWORKS)
    copy.deepcopy(_TREE)
    _interpret(500)


def sample() -> float:
    """Median seconds of ``PASSES`` kernel passes, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PASSES):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
