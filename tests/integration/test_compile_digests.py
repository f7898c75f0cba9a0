"""Pinned compiler output for the six bundled middleboxes.

Changes to the analyses behind partitioning (the dependency graph, the
label-removal fixpoint) are meant to be pure speed-ups.  These digests
pin what ``compile_source(verify=True)`` ships — the partition of every
instruction (in program order), the P4_16 program and the C++ server
program — so any change in the output shows up here.  Update a digest
only together with an intended change to the compiler's output.
"""

import hashlib

import pytest

from repro.compiler import compile_source
from repro.middleboxes import MIDDLEBOX_NAMES, load

#: name -> (assignment, p4_source, cpp_source) SHA-256 prefixes
DIGESTS = {
    "minilb": ("25a607115a9df6d0", "aeeab575c4e4035b", "c56aac0977cd677c"),
    "mazunat": ("3b373a4c9a928ca5", "0f9e81e312bd2d4e", "d6114fcd805b373b"),
    "lb": ("3ef8fb7d79317ce6", "fa1f8fe80f95396d", "e69b6359d25db53f"),
    "firewall": ("52fcdf30eb6c873c", "8d1ca228ebdeea21", "52be625203115e93"),
    "proxy": ("5dfe7a2690d2bfa7", "92f6211c2a57709f", "c75cb3870a3fca28"),
    "trojan": ("32dde4cc6bf520d2", "94d9d6a2976b4f42", "0c060b0ae905a8a1"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_bundled_middlebox_is_pinned():
    assert sorted(DIGESTS) == sorted(MIDDLEBOX_NAMES)


@pytest.mark.parametrize("name", MIDDLEBOX_NAMES)
def test_compiled_output_matches_pinned_digests(name):
    result = compile_source(load(name).source, verify=True)
    partitions = [
        result.plan.assignment[inst.id].name
        for inst in result.lowered.process.instructions()
    ]
    assert len(partitions) == len(result.plan.assignment)
    assert (
        _digest(",".join(partitions)),
        _digest(result.p4_source),
        _digest(result.cpp_source),
    ) == DIGESTS[name]
