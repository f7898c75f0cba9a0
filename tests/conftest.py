"""Shared fixtures: cached middlebox bundles and compilation results."""

from __future__ import annotations

import pytest

from repro.compiler import CompilationResult, compile_lowered
from repro.middleboxes import MIDDLEBOX_NAMES, MiddleboxBundle, load

_BUNDLES: dict = {}
_COMPILED: dict = {}


def get_bundle(name: str) -> MiddleboxBundle:
    if name not in _BUNDLES:
        _BUNDLES[name] = load(name)
    return _BUNDLES[name]


def get_compiled(name: str) -> CompilationResult:
    if name not in _COMPILED:
        _COMPILED[name] = compile_lowered(get_bundle(name).lowered)
    return _COMPILED[name]


#: Seeds of the generated programs in the analysis oracle corpus.
ORACLE_SEEDS = range(200)
_ORACLE_CORPUS: list = []


def oracle_middleboxes() -> list:
    """``(name, LoweredMiddlebox, config)`` for the six bundled middleboxes
    and 200 seeded ``generate_source`` programs, lowered once per test run.

    The dependency-graph and label-removal oracle tests check the
    analyses against literal reference implementations over this corpus;
    the execution-domain test runs it on both value domains.
    """
    if not _ORACLE_CORPUS:
        from repro.difftest.generator import generate_source
        from repro.ir import lower_program
        from repro.lang import parse_program

        for name in MIDDLEBOX_NAMES:
            bundle = get_bundle(name)
            _ORACLE_CORPUS.append((name, bundle.lowered, bundle.config))
        for seed in ORACLE_SEEDS:
            lowered = lower_program(parse_program(generate_source(seed)))
            _ORACLE_CORPUS.append((f"seed{seed}", lowered, None))
    return _ORACLE_CORPUS


def oracle_corpus() -> list:
    """``(name, process function)`` over :func:`oracle_middleboxes`."""
    return [(name, lowered.process) for name, lowered, _ in oracle_middleboxes()]


@pytest.fixture(params=MIDDLEBOX_NAMES)
def middlebox_name(request):
    return request.param


@pytest.fixture
def bundle(middlebox_name):
    return get_bundle(middlebox_name)


@pytest.fixture
def compiled(middlebox_name):
    return get_compiled(middlebox_name)


MINILB_SOURCE = get_bundle("minilb").source
