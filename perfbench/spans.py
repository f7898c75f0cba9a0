"""In-memory span recording for the benchmark's traced run.

The traced run wraps public functions on live component instances (and a
few module-level compiler entry points) with :meth:`Spans.wrap`.  Each
call records one span: layer name, start and end (``perf_counter_ns``),
the index of the enclosing span, and the id of the packet or program
being processed.  Nothing is aggregated while the run is hot; spans stay
in a flat list and :meth:`Spans.summary` computes per-layer calls, total
and self time (duration minus the time covered by direct children) once
the run is over.  :meth:`Spans.write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns


class Spans:
    """A flat span log plus the stack of currently open spans."""

    def __init__(self):
        #: (layer, start_ns, end_ns, parent index or -1, op id)
        self.records: List[list] = []
        self._stack: List[int] = []
        self.op_id = 0
        #: per-layer sums of the ``tally`` values given to :meth:`wrap`
        self.tallies: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._patched: set = set()

    def wrap(self, layer, function: Callable,
             tally: Optional[Callable] = None,
             new_op: bool = False) -> Callable:
        """``function`` with every call recorded as a ``layer`` span.

        ``layer`` is a name, or a function of the call's positional
        arguments that returns one.  ``tally``, when given, maps the
        arguments to a number added to ``self.tallies[layer]``.  With
        ``new_op`` every call starts a new operation (packet) id.
        """
        records = self.records
        stack = self._stack
        tallies = self.tallies
        pick = layer if callable(layer) else None

        def traced(*args, **kwargs):
            if new_op:
                self.op_id += 1
            name = pick(args) if pick is not None else layer
            if tally is not None:
                tallies[name] = tallies.get(name, 0) + tally(args)
            index = len(records)
            record = [name, 0, 0, stack[-1] if stack else -1, self.op_id]
            records.append(record)
            stack.append(index)
            record[1] = _now()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = _now()
                stack.pop()

        return traced

    def patch(self, owner, attribute: str, layer,
              tally: Optional[Callable] = None,
              new_op: bool = False) -> None:
        """Replace ``owner.attribute`` by its traced version (undone by
        :meth:`restore`).  ``owner`` is an instance or a module; an
        attribute already patched is left alone (components share
        objects, e.g. shim layouts)."""
        key = (id(owner), attribute)
        if key in self._patched:
            return
        self._patched.add(key)
        had_own = attribute in getattr(owner, "__dict__", {})
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original, had_own))
        setattr(owner, attribute,
                self.wrap(layer, original, tally, new_op))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched.clear()

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record the ``with`` body as one ``layer`` span."""
        index = len(self.records)
        record = [layer, 0, 0, self._stack[-1] if self._stack else -1,
                  self.op_id]
        self.records.append(record)
        self._stack.append(index)
        record[1] = _now()
        try:
            yield
        finally:
            record[2] = _now()
            self._stack.pop()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``total_ns`` and ``self_ns``."""
        child_ns = [0] * len(self.records)
        for layer, start, end, parent, _ in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (layer, start, end, _, _) in enumerate(self.records):
            row = out.setdefault(
                layer, {"calls": 0, "total_ns": 0, "self_ns": 0}
            )
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        return out

    def root_ns(self) -> int:
        """Time covered by top-level spans (= the sum of all self times)."""
        return sum(
            end - start for _, start, end, parent, _ in self.records
            if parent < 0
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for layer, start, end, parent, op in self.records:
                handle.write(json.dumps(
                    {"layer": layer, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}
                ) + "\n")
