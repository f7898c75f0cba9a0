"""Table caching: the paper's §7 "Reducing memory usage" extension.

*"One optimization to reduce memory usage of programmable switches is to
let the programmable switch store only a fraction of any table ... For any
packet that the programmable switch does not know how to handle, the
middlebox server handles it instead. ... We leave it to future work."*

This module implements that future work for the reproduction:

* each replicated table on the switch holds at most ``cache_entries``
  entries, managed FIFO ("cache" in the paper's sense),
* a packet whose lookup misses the cache is punted **as received** — the
  switch clones the pristine packet before the pre pipeline runs
  (bmv2/Tofino clone primitives make this realistic), so the server can
  simply run the *complete* middlebox program on it,
* the server's read log (which authoritative entries the full run
  consulted) drives cache refill, and its write journal keeps the cache
  coherent (updates/deletes of cached keys go through the normal atomic
  write-back path).

Correctness does not depend on the cache contents: a cache hit executes
exactly the pre/post partitions (already proven equivalent), and a cache
miss executes the original program on the original packet.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.ir.externs import ExternHost
from repro.ir.interp import Interpreter, PacketView, StateStore
from repro.net.packet import RawPacket
from repro.partition.plan import PartitionPlan, PlacementKind
from repro.runtime.deployment import (
    GalliumMiddlebox,
    PacketJourney,
    PuntCompletion,
)
from repro.switchsim.control_plane import StateUpdate, UpdateBatchError
from repro.switchsim.program import SwitchProgram
from repro.switchsim.switch_model import SwitchOutput


class CacheConfigurationError(ValueError):
    """Raised when a middlebox cannot run in cache mode."""


class CacheStats:
    """Cache effectiveness counters, backed by the metrics registry.

    The legacy integer attributes (``stats.hits += 1`` etc.) remain as
    read/write properties over registry counters named ``cache.<field>``
    so cache metrics appear alongside the rest of the deployment's
    telemetry.
    """

    _FIELDS = ("hits", "misses", "evictions", "refills")

    def __init__(self, metrics=None):
        from repro.telemetry import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"cache.{name}")
            for name in self._FIELDS
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _stats_property(name: str) -> property:
    def _get(self: CacheStats) -> int:
        return self._counters[name].value

    def _set(self: CacheStats, value: int) -> None:
        self._counters[name].set(value)

    return property(_get, _set)


for _name in CacheStats._FIELDS:
    setattr(CacheStats, _name, _stats_property(_name))
del _name


class CachedGalliumMiddlebox(GalliumMiddlebox):
    """A Gallium deployment whose switch tables are bounded caches.

    ``cache_entries`` bounds every *replicated* table on the switch (plain
    switch tables installed at configure time keep their full size: the
    paper's cache idea targets the connection-style tables that grow with
    traffic).
    """

    # A punted packet's pre-pipeline run is speculative in cache mode —
    # the server reruns the complete program on the pristine clone — so
    # its traced effects must be discarded on punt (see base class).
    _discard_pre_effects = True

    def __init__(
        self,
        plan: PartitionPlan,
        program: SwitchProgram,
        cache_entries: int = 1024,
        **kwargs,
    ):
        super().__init__(plan, program, **kwargs)
        self.cache_entries = cache_entries
        # Only map-kind tables are bounded: they grow with traffic (the
        # paper's target).  A replicated vector has a fixed length, so it
        # stays fully installed like a plain switch table.
        self.cached_tables = [
            name
            for name, placement in plan.placements.items()
            if placement.kind is PlacementKind.REPLICATED_TABLE
            and placement.member.kind == "map"
        ]
        if not self.cached_tables:
            raise CacheConfigurationError(
                f"{plan.middlebox.name}: no replicated tables to cache"
            )
        # Cache mode reruns the full program on punted packets, so neither
        # switch pipeline may mutate cross-packet state: a register RMW in
        # pre would execute twice on a punt (switch, then server rerun),
        # and one in post would execute zero times (the punt path emits
        # from the server and never traverses post).
        from repro.ir import instructions as irin

        for partition_name, function in (("pre", plan.pre), ("post", plan.post)):
            for inst in function.instructions():
                if isinstance(inst, irin.RegisterRMW):
                    raise CacheConfigurationError(
                        f"{plan.middlebox.name}: {partition_name} partition"
                        f" mutates register {inst.state!r}; cache mode"
                        " requires read-only switch pipelines"
                    )
        #: FIFO insertion order per cached table (the eviction policy).
        self._fifo: Dict[str, OrderedDict] = {
            name: OrderedDict() for name in self.cached_tables
        }
        self.stats = CacheStats(metrics=self.telemetry.metrics)
        self.state.track_reads = True

    # -- deployment ---------------------------------------------------------

    def sync_all_state(self) -> None:
        """Bulk install, honouring the cache bound on replicated tables."""
        super().sync_all_state()
        for name in self.cached_tables:
            entries = list(self.state.maps[name].items())[-self.cache_entries:]
            table = self.switch.tables[name]
            table.punt_on_miss = True
            # Rebuild the bounded view.
            table._main.clear()
            self._fifo[name].clear()
            for keys, value in entries:
                table._main[keys] = value
                self._fifo[name][keys] = True

    # -- the packet path ------------------------------------------------------

    def process_packet(self, packet: RawPacket, ingress_port: int = 1) -> PacketJourney:
        from repro.sim.clock import PACKET_GAP_US

        index = self.packets_processed
        self.packets_processed += 1
        tracer = self.telemetry.active_tracer
        self.telemetry.clock.advance(PACKET_GAP_US)
        if self._series is not None:
            self._series.roll()
        if tracer is not None:
            tracer.begin_packet(index)
        if self._int is not None:
            self._int.begin_packet(index, packet)
        wire_bytes = packet.wire_length()
        if self.faults_armed:
            journey = self._process_with_faults(packet, ingress_port, index)
            self._finish_journey(journey, wire_bytes)
            return journey
        pristine = packet.copy()  # the switch's clone, taken at ingress
        mark = tracer.mark() if tracer is not None else 0
        first = self.switch.receive(packet, ingress_port)
        if not first.punted:
            self.stats.hits += 1
            if tracer is not None:
                tracer.record("cache_hit", component="cache")
            journey = PacketJourney(
                verdict="drop" if first.dropped else "send",
                emitted=first.emitted,
                fast_path=True,
                pre_instructions=first.pipeline_instructions,
            )
            self._finish_journey(journey, wire_bytes)
            return journey
        if tracer is not None:
            # The pre pipeline's work is speculative on a miss: the server
            # reruns the whole program, so its traced effects are dropped.
            tracer.rollback_effects(mark)
        pristine.ingress_port = ingress_port
        completion = self.complete_punt(pristine)
        # The caller's packet handle reflects the full run's rewrites.
        packet.adopt(pristine)
        journey = PacketJourney(
            verdict=completion.verdict,
            emitted=[(port, packet) for port, _ in completion.emitted],
            fast_path=False,
            punted=True,
            pre_instructions=first.pipeline_instructions,
            server_instructions=completion.server_instructions,
            sync_wait_us=completion.sync_wait_us,
            sync_tables=completion.sync_tables,
        )
        self._finish_journey(journey, wire_bytes)
        return journey

    def _punt_frame(
        self, first: SwitchOutput, pristine: RawPacket, ingress_port: int
    ) -> RawPacket:
        """Cache punts carry the pristine ingress clone, not the shim frame
        (the server reruns the complete program on it)."""
        frame = pristine.copy()
        frame.ingress_port = ingress_port
        return frame

    def complete_punt(self, punted_packet: RawPacket) -> PuntCompletion:
        """Cache miss (or genuine slow path): run the *complete* middlebox
        program on the pristine clone, then replicate writes and refill.

        Mirrors the base class's fault handling so the harness can drive
        it: an update batch that never lands raises ``UpdateBatchError``
        with the cache FIFO restored (the caller rolls server state back),
        and a lost return frame drops the packet after the state committed.
        """
        from repro.sim.clock import PUNT_LINK_US, SERVER_INSTR_US

        self.stats.misses += 1
        tracer = self.telemetry.active_tracer
        self.telemetry.clock.advance(PUNT_LINK_US)
        if tracer is not None:
            tracer.record("cache_miss", component="cache")
            tracer.set_component("server")
        self.state.drain_journal()
        self.state.read_log.clear()
        ingress_port = punted_packet.ingress_port
        if self._fallback_engine is not None:
            result = self._fallback_engine.run(
                self.state, self.externs, packet=PacketView(punted_packet)
            )
        else:
            result = Interpreter(
                self.plan.middlebox.process, self.state, self.externs
            ).run(PacketView(punted_packet))
        self.telemetry.clock.advance(
            result.instructions_executed * SERVER_INSTR_US
        )
        fifo_snapshot = {
            name: list(fifo) for name, fifo in self._fifo.items()
        }
        updates = self._updates_and_refills()
        sync_wait = 0.0
        sync_tables = 0
        retries = 0
        retry_wait = 0.0
        stale_wait = 0.0
        if updates:
            try:
                batch = self._apply_update_batch(updates)
            except UpdateBatchError:
                # The switch rolled back byte-exactly from the undo log;
                # roll the FIFO bookkeeping back too and let the caller
                # roll the server state back.
                self._restore_fifo(fifo_snapshot)
                raise
            sync_wait = batch.visibility_latency_us
            sync_tables = batch.tables_touched
            retries = batch.attempts - 1
            retry_wait = batch.retry_wait_us
            if self.faults_armed:
                stale_wait = self.injector.stale_extra_us()
                sync_wait += stale_wait
        self._enforce_cache_bounds()
        self.telemetry.clock.advance(PUNT_LINK_US)
        if self.faults_armed:
            lost = self.injector.return_frame_fate()
            if lost is not None:
                return PuntCompletion(
                    verdict="drop", emitted=[],
                    server_instructions=result.instructions_executed,
                    post_instructions=0,
                    sync_wait_us=sync_wait, sync_tables=sync_tables,
                    retries=retries, retry_wait_us=retry_wait,
                    stale_wait_us=stale_wait, lost_reason=lost,
                )
        verdict = result.verdict or "drop"
        if tracer is not None:
            tracer.record(
                "verdict", component="server", verdict=verdict,
                port=(result.egress_port or 0) if verdict == "send" else 0,
            )
        emitted: List[Tuple[int, RawPacket]] = []
        if verdict == "send":
            port = result.egress_port or self.switch.port_pairs.get(
                ingress_port, ingress_port
            )
            emitted = [(port, punted_packet)]
        return PuntCompletion(
            verdict=verdict,
            emitted=emitted,
            server_instructions=result.instructions_executed,
            post_instructions=0,
            sync_wait_us=sync_wait,
            sync_tables=sync_tables,
            retries=retries,
            retry_wait_us=retry_wait,
            stale_wait_us=stale_wait,
        )

    # -- cache maintenance -------------------------------------------------------

    def _updates_and_refills(self) -> List[StateUpdate]:
        """Writes replicate as usual; successful reads refill the cache."""
        updates: List[StateUpdate] = []
        erased: set = set()
        for op, member, keys, value in self.state.drain_journal():
            if member not in self.plan.placements:
                continue
            placement = self.plan.placements[member]
            if not placement.replicated:
                continue
            if placement.member.kind == "scalar":
                updates.append(StateUpdate("register", member, (), value))
            elif op == "insert":
                updates.append(StateUpdate("insert", member, keys, value))
                self._note_insert(member, keys)
                erased.discard((member, keys))
            elif op == "erase":
                updates.append(StateUpdate("delete", member, keys, None))
                self._fifo.get(member, OrderedDict()).pop(keys, None)
                erased.add((member, keys))
        for name, keys, found, value in self.state.read_log:
            if not found or name not in self._fifo:
                continue
            if (name, keys) in erased:
                # The run read the entry and then deleted it (e.g. a FIN
                # steering lookup before teardown): refilling would leave a
                # stale cache entry with no authoritative backing.
                continue
            if keys not in self._fifo[name]:
                updates.append(StateUpdate("insert", name, keys, value))
                self._note_insert(name, keys)
                self.stats.refills += 1
                tracer = self.telemetry.active_tracer
                if tracer is not None:
                    tracer.record("cache_refill", component="cache",
                                  table=name, key=keys)
        self.state.read_log.clear()
        return updates

    def _note_insert(self, table: str, keys: tuple) -> None:
        fifo = self._fifo[table]
        fifo.pop(keys, None)
        fifo[keys] = True

    def _restore_fifo(self, snapshot: Dict[str, List[tuple]]) -> None:
        """Roll the FIFO bookkeeping back to a pre-batch snapshot (the
        update batch never landed, so neither did any noted insert)."""
        for name, keys_in_order in snapshot.items():
            self._fifo[name] = OrderedDict(
                (keys, True) for keys in keys_in_order
            )

    def _enforce_cache_bounds(self) -> None:
        """Evict oldest entries beyond the cache size.

        Evictions are issued by the switch's *local* control plane — cache
        management, not server→switch write-back RPCs — so no output-commit
        wait is charged and the fault harness's batch faults (which model
        RPC trouble on the write-back path) do not apply.
        """
        for name in self.cached_tables:
            fifo = self._fifo[name]
            evictions: List[StateUpdate] = []
            tracer = self.telemetry.active_tracer
            while len(fifo) > self.cache_entries:
                keys, _ = fifo.popitem(last=False)
                evictions.append(StateUpdate("delete", name, keys, None))
                self.stats.evictions += 1
                if tracer is not None:
                    tracer.record("cache_evict", component="cache",
                                  table=name, key=keys)
            if evictions:
                control = self.switch.control_plane
                hook = control.fault_hook
                control.fault_hook = None
                try:
                    control.apply_batch(evictions)
                finally:
                    control.fault_hook = hook

    # -- crash recovery ------------------------------------------------------

    def crash_resync(self) -> None:
        """Rebuild server state from the switch after a crash.

        In cache mode the switch holds only the cached *subset* of each
        bounded table, so that subset is all a restart can recover — a
        larger but still *declared* degradation than the full-replication
        deployment (the fault oracle mirrors it on its reference).  The
        FIFO bookkeeping is rebuilt from the surviving switch entries in
        their table order.
        """
        super().crash_resync()
        for name in self.cached_tables:
            self._fifo[name] = OrderedDict(
                (keys, True)
                for keys in self.switch.tables[name].snapshot()
            )

    def switch_cache_occupancy(self) -> Dict[str, int]:
        return {
            name: self.switch.tables[name].entry_count
            for name in self.cached_tables
        }


def build_cached(
    name: str,
    cache_entries: int,
    seed: int = 0,
    clock=None,
    telemetry=None,
) -> CachedGalliumMiddlebox:
    """Compile + deploy one middlebox in table-cache mode."""
    from repro.middleboxes import load
    from repro.runtime.deployment import compile_middlebox

    bundle = load(name)
    plan, program = compile_middlebox(bundle.lowered)
    middlebox = CachedGalliumMiddlebox(
        plan, program, cache_entries=cache_entries,
        config=bundle.config, seed=seed, clock=clock,
        telemetry=telemetry,
    )
    middlebox.install()
    return middlebox
