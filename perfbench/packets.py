"""The packet workloads: ``fastpath``, ``shortflow`` and ``features``.

A workload is a list of *lanes*.  A lane is one deployment (or one
multi-tenant switch) with its own seeded packet stream and its own
hand-written reference (``MiddleboxBundle.make_reference()``).  The
timed loop is closed: lanes take turns processing a chunk of packets,
one ``process_packet`` call at a time.  Packets are generated and copied
for the reference before a chunk's timer starts; the reference runs and
every packet's verdict, egress port and headers (every field, which
fixes the wire bytes) are compared after it stops.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import flows
from repro.click.packet import Packet
from repro.click.vector import Vector
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.net.addresses import ip
from repro.net.packet import RawPacket
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.workloads.iperf import EXTERNAL_SERVER, VIP

#: ``process_packet`` calls per lane between timer stops.
CHUNK = 256
#: Packets per lane after which the simulated clock is read for
#: ``sim_us_per_pkt`` (a fixed prefix, so the figure is deterministic).
SIM_MARK = 8192
#: Packets per lane in the fixed passes of the traced run.
FIXED_PACKETS = 4096

SHORTFLOW_MIDDLEBOXES = ("mazunat", "lb", "minilb", "trojan")
#: Flows per short-flow lane and round.  A lane whose flows are all done
#: starts a new round on a fresh deployment, so the state a run holds
#: (and its peak memory) does not grow with how fast the code is.
SHORTFLOW_POPULATION = 4096
#: CONGA sizes are capped so one elephant cannot fill a run.
MAX_DATA_PACKETS = 32
CONCURRENT_FLOWS = 32
#: Destination of each middlebox's short flows (what its program
#: expects: a VIP for the balancers, an outside server for the rest).
DESTINATIONS = {
    "mazunat": (EXTERNAL_SERVER, 80),
    "lb": (VIP, 80),
    "minilb": (VIP, 80),
    "trojan": (EXTERNAL_SERVER, 80),
}
#: Backends installed in MiniLB's server-only vector (as the
#: functional-equivalence tests do: the bundled config leaves it empty).
MINILB_BACKENDS = ("10.0.1.1", "10.0.1.2")

CACHE_ENTRIES = 256
FEATURE_POPULATION = 4 * CACHE_ENTRIES
ZIPF_EXPONENT = 1.0
POOL_SERVERS = 3
#: The default admitted tenant set of ``repro tenancy``.
TENANTS = ("minilb", "mazunat", "lb")
FEATURE_FLAVOURS = ("cache", "failover", "pool", "tenancy")

_PORT_PAIRS = {1: 2, 2: 1}


@dataclass
class Lane:
    """One deployment, its packet stream, and its reference."""

    name: str
    #: the object whose ``process_packet`` the loop calls
    top: object
    #: every GalliumMiddlebox behind ``top``
    middleboxes: List[GalliumMiddlebox]
    stream: Iterator[Tuple[RawPacket, int]]
    #: (packet copy, ingress port) -> observation the deployment must match
    reference: Callable[[RawPacket, int], tuple]
    #: the middlebox names whose programs the lane deploys
    programs: Tuple[str, ...]
    #: builds the lane's next round (fresh deployment, next flows) once
    #: this round's stream is exhausted; None for endless streams
    renew: Optional[Callable[[], "Lane"]] = None
    processed: int = 0
    timed_ns: int = 0
    sim_mark_us: Optional[float] = None
    mismatches: List[str] = field(default_factory=list)

    def successor(self) -> Optional["Lane"]:
        """The next round, carrying this lane's running totals."""
        if self.renew is None:
            return None
        fresh = self.renew()
        fresh.processed = self.processed
        fresh.timed_ns = self.timed_ns
        fresh.sim_mark_us = self.sim_mark_us
        fresh.mismatches = self.mismatches
        return fresh

    def replicated_entries(self) -> int:
        """Entries held in the lane's replicated switch tables."""
        return sum(
            middlebox.switch.tables[name].entry_count
            for middlebox in self.middleboxes
            for name, placement in middlebox.plan.placements.items()
            if placement.kind.value == "replicated_table"
        )

    def sim_us(self) -> float:
        return sum(mb.telemetry.clock.now_us for mb in self.middleboxes)

    def counts(self) -> Dict[str, int]:
        """Deterministic counters: same stream, same values."""
        out = {"punts": 0, "batches": 0, "updates": 0, "fast": 0}
        for mb in self.middleboxes:
            metrics = mb.telemetry.metrics
            out["punts"] += mb.switch.punted_packets
            out["fast"] += mb.switch.fast_path_packets
            out["batches"] += metrics.counter(
                "control_plane.batches_applied").value
            out["updates"] += metrics.counter(
                "control_plane.updates_applied").value
        out["sim_us"] = round(self.sim_us(), 6)
        return out

    def check(self, copies, results) -> int:
        """Compare a processed chunk with the reference; returns the
        number of mismatching packets."""
        bad = 0
        for (packet, port), result in zip(copies, results):
            expected = self.reference(packet, port)
            journey = result[1] if isinstance(result, tuple) else result
            if journey.verdict != "send":
                actual: tuple = ("drop",)
            elif not journey.emitted:
                actual = ("send", None, None)
            else:
                out_port, out_packet = journey.emitted[0]
                actual = ("send", out_port, _headers(out_packet))
            if actual != expected:
                bad += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(
                        f"{self.name} packet {self.processed}:"
                        f" expected {expected[:2]} got {actual[:2]}"
                    )
        return bad


def _headers(packet: RawPacket) -> tuple:
    """Everything ``RawPacket.pack()`` serialises, compared field by field."""
    return (packet.eth, packet.ip, packet.l4, packet.payload)


def _reference(name: str, port_base: int = 0):
    """Observation function of the hand-written reference for ``name``."""
    bundle = load(name)
    element = bundle.make_reference()
    if name == "minilb":
        element.backends = Vector([int(ip(a)) for a in MINILB_BACKENDS])

    def observe(packet: RawPacket, port: int) -> tuple:
        local = port - port_base
        handle = Packet(packet)
        packet.ingress_port = local
        element.push(handle)
        if handle.action.value != "send":
            return ("drop",)
        out_port = handle.egress_port or _PORT_PAIRS.get(local, local)
        return ("send", port_base + out_port, _headers(packet))

    return observe


def _seed_backends(middlebox: GalliumMiddlebox) -> None:
    middlebox.state.vectors["backends"] = [
        int(ip(a)) for a in MINILB_BACKENDS
    ]
    middlebox.sync_all_state()


def _deploy(name: str, cls=GalliumMiddlebox, telemetry=None, **kwargs):
    """Compile one bundled middlebox and install it, engines specialised."""
    bundle = load(name)
    plan, program = compile_middlebox(bundle.lowered)
    middlebox = cls(
        plan, program, config=bundle.config, fast_path=True,
        telemetry=telemetry() if telemetry else None, **kwargs,
    )
    middlebox.install()
    if name == "minilb":
        _seed_backends(middlebox)
    return middlebox


def _on_port(packets: Iterator[RawPacket], port: int = 1):
    for packet in packets:
        yield packet, port


def _short_flows(name: str, seed: int, **kwargs) -> flows.FlowMix:
    daddr, dport = DESTINATIONS[name]
    return flows.FlowMix(
        seed, daddr=daddr, dport=dport, concurrent=CONCURRENT_FLOWS,
        max_data_packets=MAX_DATA_PACKETS, **kwargs,
    )


def _lane_seed(seed: int, name: str) -> int:
    return random.Random(f"{seed}:{name}").getrandbits(32)


# -- workloads -----------------------------------------------------------------


def fastpath_lanes(seed: int, telemetry=None) -> List[Lane]:
    lanes = []
    for name in MIDDLEBOX_NAMES:
        middlebox = _deploy(name, telemetry=telemetry)
        stream = flows.iperf_stream(name, _lane_seed(seed, name))
        lanes.append(Lane(
            name, middlebox, [middlebox], _on_port(stream),
            _reference(name), (name,),
        ))
    return lanes


def shortflow_lanes(seed: int, telemetry=None) -> List[Lane]:
    return [_shortflow_lane(name, seed, 0, telemetry)
            for name in SHORTFLOW_MIDDLEBOXES]


def _shortflow_lane(name: str, seed: int, round_: int, telemetry) -> Lane:
    middlebox = _deploy(name, telemetry=telemetry)
    mix = _short_flows(name, _lane_seed(seed, f"{name}:{round_}"),
                       population=SHORTFLOW_POPULATION)
    return Lane(
        name, middlebox, [middlebox], _on_port(mix.packets()),
        _reference(name), (name,),
        renew=lambda: _shortflow_lane(name, seed, round_ + 1, telemetry),
    )


def _zipf_flows(name: str, seed: int) -> flows.FlowMix:
    return _short_flows(name, seed, population=FEATURE_POPULATION,
                        zipf=ZIPF_EXPONENT)


def features_lanes(seed: int) -> List[Lane]:
    from repro.runtime.cache import CachedGalliumMiddlebox
    from repro.runtime.failover import FailoverDeployment
    from repro.runtime.pool import PooledDeployment
    from repro.tenancy import build_tenant_specs
    from repro.tenancy.deployment import MultiTenantDeployment
    from repro.tenancy.allocator import PORTS_PER_TENANT

    lanes = []
    for flavour, name, cls, kwargs in (
        ("cache", "minilb", CachedGalliumMiddlebox,
         {"cache_entries": CACHE_ENTRIES}),
        ("failover", "lb", FailoverDeployment, {}),
        ("pool", "trojan", PooledDeployment, {"servers": POOL_SERVERS}),
    ):
        middlebox = _deploy(name, cls, seed=seed, **kwargs)
        mix = _zipf_flows(name, _lane_seed(seed, flavour))
        lanes.append(Lane(
            flavour, middlebox, [middlebox], _on_port(mix.packets()),
            _reference(name), (name,),
        ))
    shared = MultiTenantDeployment(
        build_tenant_specs(TENANTS), seed=seed, fast_path=True,
    )
    shared.install()
    references = {}
    streams = []
    for tenant in shared.tenants:
        if tenant.name == "minilb":
            _seed_backends(tenant.middlebox)
        base = tenant.placement.port_base
        references[base] = _reference(tenant.name, base)
        mix = _zipf_flows(tenant.name, _lane_seed(seed, f"tenant-{tenant.name}"))
        streams.append(_on_port(mix.packets(), base + 1))

    def tenant_reference(packet, port):
        base = (port - 1) // PORTS_PER_TENANT * PORTS_PER_TENANT
        return references[base](packet, port)

    lanes.append(Lane(
        "tenancy", shared, [t.middlebox for t in shared.tenants],
        _round_robin(streams, shared), tenant_reference, TENANTS,
    ))
    return lanes


def _round_robin(streams, shared):
    """Interleave tenant streams packet by packet (like
    ``MultiTenantDeployment.run_workload``), dropping the journeys the
    deployment keeps per tenant so memory stays flat."""
    while True:
        for stream in streams:
            yield next(stream)
        for tenant in shared.tenants:
            tenant.journeys.clear()


LANE_BUILDERS = {
    "fastpath": fastpath_lanes,
    "shortflow": shortflow_lanes,
    "features": features_lanes,
}


# -- measurement ------------------------------------------------------------------


#: Per-call times are binned at 10 ns up to 1 ms (fixed memory, so the
#: harness's own footprint does not grow with the packet count).
BIN_NS = 10
BINS = 100_000


@dataclass
class LoopResult:
    packets: int = 0
    timed_ns: int = 0
    failed: int = 0
    histogram: array = field(
        default_factory=lambda: array("q", bytes(8 * BINS)))
    overflow: List[int] = field(default_factory=list)
    #: punted and fast-path packets of the lanes' finished rounds
    punts: int = 0
    fast: int = 0
    #: lane name -> most replicated-table entries at the end of a round
    entries: Dict[str, int] = field(default_factory=dict)
    #: the lanes as they stand at the end (latest round of each)
    lanes: List[Lane] = field(default_factory=list)

    def retire(self, lane: Lane) -> None:
        counts = lane.counts()
        self.punts += counts["punts"]
        self.fast += counts["fast"]
        self.entries[lane.name] = max(self.entries.get(lane.name, 0),
                                      lane.replicated_entries())

    def percentile_us(self, p: float) -> float:
        """Nearest-rank percentile of the per-call times."""
        rank = max(1, -(-self.packets * p // 100))
        seen = 0
        for index, count in enumerate(self.histogram):
            seen += count
            if seen >= rank:
                return index * BIN_NS / 1e3
        return sorted(self.overflow)[int(rank - seen) - 1] / 1e3


def run_chunk(lane: Lane, count: int, result: LoopResult) -> bool:
    """Process up to ``count`` packets of ``lane`` under the timer, then
    check them against the reference.  False once the stream is done."""
    batch = list(islice(lane.stream, count))
    if not batch:
        return False
    copies = [(packet.copy(), port) for packet, port in batch]
    outputs = [None] * len(batch)
    histogram = result.histogram
    overflow = result.overflow
    process = lane.top.process_packet
    now = time.perf_counter_ns
    index = 0
    started = now()
    for packet, port in batch:
        before = now()
        outputs[index] = process(packet, port)
        elapsed = now() - before
        if elapsed < BIN_NS * BINS:
            histogram[elapsed // BIN_NS] += 1
        else:
            overflow.append(elapsed)
        index += 1
    elapsed = now() - started
    result.timed_ns += elapsed
    lane.timed_ns += elapsed
    result.failed += lane.check(copies, outputs)
    lane.processed += len(batch)
    result.packets += len(batch)
    if lane.sim_mark_us is None and lane.processed >= SIM_MARK:
        lane.sim_mark_us = lane.sim_us()
    return True


def timed_loop(lanes: List[Lane], seconds: float,
               pause: Callable[[int], object],
               mark: Callable[[], object]) -> LoopResult:
    """Closed loop over the lanes for ``seconds`` of processing time, and
    until every renewable lane has finished its first round (so what
    ``retire`` records does not depend on the host's speed).  ``pause``
    is called, untimed, after each round with the timed ns so far, and
    ``mark`` each time a lane retires once every renewable lane has
    finished its first round."""
    result = LoopResult()
    budget = int(seconds * 1e9)
    active = list(lanes)
    first_round = {lane.name for lane in lanes if lane.renew is not None}
    while active and (result.timed_ns < budget or first_round):
        for position, lane in enumerate(active):
            if run_chunk(lane, CHUNK, result):
                continue
            result.retire(lane)
            first_round.discard(lane.name)
            if not first_round:
                mark()
            active[position] = lane.successor()
        active = [lane for lane in active if lane is not None]
        pause(result.timed_ns)
    for lane in active:
        result.retire(lane)
    result.lanes = active
    return result


def fixed_pass(lanes: List[Lane], per_lane: int = FIXED_PACKETS
               ) -> LoopResult:
    """Exactly ``per_lane`` packets per lane (deterministic work)."""
    result = LoopResult()
    for _ in range(0, per_lane, CHUNK):
        for lane in lanes:
            run_chunk(lane, CHUNK, result)
    return result


# -- tracing ------------------------------------------------------------------------


def instrument_middlebox(spans, middlebox: GalliumMiddlebox) -> None:
    """Trace one deployment's components: switch pre/post, shim codec,
    server, control plane, and (when present) pool routing, the
    full-program server engine of cache misses, and the standby."""
    switch = middlebox.switch
    server_port = switch.server_port
    spans.patch(
        switch, "receive",
        lambda args: ("switchsim.post" if args[1] == server_port
                      else "switchsim.pre"),
    )
    for layout in (middlebox.program.shim_to_server,
                   middlebox.program.shim_to_switch):
        spans.patch(layout, "encode", "codegen.shim.encode")
        spans.patch(layout, "decode", "codegen.shim.decode")
    servers = [middlebox.server]
    pool = getattr(middlebox, "pool", None)
    if pool is not None:
        servers = [member.runtime for member in pool.members.values()]
        spans.patch(pool, "route", "runtime.pool.route")
    for server in servers:
        spans.patch(server, "handle", "runtime.server")
    engine = getattr(middlebox, "_fallback_engine", None)
    if engine is not None:
        spans.patch(engine, "run", "runtime.server")
    count_updates = lambda args: len(args[0])  # noqa: E731
    spans.patch(switch.control_plane, "apply_batch",
                "switchsim.control_plane", tally=count_updates)
    standby = getattr(middlebox, "standby", None)
    if standby is not None:
        spans.patch(standby.control_plane, "apply_batch",
                    "runtime.failover.standby", tally=count_updates)


def instrument(spans, lane: Lane) -> None:
    """Trace every component of ``lane``; each packet is one span op."""
    for middlebox in lane.middleboxes:
        instrument_middlebox(spans, middlebox)
    if lane.name == "tenancy":
        spans.patch(lane.top.switch, "dispatch", "tenancy.dispatch")
        for middlebox in lane.middleboxes:
            spans.patch(middlebox, "process_packet", "runtime.deployment")
        spans.patch(lane.top, "process_packet", "tenancy.deployment",
                    new_op=True)
    else:
        spans.patch(lane.top, "process_packet", "runtime.deployment",
                    new_op=True)


def traced_telemetry():
    """Deployment telemetry with the tracer, windowed series and INT on."""
    from repro.telemetry import Telemetry

    return Telemetry(tracing=True, series_window_us=1000.0,
                     int_sample_every=1)
