"""Seeded many-flow traffic for the benchmark's packet workloads.

Every flow is a :class:`~repro.workloads.packets.FlowSpec`, and its
packets are exactly the ones :func:`~repro.workloads.packets.flow_packets`
emits (SYN, data..., FIN).  What this module adds over
:class:`~repro.workloads.iperf.IperfWorkload` is scale:

* **distinct 5-tuples past one /24** — flow ``i`` gets a source address
  in 10.0.0.0/12 through a seeded bijection, so 10^5 flows (or any count
  up to 2^20) never collide, and the low 16 source bits are distinct for
  every block of 2^16 consecutive flows;
* **CONGA flow sizes** — each arrival's data-packet count is a seeded
  enterprise-distribution draw, capped so one elephant cannot dominate a
  timed run;
* **Zipf recurrence** (optional) — arrivals re-draw flow ids from a
  Zipf-like popularity law over the population, so popular 5-tuples come
  back while earlier state for them may still be installed;
* **bounded interleaving** — at most ``concurrent`` flows are open at a
  time and the next packet comes from a seeded pick among them.

Packets are copies of three prototype packets (SYN, data, FIN) built
once by ``flow_packets``, with each flow's source address, source port
and sequence numbers written in: byte-identical to ``flow_packets`` for
the flow's spec, and several times cheaper than building every packet.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterator, List, Optional, Tuple

from repro.net.addresses import ip
from repro.net.packet import RawPacket
from repro.workloads.conga import ENTERPRISE, packets_in_flow
from repro.workloads.iperf import IperfWorkload
from repro.workloads.packets import FlowSpec, flow_packets

#: Flow sources live in 10.0.0.0/12.
SOURCE_BASE = 10 << 24
SOURCE_BITS = 20


def _address(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class FlowMix:
    """A seeded population of flows and the interleaved packet stream.

    Without ``zipf`` every flow id ``0..population-1`` arrives once, in
    order, and the stream ends after the last one closes.  With ``zipf``
    (the exponent) arrivals draw ids by popularity forever; an id that is
    still open is re-drawn, so one 5-tuple is never open twice at once.
    """

    def __init__(
        self,
        seed: int,
        population: int,
        daddr: str,
        dport: int,
        concurrent: int = 32,
        max_data_packets: int = 24,
        zipf: Optional[float] = None,
    ):
        if not 0 < population <= 1 << SOURCE_BITS:
            raise ValueError(f"population must be in 1..{1 << SOURCE_BITS}")
        self.seed = seed
        self.population = population
        self.daddr = daddr
        self.dport = dport
        self.concurrent = concurrent
        self.max_data_packets = max_data_packets
        self.zipf = zipf
        mix = random.Random(seed ^ 0x5F10)
        mask = (1 << SOURCE_BITS) - 1
        self._multiplier = mix.randrange(1, mask, 2)  # odd: a bijection
        self._offset = mix.randrange(0, mask + 1)
        #: SYN, data and FIN of flow 0, from ``flow_packets``
        self._prototype = list(flow_packets(self.spec(0, 1)))
        self._cumulative: List[float] = []
        if zipf is not None:
            total = 0.0
            for rank in range(population):
                total += 1.0 / (rank + 1) ** zipf
                self._cumulative.append(total)

    def spec(self, index: int, data_packets: int) -> FlowSpec:
        """The 5-tuple of flow ``index`` carrying ``data_packets``."""
        mask = (1 << SOURCE_BITS) - 1
        source = SOURCE_BASE + ((index * self._multiplier + self._offset) & mask)
        return FlowSpec(
            saddr=_address(source),
            daddr=self.daddr,
            sport=1024 + (index * 40_503 + self.seed) % 64_000,
            dport=self.dport,
            data_packets=data_packets,
        )

    def arrivals(self) -> Iterator[Tuple[int, FlowSpec]]:
        """(flow id, spec) per flow arrival; ids repeat only with Zipf."""
        sizes = random.Random(self.seed ^ 0xC0A6)
        picks = random.Random(self.seed ^ 0x21F)
        index = 0
        while self.zipf is not None or index < self.population:
            if self.zipf is None:
                flow_id = index
            else:
                point = picks.random() * self._cumulative[-1]
                flow_id = bisect.bisect_left(self._cumulative, point)
            data = min(
                self.max_data_packets,
                packets_in_flow(ENTERPRISE.sample(sizes)),
            )
            index += 1
            yield flow_id, self.spec(flow_id, data)

    def packets(self) -> Iterator[RawPacket]:
        """The interleaved stream: each flow's ``flow_packets`` in order."""
        arrivals = self.arrivals()
        order = random.Random(self.seed ^ 0x0DE5)
        open_flows: List[list] = []
        open_ids: set = set()
        exhausted = False
        while True:
            while not exhausted and len(open_flows) < self.concurrent:
                for flow_id, spec in arrivals:
                    if flow_id not in open_ids:
                        break
                else:
                    exhausted = True
                    break
                open_ids.add(flow_id)
                open_flows.append(
                    [flow_id, spec, _retarget(self._prototype, spec), 0]
                )
            if not open_flows:
                return
            slot = order.randrange(len(open_flows))
            flow = open_flows[slot]
            packet, done = _next_packet(flow)
            if done:
                open_ids.discard(flow[0])
                open_flows[slot] = open_flows[-1]
                open_flows.pop()
            yield packet


def _retarget(prototype: List[RawPacket], spec: FlowSpec) -> List[RawPacket]:
    """Copies of the prototype flow's packets carrying ``spec``'s source."""
    saddr = ip(spec.saddr)
    packets = []
    for packet in prototype:
        packet = packet.copy()
        packet.ip.saddr = saddr
        packet.tcp.sport = spec.sport
        packets.append(packet)
    return packets


def _next_packet(flow: list) -> Tuple[RawPacket, bool]:
    """Advance one open flow; returns (packet, flow finished)."""
    _, spec, (syn, data, fin), sent = flow
    flow[3] = sent + 1
    if sent == 0:
        return syn, False
    if sent <= spec.data_packets:
        if sent == spec.data_packets:
            packet = data
        else:
            packet = data.copy()
        packet.tcp.seq = sent
        return packet, False
    return fin, True


def iperf_stream(
    middlebox: str, seed: int, connections: int = 10
) -> Iterator[RawPacket]:
    """Endless minimum-size iperf-pattern traffic for one middlebox.

    The ``connections`` flows are the ones
    :func:`~repro.workloads.iperf.middlebox_stream` builds for the
    middlebox (whitelisted tuples, redirected ports, ...): every SYN is
    sent first, then data packets of a seeded-random open flow, forever.
    """
    from repro.workloads.iperf import middlebox_stream

    workload = IperfWorkload(
        connections=connections, packets_per_connection=1, packet_size=64
    )
    packets = [packet for packet, _ in middlebox_stream(middlebox, workload)]
    flows = [packets[index:index + 3] for index in range(0, len(packets), 3)]
    for syn, _, _ in flows:
        yield syn
    order = random.Random(seed ^ 0x1BE5)
    sent = [0] * len(flows)
    while True:
        slot = order.randrange(len(flows))
        sent[slot] += 1
        packet = flows[slot][1].copy()
        packet.tcp.seq = sent[slot]
        yield packet

