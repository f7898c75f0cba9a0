"""Tests for the benchmark's many-flow traffic generator.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench
"""

import hashlib
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import flows  # noqa: E402
from repro.net.headers import TcpFlags  # noqa: E402
from repro.workloads.packets import flow_packets  # noqa: E402

FLOWS = 100_000


def _digest(packets):
    """SHA-256 over the wire bytes and ingress ports of a packet run."""
    digest = hashlib.sha256()
    for packet in packets:
        digest.update(packet.ingress_port.to_bytes(2, "big"))
        digest.update(packet.pack())
    return digest.digest()


def _mix(seed, population=FLOWS, **kwargs):
    return flows.FlowMix(seed, population=population, daddr="10.0.0.100",
                         dport=80, **kwargs)


def _five_tuple(packet):
    return (str(packet.ip.saddr), str(packet.ip.daddr), packet.tcp.sport,
            packet.tcp.dport, packet.ip.protocol)


def test_hundred_thousand_flows_have_distinct_five_tuples():
    specs = [spec for _, spec in _mix(7).arrivals()]
    assert len(specs) == FLOWS
    tuples = {(s.saddr, s.daddr, s.sport, s.dport, s.protocol) for s in specs}
    assert len(tuples) == FLOWS
    networks = {saddr.rsplit(".", 1)[0] for saddr, *_ in tuples}
    assert len(networks) > 256  # far past one /24


def test_hundred_thousand_flow_stream_is_byte_identical_per_seed():
    first = _digest(_mix(7).packets())
    again = _digest(_mix(7).packets())
    assert first == again
    other = _digest(islice(_mix(8).packets(), 1000))
    assert other != _digest(islice(_mix(7).packets(), 1000))


def test_each_flow_is_exactly_its_flow_packets():
    mix = _mix(3, population=400)
    seen = {}
    for packet in mix.packets():
        seen.setdefault(_five_tuple(packet), []).append(packet.pack())
    specs = [spec for _, spec in mix.arrivals()]
    assert len(seen) == len(specs)
    for spec in specs:
        key = (spec.saddr, spec.daddr, spec.sport, spec.dport, spec.protocol)
        assert seen[key] == [p.pack() for p in flow_packets(spec)]


def test_zipf_recurrence_never_opens_a_five_tuple_twice():
    mix = _mix(5, population=64, zipf=1.0, concurrent=16)
    ids = [flow_id for flow_id, _ in islice(mix.arrivals(), 2000)]
    assert len(set(ids)) < len(ids)  # popular flows come back
    open_tuples = set()
    for packet in islice(mix.packets(), 20_000):
        key = _five_tuple(packet)
        if packet.tcp.flags & TcpFlags.SYN:
            assert key not in open_tuples
            open_tuples.add(key)
        elif packet.tcp.flags & TcpFlags.FIN:
            open_tuples.remove(key)
        else:
            assert key in open_tuples
