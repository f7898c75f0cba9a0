"""The interpreter and the symbolic engine share one dispatch loop
(``repro.ir.interp.execute``) over two value domains.  On fully concrete
inputs — every packet field and state value a ``const`` term — the
symbolic run must be the concrete run: same verdict, egress, final
environment, state journal and packet, packet after packet."""

import pytest

from repro.difftest.oracle import StreamSpec
from repro.ir.externs import ExternHost
from repro.ir.interp import (
    _FIELD_MAP,
    Interpreter,
    InterpreterError,
    PacketView,
    StateStore,
)
from repro.verify.symbolic.engine import (
    BudgetExhausted,
    Chooser,
    SymExecError,
    SymExternHost,
    SymPacketView,
    SymStateStore,
    sym_run,
)
from repro.verify.symbolic.terms import Term, const
from repro.workloads.iperf import IperfWorkload, middlebox_stream
from tests.conftest import oracle_middleboxes

_ETH_FIELDS = ("h_dest", "h_source", "h_proto")


def _concrete(value):
    """Unwrap const terms (recursively through tuples, lists, dicts)."""
    if isinstance(value, Term):
        assert value.is_const, f"non-constant term {value!r}"
        return value.value
    if isinstance(value, (tuple, list)):
        return type(value)(_concrete(v) for v in value)
    if isinstance(value, dict):
        return {k: _concrete(v) for k, v in value.items()}
    return value


def _sym_packet(view: PacketView) -> SymPacketView:
    """A symbolic view of ``view``'s packet with every field a const."""
    raw = view.raw
    present = {"ip": raw.ip is not None, "tcp": raw.tcp is not None,
               "udp": raw.udp is not None}
    fields = {("eth", name): const(view.get_field("eth", name))
              for name in _ETH_FIELDS}
    for region, name in _FIELD_MAP:
        if present[region]:
            fields[(region, name)] = const(view.get_field(region, name))
    return SymPacketView(
        fields, has_ip=present["ip"], has_tcp=present["tcp"],
        has_udp=present["udp"], payload=raw.payload,
        ingress_port=const(raw.ingress_port),
    )


def _packet_fields(view) -> dict:
    keys = [("eth", name) for name in _ETH_FIELDS] + list(_FIELD_MAP)
    return {key: _concrete(view.get_field(*key)) for key in keys}


def _stream(position: int, name: str):
    packets = StreamSpec(seed=position, count=12).build()
    if not name.startswith("seed"):
        workload = IperfWorkload(connections=2, packets_per_connection=2)
        packets += list(middlebox_stream(name, workload))
    return packets


def _outcome(run):
    try:
        return run()
    except (InterpreterError, SymExecError, BudgetExhausted) as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("chunk", range(4))
def test_symbolic_run_on_constants_is_the_interpreter_run(chunk):
    corpus = list(enumerate(oracle_middleboxes()))[chunk::4]
    compared = 0
    for position, (name, lowered, config) in corpus:
        state = StateStore(lowered.state)
        externs = ExternHost(config=config)
        if lowered.configure is not None:
            Interpreter(lowered.configure, state, externs).run()
        state.drain_journal()
        chooser = Chooser()
        sym_state = SymStateStore(lowered.state, state.snapshot(), chooser)
        sym_externs = SymExternHost(config, chooser)
        interpreter = Interpreter(lowered.process, state, externs)
        for index, (packet, ingress) in enumerate(_stream(position, name)):
            packet.ingress_port = ingress
            view = PacketView(packet)
            sym_view = _sym_packet(view)

            def concrete():
                result = interpreter.run(view)
                return result.verdict, result.egress_port, result.env

            def symbolic():
                result = sym_run(lowered.process, sym_state, chooser,
                                 packet=sym_view, externs=sym_externs)
                return (result.verdict, _concrete(result.egress),
                        _concrete(result.env))

            where = f"{name} packet {index}"
            assert _outcome(symbolic) == _outcome(concrete), where
            assert (_concrete(sym_state.drain_journal())
                    == state.drain_journal()), where
            assert _packet_fields(sym_view) == _packet_fields(view), where
            compared += 1
        assert chooser.trace == [], f"{name}: a decision was not concrete"
    assert compared >= 12 * len(corpus)
