"""Span layer: recorder semantics, meta hygiene, tree integrity.

The end-to-end tests arm real testbeds (all four stacks) and assert
the structural invariants of the resulting span trees — every span's
parent lives in the same trace, every trace has exactly one root, no
span is left open — under a calm wire and under a lossy fault plan.
"""

import pytest

from repro.experiments.four_stacks import STACKS, _build_stack
from repro.faults.context import active
from repro.faults.plan import FaultPlan
from repro.obs.instrument import arm_testbed
from repro.obs.spans import SpanRecorder, public_meta
from repro.sim.clock import MS
from repro.sim.engine import Simulator


# -- unit level --------------------------------------------------------------


def _recorder():
    return SpanRecorder(Simulator())


def test_root_child_linking_and_ctx():
    rec = _recorder()
    root = rec.start_trace("rpc", "client", request_id=7)
    child = rec.start("nic.rx", "nic", root.ctx)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert root.parent_id is None
    assert root.fields == {"request_id": 7}
    assert len(rec) == 2


def test_trace_and_span_ids_are_unique():
    rec = _recorder()
    roots = [rec.start_trace("rpc", "client") for _ in range(10)]
    assert len({r.trace_id for r in roots}) == 10
    assert len({r.span_id for r in roots}) == 10


def test_finish_sets_end_and_rejects_double_close():
    rec = _recorder()
    span = rec.start_trace("rpc", "client")
    rec.sim.now = 50.0
    assert rec.finish(span, verdict="ok") == 50.0
    assert span.fields["verdict"] == "ok"
    with pytest.raises(ValueError):
        rec.finish(span)


def test_open_span_has_no_duration():
    rec = _recorder()
    span = rec.start_trace("rpc", "client")
    assert not span.finished
    with pytest.raises(ValueError):
        span.duration_ns


def test_record_synthesized_interval():
    rec = _recorder()
    root = rec.start_trace("rpc", "client")
    span = rec.record("wire.req", "net", root.ctx, 10.0, 35.0)
    assert span.finished and span.duration_ns == 25.0
    assert rec.children_of(root) == [span]


def test_integrity_flags_violations():
    rec = _recorder()
    root = rec.start_trace("rpc", "client")
    rec.finish(root)
    assert rec.check_integrity() == []

    orphan = rec.record("x", "nic", (root.trace_id, 999), 0.0, 1.0)
    problems = rec.check_integrity()
    assert any("does not exist" in p for p in problems)

    other = rec.start_trace("rpc", "client")
    cross = rec.record("y", "nic", (other.trace_id, root.span_id), 0.0, 1.0)
    problems = rec.check_integrity(require_closed=False)
    assert any(f"span {cross.span_id}" in p and "trace" in p
               for p in problems)
    assert orphan.trace_id == root.trace_id  # setup sanity


def test_integrity_flags_open_and_backwards_spans():
    rec = _recorder()
    root = rec.start_trace("rpc", "client")
    assert any("never closed" in p for p in rec.check_integrity())
    assert rec.check_integrity(require_closed=False) == []
    rec.record("back", "net", root.ctx, 10.0, 5.0)
    assert any("before it starts" in p
               for p in rec.check_integrity(require_closed=False))


def test_public_meta_strips_internal_stamps():
    meta = {"request_id": 1, "obs": (1, 1), "_obs_rx_ns": 5.0,
            "_obs_enq_ns": 6.0}
    cleaned = public_meta(meta)
    assert cleaned == {"request_id": 1, "obs": (1, 1)}
    untouched = {"request_id": 1, "obs": (1, 1)}
    assert public_meta(untouched) is untouched  # no copy when clean


# -- end to end: every stack, calm wire --------------------------------------


def _run_armed(stack: str, n_requests: int = 8):
    bed, service, method = _build_stack(stack)
    recorder = arm_testbed(bed)
    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        events = [
            client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [i],
            )
            for i in range(n_requests)
        ]
        for event in events:
            yield event

    bed.sim.process(driver())
    bed.machine.run(until=2000 * MS)
    return recorder


@pytest.mark.parametrize("stack", STACKS)
def test_span_tree_integrity_calm(stack):
    recorder = _run_armed(stack)
    assert recorder.check_integrity() == []
    traces = recorder.traces()
    assert len(traces) == 8  # one trace per request
    for spans in traces.values():
        names = [s.name for s in spans]
        assert names.count("rpc") == 1
        for required in ("wire.req", "nic.rx", "app", "nic.tx", "wire.resp"):
            assert required in names, (stack, names)
        root = next(s for s in spans if s.parent_id is None)
        assert root.name == "rpc"
        # Children nest inside the root's window.
        for span in spans:
            assert span.start_ns >= root.start_ns
            assert span.end_ns <= root.end_ns


def test_linux_has_os_stages_and_lauberhorn_has_nic_stages():
    linux = {s.name for s in _run_armed("linux").spans}
    assert {"os.softirq", "os.tx"} <= linux
    lauberhorn = {s.name for s in _run_armed("lauberhorn").spans}
    assert {"nic.dispatch", "nic.egress"} <= lauberhorn


def test_unarmed_run_leaves_no_obs_meta():
    bed, service, method = _build_stack("linux")
    client = bed.clients[0]
    seen = []

    def driver():
        yield bed.sim.timeout(10_000)
        result = yield client.send_request(
            bed.server_mac, bed.server_ip, service.udp_port,
            service.service_id, method.method_id, [1],
        )
        seen.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=2000 * MS)
    assert seen and client.obs is None


# -- end to end: lossy wire ---------------------------------------------------


@pytest.mark.parametrize("stack", ["linux", "lauberhorn"])
def test_span_tree_integrity_lossy(stack):
    plan = FaultPlan.from_spec("loss=0.05,seed=3")
    with active(plan):
        recorder = _run_armed(stack, n_requests=20)
    # Dropped requests may leave their root (and a lauberhorn dispatch
    # window) open, but the structural invariants must survive
    # retransmission and duplicate delivery.
    assert recorder.check_integrity(require_closed=False) == []
    assert len(recorder.traces()) == 20
