"""Unit tests for clock conversions and RNG streams."""

import pytest

from repro.sim import GHZ, MS, SEC, US, Frequency, RngRegistry
from repro.sim.clock import bytes_time_ns


def test_unit_constants():
    assert US == 1000
    assert MS == 1_000_000
    assert SEC == 1_000_000_000


def test_frequency_cycle_conversion_roundtrip():
    f = GHZ(2.0)
    assert f.cycles_to_ns(2000) == pytest.approx(1000)
    assert f.ns_to_cycles(1000) == pytest.approx(2000)
    assert f.ns_to_cycles(f.cycles_to_ns(12345)) == pytest.approx(12345)


def test_frequency_ghz_property():
    assert GHZ(3.5).ghz == pytest.approx(3.5)


def test_frequency_rejects_nonpositive():
    with pytest.raises(ValueError):
        Frequency(0)


def test_bytes_time_ns():
    # 100 Gb/s = 12.5 GB/s -> 1250 bytes take 100ns
    assert bytes_time_ns(1250, 12.5e9) == pytest.approx(100)
    with pytest.raises(ValueError):
        bytes_time_ns(10, 0)


def test_rng_streams_deterministic():
    a = RngRegistry(seed=7).stream("nic").random()
    b = RngRegistry(seed=7).stream("nic").random()
    assert a == b


def test_rng_streams_independent_by_name():
    reg = RngRegistry(seed=7)
    xs = [reg.stream("a").random() for _ in range(5)]
    reg2 = RngRegistry(seed=7)
    reg2.stream("b").random()  # consuming another stream must not matter
    ys = [reg2.stream("a").random() for _ in range(5)]
    assert xs == ys


def test_rng_different_seeds_differ():
    a = RngRegistry(seed=1).stream("s").random()
    b = RngRegistry(seed=2).stream("s").random()
    assert a != b


def test_rng_fork_independent():
    reg = RngRegistry(seed=3)
    child = reg.fork("trial-1")
    assert child.stream("s").random() != reg.stream("s").random()
    # Fork is deterministic too.
    again = RngRegistry(seed=3).fork("trial-1")
    assert again.stream("s").random() == RngRegistry(seed=3).fork("trial-1").stream("s").random()
