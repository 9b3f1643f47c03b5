"""Unit + property tests for wire headers and checksums."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    Frame,
    HeaderError,
    Ipv4Header,
    MacAddress,
    UdpHeader,
    build_udp_frame,
    internet_checksum,
    ip_address,
    parse_udp_frame,
    verify_checksum,
)


# -- checksum ---------------------------------------------------------------

def test_checksum_known_vector():
    # Classic RFC 1071 worked example.
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert internet_checksum(data) == 0x220D


def test_checksum_zero_data():
    assert internet_checksum(b"\x00" * 10) == 0xFFFF


def _word_loop_checksum(data: bytes) -> int:
    """Reference oracle: the RFC 1071 byte-pair loop, word by word."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@given(st.binary(max_size=9216))
def test_checksum_matches_word_loop_oracle(data):
    assert internet_checksum(data) == _word_loop_checksum(data)


@pytest.mark.parametrize("length", range(71))
def test_checksum_matches_oracle_at_every_short_length(length):
    data = bytes((7 * i + 3) & 0xFF for i in range(length))
    assert internet_checksum(data) == _word_loop_checksum(data)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 64, 65, 1500, 9215, 9216])
@pytest.mark.parametrize("fill", [b"\x00", b"\xff"])
def test_checksum_matches_oracle_on_uniform_buffers(length, fill):
    data = fill * length
    assert internet_checksum(data) == _word_loop_checksum(data)


@pytest.mark.parametrize("words", [1, 2, 3, 100, 4608])
def test_checksum_nonzero_buffer_with_zero_residue(words):
    # b"\xff\xff" * k is nonzero but divisible by 0xFFFF: its folded
    # sum is 0xFFFF (negative zero), so the checksum is 0, not 0xFFFF.
    data = b"\xff\xff" * words
    assert int.from_bytes(data, "big") % 0xFFFF == 0
    assert internet_checksum(data) == _word_loop_checksum(data) == 0


@pytest.mark.parametrize("length", [1, 3, 5, 33, 1001, 6145])
def test_checksum_matches_oracle_on_odd_lengths(length):
    data = bytes((31 * i + 17) & 0xFF for i in range(length))
    assert internet_checksum(data) == _word_loop_checksum(data)
    assert internet_checksum(data) == internet_checksum(data + b"\x00")


def test_jumbo_udp_frame_roundtrip_and_tamper_detection():
    payload = bytes((13 * i + 5) & 0xFF for i in range(6 * 1024))
    frame = build_udp_frame(
        MacAddress(0x02_00_00_00_00_01), MacAddress(0x02_00_00_00_00_02),
        ip_address("10.0.0.1"), ip_address("10.0.0.2"), 4000, 9000, payload,
    )
    parsed = parse_udp_frame(frame)
    assert parsed.payload == payload
    assert parsed.udp.checksum != 0
    tampered = bytearray(frame.data)
    tampered[-1] ^= 0x01
    with pytest.raises(HeaderError, match="UDP checksum mismatch"):
        parse_udp_frame(Frame(bytes(tampered)))


@given(st.binary(min_size=0, max_size=200))
def test_checksum_verifies_after_append(data):
    checksum = internet_checksum(data)
    # Appending the checksum makes the whole buffer verify.
    padded = data + b"\x00" if len(data) % 2 else data
    assert verify_checksum(padded + checksum.to_bytes(2, "big"))


@given(st.binary(min_size=2, max_size=64))
def test_checksum_detects_single_byte_corruption(data):
    checksum = internet_checksum(data)
    corrupted = bytearray(data)
    corrupted[0] ^= 0xFF
    assert internet_checksum(bytes(corrupted)) != checksum


# -- MAC ---------------------------------------------------------------------

def test_mac_roundtrip_string():
    mac = MacAddress.from_string("02:00:00:00:00:2a")
    assert mac.value == 0x02_00_00_00_00_2A
    assert str(mac) == "02:00:00:00:00:2a"


def test_mac_roundtrip_bytes():
    mac = MacAddress(0x0A0B0C0D0E0F)
    assert MacAddress.from_bytes(mac.to_bytes()) == mac


def test_mac_rejects_out_of_range():
    with pytest.raises(HeaderError):
        MacAddress(1 << 48)
    with pytest.raises(HeaderError):
        MacAddress.from_bytes(b"\x00" * 5)


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_mac_bytes_roundtrip_property(value):
    assert MacAddress.from_bytes(MacAddress(value).to_bytes()).value == value


# -- Ethernet ------------------------------------------------------------------

def test_ethernet_pack_unpack():
    hdr = EthernetHeader(
        dst=MacAddress(0x1122_3344_5566),
        src=MacAddress(0xAABB_CCDD_EEFF),
        ethertype=ETHERTYPE_IPV4,
    )
    raw = hdr.pack()
    assert len(raw) == EthernetHeader.SIZE
    assert EthernetHeader.unpack(raw) == hdr


def test_ethernet_truncated():
    with pytest.raises(HeaderError):
        EthernetHeader.unpack(b"\x00" * 13)


# -- IPv4 ------------------------------------------------------------------------

def test_ipv4_pack_unpack_roundtrip():
    hdr = Ipv4Header(src=0x0A000001, dst=0x0A000002, total_length=100, ttl=17)
    out = Ipv4Header.unpack(hdr.pack())
    assert out.src == hdr.src and out.dst == hdr.dst
    assert out.total_length == 100 and out.ttl == 17


def test_ipv4_checksum_detects_corruption():
    raw = bytearray(Ipv4Header(src=1, dst=2, total_length=40).pack())
    raw[8] ^= 0x40  # flip a TTL bit
    with pytest.raises(HeaderError):
        Ipv4Header.unpack(bytes(raw))


def test_ipv4_unverified_parse_allows_corruption():
    raw = bytearray(Ipv4Header(src=1, dst=2, total_length=40).pack())
    raw[8] ^= 0x40
    hdr = Ipv4Header.unpack(bytes(raw), verify=False)
    assert hdr.ttl != 64


def test_ipv4_rejects_wrong_version():
    raw = bytearray(Ipv4Header(src=1, dst=2, total_length=40).pack())
    raw[0] = (6 << 4) | 5
    with pytest.raises(HeaderError):
        Ipv4Header.unpack(bytes(raw), verify=False)


@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=20, max_value=65535),
    st.integers(min_value=1, max_value=255),
)
def test_ipv4_roundtrip_property(src, dst, length, ttl):
    hdr = Ipv4Header(src=src, dst=dst, total_length=length, ttl=ttl)
    out = Ipv4Header.unpack(hdr.pack())
    assert (out.src, out.dst, out.total_length, out.ttl) == (src, dst, length, ttl)


# -- UDP ---------------------------------------------------------------------------

def test_udp_pack_unpack():
    hdr = UdpHeader(1234, 5678, 20, 0xBEEF)
    assert UdpHeader.unpack(hdr.pack()) == hdr


def test_udp_checksum_never_zero():
    # RFC 768: computed zero is sent as 0xFFFF.
    # Find via a crafted payload or just assert the invariant holds broadly.
    for payload in (b"", b"\x00", b"test", b"\xff\xff"):
        csum = UdpHeader.compute_checksum(0, 0, 0, 0, payload)
        assert csum != 0


@given(st.binary(max_size=128))
def test_udp_checksum_deterministic(payload):
    a = UdpHeader.compute_checksum(1, 2, 3, 4, payload)
    b = UdpHeader.compute_checksum(1, 2, 3, 4, payload)
    assert a == b and 0 < a <= 0xFFFF
