"""The Internet checksum (RFC 1071) used by IPv4 and UDP."""

from __future__ import annotations

__all__ = ["internet_checksum", "verify_checksum"]


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, complemented.

    Odd-length input is padded with a zero byte, per RFC 1071.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its checksum field) sums to zero."""
    return internet_checksum(data) == 0
