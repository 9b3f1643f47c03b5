"""The Internet checksum (RFC 1071) used by IPv4 and UDP."""

from __future__ import annotations

__all__ = ["internet_checksum", "verify_checksum"]


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, complemented.

    Odd-length input is padded with a zero byte, per RFC 1071.

    The sum is one bignum reduction, not a word loop.  Read the buffer
    as a big-endian integer ``v``; since 2**16 ≡ 1 (mod 0xFFFF), ``v``
    is congruent to the sum of its 16-bit words, and end-around carry
    preserves that residue (RFC 1071 §2).  So the folded sum is
    ``v % 0xFFFF``, with one exception: a nonzero buffer whose residue
    is 0 (e.g. ``b"\\xff\\xff" * k``) folds to 0xFFFF, one's-complement
    negative zero, not to 0 (RFC 1624 §3).  Every byte still enters the
    sum.
    """
    if len(data) % 2:
        data = data + b"\x00"
    value = int.from_bytes(data, "big")
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its checksum field) sums to zero."""
    return internet_checksum(data) == 0
