"""Encryption cost models (Section 6: "encryption can be handled with
fairly standard techniques").

Two ways to pay for AEAD (AES-GCM-style) protection of RPC payloads:

* **software** — on the host CPU with AES-NI-class instructions:
  a fixed per-record setup (key schedule amortised, IV handling, tag
  check) plus a per-byte cost.  Calibrated to the ~0.7-1.5
  cycles/byte regime of AES-NI GCM plus typical TLS-record overheads.
* **NIC inline** — a pipeline stage on the NIC that en/decrypts at
  (near) line rate, adding latency but zero host instructions; the
  model mirrors the deserialisation offload's shape.

The ablation experiment (E12, ``experiments/ablation.py``) compares
stacks with encryption on: the software stacks pay per byte on the
critical path, Lauberhorn hides it in the NIC pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CryptoParams", "DEFAULT_CRYPTO", "software_crypto_instructions",
           "nic_crypto_ns"]


@dataclass(frozen=True)
class CryptoParams:
    """AEAD cost knobs."""

    sw_fixed_instructions: int = 400
    sw_instructions_per_byte: float = 1.2
    nic_fixed_ns: float = 30.0
    nic_ns_per_64b: float = 3.0


DEFAULT_CRYPTO = CryptoParams()


def software_crypto_instructions(
    nbytes: int, params: CryptoParams = DEFAULT_CRYPTO
) -> int:
    """Host instructions to seal or open an ``nbytes`` record."""
    if nbytes < 0:
        raise ValueError("negative record size")
    return int(
        params.sw_fixed_instructions + params.sw_instructions_per_byte * nbytes
    )


def nic_crypto_ns(nbytes: int, params: CryptoParams = DEFAULT_CRYPTO) -> float:
    """NIC pipeline time to seal or open an ``nbytes`` record inline."""
    if nbytes < 0:
        raise ValueError("negative record size")
    return params.nic_fixed_ns + params.nic_ns_per_64b * math.ceil(
        max(nbytes, 1) / 64
    )
