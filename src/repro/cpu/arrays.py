"""SRAM array models.

Caches and the recovery unit's checkpoint are SRAM arrays, not latches: the
paper's SFI campaigns sample *latches* only ("latches were randomly
selected ... among all the latches in the processor core") while the beam
experiment also upsets array cells ("including SRAM array events").  These
classes give arrays the same bit-accurate, injectable treatment as latches
so the beam simulator can strike them.
"""

from __future__ import annotations

from repro.rtl.parity import EccStatus, ecc_decode, ecc_encode, parity


class SramArray:
    """A parity-protected SRAM array of 32-bit words.

    Functional writes maintain the per-word parity bit; beam strikes flip
    data or parity bits without maintaining it, exactly like the latch
    model.
    """

    def __init__(self, name: str, words: int, width: int = 32) -> None:
        self.name = name
        self.width = width
        self.mask = (1 << width) - 1
        self.data = [0] * words
        self.par = [0] * words

    def __len__(self) -> int:
        return len(self.data)

    @property
    def bit_count(self) -> int:
        """Injectable bits: data bits plus one parity bit per word."""
        return len(self.data) * (self.width + 1)

    def write(self, index: int, value: int) -> None:
        value &= self.mask
        self.data[index] = value
        self.par[index] = value.bit_count() & 1

    def read(self, index: int) -> tuple[int, bool]:
        """Read a word; returns ``(value, parity_ok)``."""
        value = self.data[index]
        return value, (value.bit_count() & 1) == self.par[index]

    def flip(self, index: int, bit: int) -> None:
        """Beam strike: flip one bit (``bit == width`` flips the parity bit)."""
        if bit == self.width:
            self.par[index] ^= 1
        else:
            self.data[index] ^= 1 << bit

    def clear(self) -> None:
        self.data = [0] * len(self.data)
        self.par = [0] * len(self.par)

    def content_hash(self) -> int:
        """Hash of every data word and parity bit (no snapshot copy)."""
        return hash((tuple(self.data), tuple(self.par)))

    def snapshot(self) -> tuple[list[int], list[int]]:
        return list(self.data), list(self.par)

    def restore(self, snap: tuple[list[int], list[int]]) -> None:
        self.data = list(snap[0])
        self.par = list(snap[1])


class EccArray:
    """A SEC-DED protected array of 32-bit words (the RUT checkpoint).

    Single-bit strikes are correctable on read/scrub; double-bit strikes
    are uncorrectable and surface as a checkstop when consumed.
    """

    def __init__(self, name: str, words: int) -> None:
        self.name = name
        self.data = [0] * words
        self.check = [ecc_encode(0)] * words

    def __len__(self) -> int:
        return len(self.data)

    @property
    def bit_count(self) -> int:
        """Injectable bits: 32 data + 7 check bits per word."""
        return len(self.data) * 39

    def write(self, index: int, value: int) -> None:
        value &= 0xFFFFFFFF
        self.data[index] = value
        self.check[index] = ecc_encode(value)

    def write_raw(self, index: int, value: int, check: int) -> None:
        """Write a (data, check) pair without re-encoding (models a raw
        datapath deposit whose check bits travelled with the data)."""
        self.data[index] = value & 0xFFFFFFFF
        self.check[index] = check & 0x7F

    def read(self, index: int) -> tuple[int, EccStatus]:
        """Read with correction; a CORRECTED read scrubs the array."""
        data, check, status = ecc_decode(self.data[index], self.check[index])
        if status is EccStatus.CORRECTED:
            self.data[index] = data
            self.check[index] = check
        return data, status

    def flip(self, index: int, bit: int) -> None:
        """Beam strike: flip one bit (bits 32..38 hit the check field)."""
        if bit >= 32:
            self.check[index] ^= 1 << (bit - 32)
        else:
            self.data[index] ^= 1 << bit

    def content_hash(self) -> int:
        """Hash of every data word and check field (no snapshot copy)."""
        return hash((tuple(self.data), tuple(self.check)))

    def snapshot(self) -> tuple[list[int], list[int]]:
        return list(self.data), list(self.check)

    def restore(self, snap: tuple[list[int], list[int]]) -> None:
        self.data = list(snap[0])
        self.check = list(snap[1])


__all__ = ["EccArray", "SramArray", "parity"]
