"""A simple flat byte-addressable memory with word access helpers.

Main memory in the reproduction sits *outside* the latch fault space — in
the real POWER6 system the memory behind the core is ECC protected and was
not the target of the paper's latch-injection campaigns.  The beam
experiment simulator models array upsets separately (see ``repro.beam``).
"""

from __future__ import annotations

from operator import itemgetter

from repro.isa.encoding import WORD_MASK


class Memory:
    """Sparse word-organised memory.

    Internally stores aligned 32-bit words keyed by word index, which keeps
    checkpointing cheap (a shallow dict copy) and lookups fast.
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def load_word(self, addr: int) -> int:
        """Read a 32-bit word.  ``addr`` must be 4-byte aligned."""
        if addr & 3:
            raise ValueError(f"unaligned word access at 0x{addr:08x}")
        return self._words.get(addr >> 2, 0)

    def store_word(self, addr: int, value: int) -> None:
        """Write a 32-bit word.  ``addr`` must be 4-byte aligned."""
        if addr & 3:
            raise ValueError(f"unaligned word access at 0x{addr:08x}")
        self._words[addr >> 2] = value & WORD_MASK

    def load_byte(self, addr: int) -> int:
        """Read one byte (zero-extended), big-endian within the word."""
        word = self._words.get(addr >> 2, 0)
        shift = (3 - (addr & 3)) * 8
        return (word >> shift) & 0xFF

    def store_byte(self, addr: int, value: int) -> None:
        """Write one byte, big-endian within the word."""
        idx = addr >> 2
        shift = (3 - (addr & 3)) * 8
        word = self._words.get(idx, 0)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self._words[idx] = word & WORD_MASK

    def load_program(self, words: list[int], base: int = 0) -> None:
        """Copy a list of 32-bit words into memory starting at ``base``."""
        if base & 3:
            raise ValueError("program base must be word aligned")
        idx = base >> 2
        for offset, word in enumerate(words):
            self._words[idx + offset] = word & WORD_MASK

    def snapshot(self) -> dict[int, int]:
        """Cheap copy of the memory contents, for checkpoint/compare."""
        return dict(self._words)

    def restore(self, snap: dict[int, int]) -> None:
        """Restore the contents captured by :meth:`snapshot`."""
        self._words = dict(snap)

    def nonzero_words(self) -> dict[int, int]:
        """Mapping of word-index -> value for all nonzero words."""
        return {idx: w for idx, w in self._words.items() if w}

    def content_hash(self) -> int:
        """Hash of the nonzero words, order-free: a stored zero word
        hashes like an absent one, and insertion order never matters."""
        return hash(frozenset(filter(itemgetter(1), self._words.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        return self.nonzero_words() == other.nonzero_words()

    def __len__(self) -> int:
        return len(self._words)
