"""Oracle tests for the simulated cycle's table kernels.

The decoder dispatches from :func:`repro.cpu.idu.predecode`, a cached
map from a 32-bit instruction word to its dispatch record, and the RUT
checkpoint encodes through the byte-table :func:`repro.rtl.ecc_encode`.
Both replace per-cycle computations of the same pure function.  This
module keeps those computations as test-only oracles — the
``decode`` + field-extraction + ``op_info`` chain the decoder used to
run every cycle, and the bit-serial Hamming encoder — and checks the
kernels against them, faulty instruction words included.

It also pins what the touch tracer sees on a fixed default-parameter
campaign: a hot-path change that hides a latch access from the tracer
(or adds one) at or near a latch's last touch moves the golden runs'
last-touch maps or the fast path's exit mix even when every record
still agrees.  A change confined to accesses the same latch repeats
later in the run does not move them.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.cpu.idu import Predecoded, predecode
from repro.isa import Opcode, all_opinfo, decode, encode
from repro.isa.opcodes import (FPR_WRITERS, GPR_WRITERS, is_valid_opcode,
                               op_info)
from repro.rtl import ecc_encode
from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi.sampling import random_sample

words = st.integers(0, 0xFFFFFFFF)

# ----------------------------------------------------------------------
# Decode oracle: the per-cycle extraction the decoder used to run.

_STORE_GPR = frozenset({Opcode.STW, Opcode.STB})
_LSU_OPS = frozenset({Opcode.LWZ, Opcode.LBZ, Opcode.STW, Opcode.STB,
                      Opcode.LFS, Opcode.STFS})
_FPU_OPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})
_XFORM_FXU = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MULLW, Opcode.DIVW,
                        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLW,
                        Opcode.SRW, Opcode.SRAW, Opcode.CMPW, Opcode.CMPLW})
_IFORM_FXU = frozenset({Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
                        Opcode.SLWI, Opcode.SRWI, Opcode.CMPWI})


def _decode_fields(instr) -> dict:
    op = Opcode(instr.op)
    gpr_sources: tuple = ()
    fpr_sources: tuple = ()
    reads_cr = reads_lr = reads_ctr = False
    if op in _XFORM_FXU:
        gpr_sources = (instr.ra, instr.rb)
    elif op in _IFORM_FXU:
        gpr_sources = (instr.ra,)
    elif op in _LSU_OPS:
        gpr_sources = (instr.ra,)
        if op in _STORE_GPR:
            gpr_sources = (instr.ra, instr.rt)
        elif op is Opcode.STFS:
            fpr_sources = (instr.rt,)
    elif op in _FPU_OPS:
        fpr_sources = (instr.ra, instr.rb)
    elif op is Opcode.BC:
        reads_cr = True
    elif op is Opcode.BLR or op is Opcode.MFLR:
        reads_lr = True
    elif op is Opcode.MTLR or op is Opcode.MTCTR:
        gpr_sources = (instr.ra,)
    elif op is Opcode.MFCTR or op is Opcode.BDNZ:
        reads_ctr = True
    return dict(
        op=op, rt=instr.rt, ra=instr.ra, rb=instr.rb, imm=instr.imm,
        gpr_sources=gpr_sources, fpr_sources=fpr_sources,
        reads_cr=reads_cr, reads_lr=reads_lr, reads_ctr=reads_ctr,
        writes_gpr=op in GPR_WRITERS, writes_fpr=op in FPR_WRITERS,
        writes_cr=op in (Opcode.CMPW, Opcode.CMPWI, Opcode.CMPLW),
        writes_lr=op in (Opcode.BL, Opcode.MTLR),
        writes_ctr=op in (Opcode.MTCTR, Opcode.BDNZ),
    )


def oracle(word: int) -> dict | None:
    """The decoder's view of ``word``, computed from scratch."""
    instr = decode(word)
    if not is_valid_opcode(instr.op) or instr.op == Opcode.ATTN:
        return None
    fields = _decode_fields(instr)
    info = op_info(instr.op)
    fields.update(unit=info.unit, latency=info.latency, has_imm=info.has_imm)
    return fields


def assert_matches_oracle(word: int) -> None:
    expected = oracle(word)
    record = predecode(word)
    if expected is None:
        assert record is None, f"0x{word:08x}: expected illegal, got {record}"
        return
    assert isinstance(record, Predecoded)
    assert record._asdict() == expected, f"0x{word:08x}"
    assert record.op is expected["op"]


def canonical_word(op: Opcode) -> int:
    """A representative encoding of ``op`` with distinct nonzero fields."""
    if op_info(op).has_imm:
        return encode(op, rt=3, ra=5, imm=-6)
    return encode(op, rt=3, ra=5, rb=7)


ALL_OPCODES = [info.opcode for info in all_opinfo()]


class TestPredecode:
    def test_record_fields_mirror_the_oracle(self):
        """The record carries exactly the oracle's fields, in order."""
        word = canonical_word(Opcode.ADD)
        assert list(predecode(word)._fields) == list(oracle(word))

    @given(op=st.sampled_from(ALL_OPCODES), low=st.integers(0, (1 << 26) - 1))
    def test_every_opcode_with_random_fields(self, op, low):
        assert_matches_oracle((int(op) << 26) | low)

    @pytest.mark.parametrize("op", ALL_OPCODES, ids=lambda op: op.name)
    def test_every_single_bit_flip_of_the_canonical_word(self, op):
        word = canonical_word(op)
        assert_matches_oracle(word)
        for bit in range(32):
            assert_matches_oracle(word ^ (1 << bit))

    @pytest.mark.parametrize("opcode", range(64))
    def test_every_primary_opcode_value(self, opcode):
        """Defined, undefined and ATTN opcodes alike."""
        for low in (0, 0x3FFFFFF, 0x1234567):
            assert_matches_oracle((opcode << 26) | low)

    @given(words)
    def test_random_words(self, word):
        assert_matches_oracle(word)

    def test_cache_is_bounded(self):
        assert predecode.cache_info().maxsize == 4096


# ----------------------------------------------------------------------
# ECC oracle: the bit-serial Hamming SEC-DED encoder.

def _data_positions() -> list[int]:
    """Codeword positions 1.. that are not powers of two (data bits)."""
    return [pos for pos in range(1, 40) if pos & (pos - 1)][:32]


_POSITIONS = _data_positions()


def reference_ecc(data: int) -> int:
    """Hamming check bits over data positions, plus overall parity."""
    check = 0
    for i in range(6):
        bit = 0
        for index, pos in enumerate(_POSITIONS):
            if pos >> i & 1:
                bit ^= (data >> index) & 1
        check |= bit << i
    overall = (bin(data).count("1") + bin(check).count("1")) & 1
    return check | (overall << 6)


class TestEccTables:
    @pytest.mark.parametrize("data", [0, 0xFFFFFFFF]
                             + [1 << bit for bit in range(32)])
    def test_fixed_words(self, data):
        assert ecc_encode(data) == reference_ecc(data)

    @given(words)
    def test_random_words(self, data):
        assert ecc_encode(data) == reference_ecc(data)

    @given(words, words)
    def test_linear_over_gf2(self, a, b):
        assert ecc_encode(a ^ b) == ecc_encode(a) ^ ecc_encode(b)


# ----------------------------------------------------------------------
# What the touch tracer sees, pinned on a default-parameter campaign.

#: SHA-256 of each testcase's sorted ``GoldenTrace.last_touch`` items
#: (JSON), and the fast path's exit mix over the campaign below.  Both
#: were recorded before the cycle's hot path was restructured; a change
#: to the last cycle in which the machine reads or writes any latch
#: moves them.
PINNED_LAST_TOUCH = [
    "6043af0af34526d7c4e65f7fbd8c2d0a05757a950e3c26a8ac14b533da81542f",
    "633ea0a20acbafc5dbb4d4471e6694f1acaf60318c908dca4cb27a54d6b31425",
]
PINNED_EXIT_MIX = {"masked": 104, "golden": 10, "none": 6}


@pytest.fixture(scope="module")
def default_experiment() -> SfiExperiment:
    return SfiExperiment(CampaignConfig(suite_size=2))


def last_touch_digest(golden) -> str:
    items = sorted(golden.last_touch.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


class TestTouchTracePinned:
    def test_golden_last_touch_maps(self, default_experiment):
        assert [last_touch_digest(golden)
                for golden in default_experiment.goldens] == PINNED_LAST_TOUCH

    def test_fast_path_exit_mix(self, default_experiment):
        experiment = default_experiment
        sites = random_sample(experiment.latch_map, 120, random.Random(16))
        mix: dict[str, int] = {}

        def note_exit(position, payload):
            kind = payload.get("exit", "none")
            mix[kind] = mix.get(kind, 0) + 1

        experiment.fastpath_hook = note_exit
        try:
            experiment.run_campaign(sites, seed=16)
        finally:
            experiment.fastpath_hook = None
        assert mix == PINNED_EXIT_MIX
