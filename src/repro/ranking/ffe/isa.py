"""The FFE processor's instruction set.

A small three-address register ISA.  Functional units are fully
pipelined; the **complex block** (shared by each 6-core cluster) owns
LN, FPDIV, EXP and FTOI — pow, integer divide and mod do not exist in
hardware and are expanded by the compiler (§4.5).
"""

from __future__ import annotations

import dataclasses
import enum


class Opcode(enum.Enum):
    LDC = "ldc"  # dst <- constant
    LDF = "ldf"  # dst <- feature[slot] (from the feature storage tile)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MIN = "min"
    MAX = "max"
    NEG = "neg"
    ABS = "abs"
    CMPLT = "cmplt"  # dst <- 1.0 if a < b else 0.0
    CMPLE = "cmple"
    CMPEQ = "cmpeq"
    SEL = "sel"  # dst <- b if predicate(a)!=0 else c  (predicated select)
    # Complex block ops (shared per 6-core cluster):
    FPDIV = "fpdiv"
    LN = "ln"
    EXP = "exp"
    FTOI = "ftoi"
    RET = "ret"  # emit result (value in register a)


# Execution latency in core clock cycles; all units fully pipelined.
OPCODE_LATENCY: dict[Opcode, int] = {
    Opcode.LDC: 1,
    Opcode.LDF: 2,  # feature storage tile read
    Opcode.ADD: 3,
    Opcode.SUB: 3,
    Opcode.MUL: 4,
    Opcode.MIN: 2,
    Opcode.MAX: 2,
    Opcode.NEG: 1,
    Opcode.ABS: 1,
    Opcode.CMPLT: 2,
    Opcode.CMPLE: 2,
    Opcode.CMPEQ: 2,
    Opcode.SEL: 2,
    Opcode.FPDIV: 24,
    Opcode.LN: 20,
    Opcode.EXP: 18,
    Opcode.FTOI: 4,
    Opcode.RET: 1,
}

# Ops that arbitrate for the cluster's shared complex block (§4.5).
COMPLEX_OPS = frozenset({Opcode.FPDIV, Opcode.LN, Opcode.EXP, Opcode.FTOI})

REGISTER_COUNT = 32  # per-thread architectural registers


@dataclasses.dataclass(frozen=True, slots=True)
class Instruction:
    """One three-address instruction.

    ``a``/``b``/``c`` are register indices, except: LDC's ``imm`` holds
    the constant, LDF's ``imm`` holds the feature slot.
    """

    op: Opcode
    dst: int = 0
    a: int = 0
    b: int = 0
    c: int = 0
    imm: float | int = 0

    @property
    def is_complex(self) -> bool:
        return self.op in COMPLEX_OPS

    @property
    def latency(self) -> int:
        return OPCODE_LATENCY[self.op]

    def __str__(self) -> str:
        if self.op is Opcode.LDC:
            return f"ldc r{self.dst}, {self.imm}"
        if self.op is Opcode.LDF:
            return f"ldf r{self.dst}, f[{self.imm}]"
        if self.op is Opcode.RET:
            return f"ret r{self.a}"
        if self.op is Opcode.SEL:
            return f"sel r{self.dst}, r{self.a} ? r{self.b} : r{self.c}"
        return f"{self.op.value} r{self.dst}, r{self.a}, r{self.b}"
