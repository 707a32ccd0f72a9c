"""The FFE processor model: 60 cores, 4 threads/core, shared complex
blocks (§4.5, Figure 7).

Microarchitecture modelled:

* each core issues at most one instruction per cycle, chosen from its
  4 thread slots by a **priority encoder** (slot 0 wins ties) — not
  fair scheduling;
* all functional units are **fully pipelined**: any unit accepts a new
  operation every cycle, so a thread stalled on a long fpdiv/ln does
  not block other threads;
* within a thread, execution is in-order and dependent: the next
  instruction issues only after the previous completes (expression
  code is a dependence chain);
* complex ops (ln/fpdiv/exp/ftoi) arbitrate for the **one complex
  block per 6-core cluster** with round-robin priority: one complex
  issue per cluster per cycle;
* the feature storage tile is double-buffered, so one document loads
  while another processes — modelled as zero reload gap between docs.

The simulation is event-driven per instruction (not per cycle), so the
cost is O(total instructions), yet issue-port and complex-block
contention are accounted cycle-accurately.
"""

from __future__ import annotations

import dataclasses
import heapq
import math

from repro.ranking.ffe.assembler import FfeProgram, cluster_of
from repro.ranking.ffe.compiler import CompiledExpression
from repro.ranking.ffe.isa import Instruction, Opcode, REGISTER_COUNT


@dataclasses.dataclass
class ExecutionResult:
    """Outputs plus timing of one document's pass through the processor."""

    outputs: dict  # output_slot -> value
    cycles: int
    instructions_executed: int
    complex_ops: int
    complex_stall_cycles: int

    def time_ns(self, clock_mhz: float) -> float:
        return self.cycles * 1_000.0 / clock_mhz


class FfeProcessor:
    """Executes an :class:`FfeProgram` against one feature vector."""

    def __init__(self, program: FfeProgram):
        self.program = program

    # -- functional execution ----------------------------------------------------

    @staticmethod
    def _execute_instruction(
        instr: Instruction, regs: list, features: dict, outputs: dict, slot: int
    ) -> None:
        op = instr.op
        if op is Opcode.LDC:
            regs[instr.dst] = float(instr.imm)
        elif op is Opcode.LDF:
            regs[instr.dst] = features.get(instr.imm, 0.0)
        elif op is Opcode.ADD:
            regs[instr.dst] = regs[instr.a] + regs[instr.b]
        elif op is Opcode.SUB:
            regs[instr.dst] = regs[instr.a] - regs[instr.b]
        elif op is Opcode.MUL:
            regs[instr.dst] = regs[instr.a] * regs[instr.b]
        elif op is Opcode.MIN:
            regs[instr.dst] = min(regs[instr.a], regs[instr.b])
        elif op is Opcode.MAX:
            regs[instr.dst] = max(regs[instr.a], regs[instr.b])
        elif op is Opcode.NEG:
            regs[instr.dst] = -regs[instr.a]
        elif op is Opcode.ABS:
            regs[instr.dst] = abs(regs[instr.a])
        elif op is Opcode.CMPLT:
            regs[instr.dst] = 1.0 if regs[instr.a] < regs[instr.b] else 0.0
        elif op is Opcode.CMPLE:
            regs[instr.dst] = 1.0 if regs[instr.a] <= regs[instr.b] else 0.0
        elif op is Opcode.CMPEQ:
            regs[instr.dst] = 1.0 if regs[instr.a] == regs[instr.b] else 0.0
        elif op is Opcode.SEL:
            regs[instr.dst] = regs[instr.b] if regs[instr.a] != 0.0 else regs[instr.c]
        elif op is Opcode.FPDIV:
            b = regs[instr.b]
            regs[instr.dst] = regs[instr.a] / b if b != 0.0 else 0.0
        elif op is Opcode.LN:
            import math

            a = regs[instr.a]
            regs[instr.dst] = math.log(a) if a > 0.0 else 0.0
        elif op is Opcode.EXP:
            import math

            regs[instr.dst] = math.exp(min(regs[instr.a], 700.0))
        elif op is Opcode.FTOI:
            regs[instr.dst] = float(int(regs[instr.a]))
        elif op is Opcode.RET:
            outputs[slot] = regs[instr.a]
        else:  # pragma: no cover - exhaustive
            raise RuntimeError(f"unhandled opcode {op}")

    # -- timed execution -------------------------------------------------------------

    def execute(self, features: dict) -> ExecutionResult:
        """Run every thread's expressions; returns outputs and cycles.

        Event-driven schedule: each thread is a sequential stream of
        instructions; cores and cluster complex-blocks are modelled as
        next-free-cycle counters with priority arbitration.
        """
        program = self.program
        outputs: dict = {}
        instructions_executed = 0
        complex_ops = 0
        complex_stalls = 0

        core_free = [0] * program.core_count
        cluster_count = cluster_of(program.core_count - 1) + 1
        complex_free = [0] * cluster_count

        # Per-thread cursors: (ready_cycle, core, slot, expr_idx, instr_idx,
        # registers).  A heap ordered by (ready, slot, core) realizes the
        # priority encoder: earlier-ready first, then lower slot number.
        heap: list = []
        thread_regs: dict = {}
        for thread in program.threads:
            if thread.expressions:
                key = (0, thread.slot, thread.core)
                heapq.heappush(heap, key + (0, 0))
                thread_regs[(thread.core, thread.slot)] = [0.0] * REGISTER_COUNT

        max_cycle = 0
        while heap:
            ready, slot, core, expr_idx, instr_idx = heapq.heappop(heap)
            thread = self.program.thread(core, slot)
            expr: CompiledExpression = thread.expressions[expr_idx]
            instr: Instruction = expr.instructions[instr_idx]

            # Issue-port arbitration: one instruction per core per cycle.
            issue = max(ready, core_free[core])
            # Complex-block arbitration: one per cluster per cycle.
            if instr.is_complex:
                cluster = cluster_of(core)
                stall_free = max(issue, complex_free[cluster])
                complex_stalls += stall_free - issue
                issue = stall_free
                complex_free[cluster] = issue + 1
                complex_ops += 1
            core_free[core] = issue + 1

            regs = thread_regs[(core, slot)]
            self._execute_instruction(
                instr, regs, features, outputs, expr.output_slot
            )
            instructions_executed += 1
            complete = issue + instr.latency
            max_cycle = max(max_cycle, complete)

            # Advance the thread cursor (in-order, dependent issue).
            instr_idx += 1
            if instr_idx >= len(expr.instructions):
                expr_idx += 1
                instr_idx = 0
            if expr_idx < len(thread.expressions):
                heapq.heappush(heap, (complete, slot, core, expr_idx, instr_idx))

        return ExecutionResult(
            outputs=outputs,
            cycles=max_cycle,
            instructions_executed=instructions_executed,
            complex_ops=complex_ops,
            complex_stall_cycles=complex_stalls,
        )

    def evaluate_only(self, features: dict) -> dict:
        """Functional-only execution (no timing): the program's outputs
        for ``features``, from the straight-line function generated for
        it on first use (see :func:`compile_program`).  Every thread's
        expressions run in program order over one shared register file,
        exactly as :meth:`_execute_instruction` would run them."""
        program = self.program
        evaluate = program.evaluator
        if evaluate is None:
            evaluate = program.evaluator = compile_program(program)
        return evaluate(features)


# Each opcode as one statement over the register locals ``r0``..``r31``:
# the straight-line twin of FfeProcessor._execute_instruction.  ``imm``
# is LDC's constant, LDF's feature slot or RET's output slot.
_STATEMENTS = {
    Opcode.LDC: "{dst} = {imm}",
    Opcode.LDF: "{dst} = get({imm}, 0.0)",
    Opcode.ADD: "{dst} = {a} + {b}",
    Opcode.SUB: "{dst} = {a} - {b}",
    Opcode.MUL: "{dst} = {a} * {b}",
    Opcode.MIN: "{dst} = min({a}, {b})",
    Opcode.MAX: "{dst} = max({a}, {b})",
    Opcode.NEG: "{dst} = -{a}",
    Opcode.ABS: "{dst} = abs({a})",
    Opcode.CMPLT: "{dst} = 1.0 if {a} < {b} else 0.0",
    Opcode.CMPLE: "{dst} = 1.0 if {a} <= {b} else 0.0",
    Opcode.CMPEQ: "{dst} = 1.0 if {a} == {b} else 0.0",
    Opcode.SEL: "{dst} = {b} if {a} != 0.0 else {c}",
    Opcode.FPDIV: "{dst} = {a} / {b} if {b} != 0.0 else 0.0",
    Opcode.LN: "{dst} = log({a}) if {a} > 0.0 else 0.0",
    Opcode.EXP: "{dst} = exp(min({a}, 700.0))",
    Opcode.FTOI: "{dst} = float(int({a}))",
    Opcode.RET: "o[{imm}] = {a}",
}


def compile_program(program: FfeProgram):
    """Generate ``f(features) -> outputs`` running ``program`` straight-line.

    The registers become locals initialised to ``0.0`` once and shared
    by every expression, as the interpreter's register file is.  LDC
    constants come from a bound table, so inf, nan and -0.0 survive;
    int feature and output slots are literals.
    """
    constants: list = []

    def constant(value) -> str:
        constants.append(value)
        return f"k[{len(constants) - 1}]"

    def slot(value) -> str:
        return repr(value) if type(value) is int else constant(value)

    lines = []
    for thread in program.threads:
        for expr in thread.expressions:
            for instr in expr.instructions:
                op = instr.op
                if op is Opcode.LDC:
                    imm = constant(float(instr.imm))
                elif op is Opcode.LDF:
                    imm = slot(instr.imm)
                elif op is Opcode.RET:
                    imm = slot(expr.output_slot)
                else:
                    imm = None
                statement = _STATEMENTS[op].format(
                    dst=f"r{instr.dst}",
                    a=f"r{instr.a}",
                    b=f"r{instr.b}",
                    c=f"r{instr.c}",
                    imm=imm,
                )
                lines.append(f"    {statement}")
    registers = " = ".join(f"r{i}" for i in range(REGISTER_COUNT))
    source = "\n".join(
        [
            "def _evaluate(features):",
            "    k = _k",
            "    get = features.get",
            "    o = {}",
            f"    {registers} = 0.0",
            *lines,
            "    return o\n",
        ]
    )
    namespace = {"_k": tuple(constants), "log": math.log, "exp": math.exp}
    exec(compile(source, "<ffe program>", "exec"), namespace)
    return namespace["_evaluate"]
