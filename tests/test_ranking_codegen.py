"""Differential tests: the generated scorer banks and FFE programs
against the interpreters they replace on the request path.

``DecisionTree.evaluate`` and ``FfeProcessor._execute_instruction`` are
the oracle.  Every comparison is exact: floats by ``==`` and by the sign
of zero (so -0.0 does not match 0.0), output dicts by key order as well
as values, failures by exception type.  NaN matches any NaN: the sign
and payload of a NaN produced from two NaN operands are not even stable
within CPython, whose specialised float opcodes order operands
differently from the generic ones.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ranking.engine import ScoringEngine
from repro.ranking.ffe import (
    BinOp,
    CompiledExpression,
    CompileError,
    Const,
    Feature,
    FfeCompiler,
    FfeProcessor,
    IfThenElse,
    Instruction,
    Metafeature,
    Opcode,
    ThreadAssignment,
    UnOp,
    assemble,
)
from repro.ranking.ffe.assembler import FfeProgram
from repro.ranking.ffe.isa import REGISTER_COUNT
from repro.ranking.models import ModelLibrary, synthesize_model
from repro.ranking.scoring import BoostedTreeScorer, DecisionTree, TreeNode
from repro.workloads import TraceGenerator


def same(a, b) -> bool:
    """Same type and value; zeros by sign, NaN as NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def same_outputs(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(same(a[k], b[k]) for k in a)


# --- scorer banks --------------------------------------------------------------------


def interpreted_bank(scorer: BoostedTreeScorer, index: int, packed) -> float:
    return scorer.learning_rate * sum(
        tree.evaluate(packed) for tree in scorer.bank(index)
    )


def tree_nodes(max_feature: int = 8):
    leaves = st.builds(TreeNode, value=st.floats(width=32))

    def split(children):
        return st.builds(
            TreeNode,
            feature=st.integers(0, max_feature),
            threshold=st.floats(width=32),
            left=children,
            right=children,
        )

    return st.recursive(leaves, split, max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(tree_nodes(), min_size=1, max_size=8),
    learning_rate=st.floats(width=32),
    # Shorter and longer than the widest feature, with NaN/±inf/-0.0.
    packed=st.lists(st.floats(width=32), max_size=12),
)
def test_compiled_banks_match_the_tree_walk(roots, learning_rate, packed):
    scorer = BoostedTreeScorer([DecisionTree(root) for root in roots], learning_rate)
    for index in range(BoostedTreeScorer.BANKS):  # fewer than 3 trees: empty banks
        assert same(
            scorer.evaluate_bank(index, packed),
            interpreted_bank(scorer, index, packed),
        )


def test_empty_bank_and_single_tree_banks_compile():
    scorer = BoostedTreeScorer([DecisionTree(TreeNode(value=2.0))], learning_rate=0.5)
    assert same(scorer.evaluate_bank(0, []), 1.0)
    assert same(scorer.evaluate_bank(1, []), 0.0)
    assert same(scorer.evaluate_bank(2, [1.0]), 0.0)


def test_short_vector_reads_zero_and_tuple_input_works():
    tree = DecisionTree(
        TreeNode(
            feature=5,
            threshold=-0.0,
            left=TreeNode(value=1.0),
            right=TreeNode(value=-1.0),
        )
    )
    scorer = BoostedTreeScorer([tree], learning_rate=1.0)
    for packed in ([], [9.0], (9.0,) * 6, [9.0] * 5 + [-1.0]):
        assert same(scorer.evaluate_bank(0, packed), interpreted_bank(scorer, 0, packed))


def test_non_finite_constants_survive():
    tree = DecisionTree(
        TreeNode(
            feature=0,
            threshold=math.inf,
            left=TreeNode(value=math.nan),
            right=TreeNode(value=-0.0),
        )
    )
    for learning_rate in (math.inf, -0.0, 0.1):
        scorer = BoostedTreeScorer([tree], learning_rate=learning_rate)
        for packed in ([1.0], [math.nan], [math.inf], [-0.0]):
            assert same(
                scorer.evaluate_bank(0, packed), interpreted_bank(scorer, 0, packed)
            )


def test_negative_feature_indexes_the_unpadded_vector():
    """A negative split feature reads the caller's vector from its end,
    as the tree walk does, even when a wider split forces padding."""
    tree = DecisionTree(
        TreeNode(
            feature=4,
            threshold=math.inf,
            left=TreeNode(
                feature=-1,
                threshold=0.0,
                left=TreeNode(value=1.0),
                right=TreeNode(value=-1.0),
            ),
            right=TreeNode(value=0.5),
        )
    )
    scorer = BoostedTreeScorer([tree], learning_rate=1.0)
    assert same(scorer.evaluate_bank(0, [5.0]), -1.0)
    assert same(scorer.evaluate_bank(0, [5.0]), interpreted_bank(scorer, 0, [5.0]))


def test_deep_trees():
    """Trees far deeper than one generated expression may nest."""
    node = TreeNode(value=3.0)
    for depth in range(200):
        node = TreeNode(
            feature=depth % 7,
            threshold=float(depth % 5),
            left=TreeNode(value=float(depth)) if depth % 2 else node,
            right=node if depth % 2 else TreeNode(value=-float(depth)),
        )
    scorer = BoostedTreeScorer([DecisionTree(node)] * 3, learning_rate=0.25)
    for packed in ([4.0] * 7, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2.5] * 3):
        for index in range(3):
            assert same(
                scorer.evaluate_bank(index, packed),
                interpreted_bank(scorer, index, packed),
            )


def test_bank_index_is_validated():
    scorer = BoostedTreeScorer([DecisionTree(TreeNode(value=1.0))])
    for index in (-1, 3):
        with pytest.raises(ValueError):
            scorer.evaluate_bank(index, [])


# --- FFE programs ----------------------------------------------------------------------


def interpreted(program: FfeProgram, features: dict) -> dict:
    """The instruction-at-a-time reference: one shared register file,
    threads and expressions in program order."""
    outputs: dict = {}
    regs = [0.0] * REGISTER_COUNT
    for thread in program.threads:
        for expr in thread.expressions:
            for instr in expr.instructions:
                FfeProcessor._execute_instruction(
                    instr, regs, features, outputs, expr.output_slot
                )
    return outputs


def outcome(run, *args):
    try:
        return "ok", run(*args)
    except Exception as error:  # the exception type is the outcome
        return "raised", type(error)


def assert_programs_agree(program: FfeProgram, features: dict) -> None:
    compiled = outcome(FfeProcessor(program).evaluate_only, features)
    reference = outcome(interpreted, program, features)
    assert compiled[0] == reference[0]
    if compiled[0] == "ok":
        assert same_outputs(compiled[1], reference[1])
    else:
        assert compiled[1] is reference[1]


FEATURE_SLOTS = 6
values = st.floats() | st.sampled_from([0.0, -0.0, 1.0, 0.5, math.inf, -math.inf])
leaves = (
    st.builds(Const, values)
    | st.builds(Feature, st.integers(0, FEATURE_SLOTS))
    | st.builds(Metafeature, st.integers(0, 2))
)


def extend(children):
    return (
        st.builds(
            BinOp,
            st.sampled_from(
                ["add", "sub", "mul", "div", "min", "max", "pow", "idiv", "mod"]
            ),
            children,
            children,
        )
        | st.builds(UnOp, st.sampled_from(["ln", "exp", "neg", "abs", "ftoi"]), children)
        | st.builds(
            IfThenElse,
            st.sampled_from(["lt", "le", "eq"]),
            children,
            children,
            children,
            children,
        )
    )


expressions = st.recursive(leaves, extend, max_leaves=10)


def compile_all(exprs, cores, threads) -> FfeProgram:
    compiler = FfeCompiler()
    compiled = []
    for slot, expr in enumerate(exprs):
        try:
            compiled.append(compiler.compile(expr, 1000 + slot % 5))  # slots repeat
        except (CompileError, ArithmeticError, ValueError):
            # Register overflow, or constant folding that raises.
            assume(False)
    return assemble(compiled, core_count=cores, threads_per_core=threads)


@settings(max_examples=300, deadline=None)
@given(
    exprs=st.lists(expressions, min_size=1, max_size=8),
    cores=st.integers(1, 3),
    threads=st.integers(1, 4),
    features=st.dictionaries(
        st.sampled_from(
            list(range(FEATURE_SLOTS)) + [Metafeature(i).slot for i in range(3)]
        ),
        values,
    ),
)
def test_compiled_programs_match_the_interpreter(exprs, cores, threads, features):
    assert_programs_agree(compile_all(exprs, cores, threads), features)


def test_one_program_covers_every_opcode():
    x, y = Feature(0), Feature(1)
    expr = IfThenElse(
        "lt",
        BinOp("pow", x, y) + BinOp("mod", x, y) - BinOp("min", x, y),
        BinOp("max", UnOp("abs", x), UnOp("neg", y)) * Const(2.0),
        IfThenElse("le", x, y, UnOp("exp", x), BinOp("div", x, y)),
        IfThenElse("eq", x, y, UnOp("ln", y), BinOp("idiv", y, x)),
    )
    program = assemble([FfeCompiler().compile(expr, 7)])
    used = {
        instr.op
        for thread in program.threads
        for compiled in thread.expressions
        for instr in compiled.instructions
    }
    assert used == set(Opcode)
    for a in (0.0, -0.0, 0.5, 3.0, -2.5, math.inf, -math.inf, math.nan):
        for b in (0.0, 1.5, -4.0, math.nan):
            assert_programs_agree(program, {0: a, 1: b})


def hand_program(*expressions) -> FfeProgram:
    thread = ThreadAssignment(core=0, slot=0)
    thread.expressions = [
        CompiledExpression(output_slot=slot, instructions=list(code), expected_latency=0)
        for slot, code in expressions
    ]
    return FfeProgram(threads=[thread], core_count=1, threads_per_core=1)


def test_ldc_keeps_inf_nan_and_negative_zero():
    program = hand_program(
        *(
            (slot, [Instruction(Opcode.LDC, dst=3, imm=value), Instruction(Opcode.RET, a=3)])
            for slot, value in enumerate([math.inf, -math.inf, math.nan, -0.0, 7])
        )
    )
    outputs = FfeProcessor(program).evaluate_only({})
    assert same_outputs(outputs, interpreted(program, {}))
    assert same(outputs[3], -0.0) and same(outputs[4], 7.0)


def test_registers_are_shared_across_expressions_and_start_at_zero():
    program = hand_program(
        (5, [Instruction(Opcode.LDF, dst=9, imm=2), Instruction(Opcode.RET, a=9)]),
        # Reads r9 written by the previous expression, and r4, never written.
        (6, [Instruction(Opcode.ADD, dst=1, a=9, b=4), Instruction(Opcode.RET, a=1)]),
        (5, [Instruction(Opcode.RET, a=31)]),  # overwrites slot 5 in place
    )
    outputs = FfeProcessor(program).evaluate_only({2: 4.5})
    assert same_outputs(outputs, interpreted(program, {2: 4.5}))
    assert list(outputs.items()) == [(5, 0.0), (6, 4.5)]


def test_ftoi_raises_like_the_interpreter():
    program = assemble([FfeCompiler().compile(UnOp("ftoi", Feature(0)), 1)])
    for value, error in ((math.nan, ValueError), (math.inf, OverflowError)):
        assert outcome(FfeProcessor(program).evaluate_only, {0: value}) == (
            "raised",
            error,
        )
        assert_programs_agree(program, {0: value})


def test_output_slots_computed_once():
    program = assemble([FfeCompiler().compile(Feature(i), 40 + i) for i in range(5)])
    slots = program.output_slots()
    assert slots == {40, 41, 42, 43, 44}
    assert program.output_slots() is slots


# --- a production-size model end to end --------------------------------------------


def test_full_scale_model_matches_the_interpreters_end_to_end():
    model = synthesize_model(0, "en-main")
    engine = ScoringEngine(ModelLibrary([model]))
    generator = TraceGenerator(seed=11)
    for _ in range(40):
        document = generator.request().document
        merged = dict(engine.features(document))
        merged.update(interpreted(model.ffe_stage0, merged))
        merged.update(interpreted(model.ffe_stage1, merged))
        assert same_outputs(engine.ffe_values(document, model), merged)
        packed = model.compression.pack(merged)
        for bank in range(3):
            assert same(
                engine.bank_partial(document, model, bank),
                interpreted_bank(model.scorer, bank, packed),
            )
