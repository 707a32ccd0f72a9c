"""Document scoring: the machine-learned model evaluator (§4.6).

The last stage of the pipeline takes features and free-form expressions
as inputs and produces a single floating-point score, which determines
the document's position in the ranked results.  The model occupies
three FPGAs (Scoring 0/1/2 in Figure 5), so the evaluator is an
additive ensemble of decision trees partitioned into three banks whose
partial sums combine down the pipeline.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math


@dataclasses.dataclass(frozen=True, slots=True)
class TreeNode:
    """A binary decision node (``left``/``right``) or a leaf (``value``).

    ``feature`` indexes the *packed* feature vector produced by the
    Compression stage, not raw feature slots.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclasses.dataclass(frozen=True)
class DecisionTree:
    """One regression tree over the packed feature vector."""

    root: TreeNode

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        node = self.root
        while not node.is_leaf:
            value = packed[node.feature] if node.feature < len(packed) else 0.0
            node = node.left if value <= node.threshold else node.right
        return node.value

    def node_count(self) -> int:
        def count(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def depth(self) -> int:
        def measure(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self.root)


class NeuralScorer:
    """A two-layer MLP scorer (the RankNet-style alternative).

    Bing-era ranking mixed boosted trees with neural models; the
    scoring FPGAs hold whichever the selected model uses.  The hidden
    layer is split across the three scoring banks: each bank evaluates
    a third of the hidden units and contributes its partial sum of
    ``v_j * tanh(w_j . x + b_j)``; the output bias rides with bank 2.
    """

    BANKS = 3

    def __init__(self, weights, hidden_bias, output_weights, output_bias=0.0):
        if not weights:
            raise ValueError("need at least one hidden unit")
        if len(weights) != len(hidden_bias) or len(weights) != len(output_weights):
            raise ValueError("hidden bias / output weights must match hidden units")
        self.weights = [list(w) for w in weights]  # hidden x features
        self.hidden_bias = list(hidden_bias)
        self.output_weights = list(output_weights)
        self.output_bias = output_bias

    @property
    def hidden_units(self) -> int:
        return len(self.weights)

    def _unit(self, j: int, packed: collections.abc.Sequence[float]) -> float:
        import math

        w = self.weights[j]
        activation = self.hidden_bias[j] + sum(
            w[i] * packed[i] for i in range(min(len(w), len(packed)))
        )
        return self.output_weights[j] * math.tanh(activation)

    def evaluate_bank(self, index: int, packed: collections.abc.Sequence[float]) -> float:
        if not 0 <= index < self.BANKS:
            raise ValueError(f"bank index {index} out of range")
        partial = sum(
            self._unit(j, packed)
            for j in range(index, self.hidden_units, self.BANKS)
        )
        if index == 2:
            partial += self.output_bias
        return partial

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        return sum(self.evaluate_bank(i, packed) for i in range(self.BANKS))

    def bank_node_count(self, index: int) -> int:
        """Parameter count proxy for Model Reload sizing."""
        units = len(range(index, self.hidden_units, self.BANKS))
        width = len(self.weights[0]) if self.weights else 0
        return units * (width + 2)

    def total_nodes(self) -> int:
        return sum(self.bank_node_count(i) for i in range(self.BANKS))

    @property
    def tree_count(self) -> int:  # uniform scorer interface
        return self.hidden_units


class BoostedTreeScorer:
    """An additive tree ensemble split into three scoring banks.

    The ensemble is fixed once built, as the model on a scoring FPGA
    is: :meth:`evaluate_bank` runs a Python function generated from the
    bank's trees on first use (see :func:`compile_bank`), while
    :meth:`evaluate` walks the trees and serves as its oracle.
    """

    BANKS = 3

    def __init__(self, trees: list, learning_rate: float = 0.1):
        if not trees:
            raise ValueError("scorer needs at least one tree")
        self.trees = list(trees)
        self.learning_rate = learning_rate
        self._compiled_banks: dict = {}  # bank index -> generated function

    def bank(self, index: int) -> list:
        """The trees evaluated on scoring FPGA ``index`` (round-robin)."""
        if not 0 <= index < self.BANKS:
            raise ValueError(f"bank index {index} out of range")
        return self.trees[index :: self.BANKS]

    def evaluate_bank(self, index: int, packed: collections.abc.Sequence[float]) -> float:
        """Partial sum contributed by one scoring FPGA: the float
        operations of ``learning_rate * sum(tree.evaluate(packed) for
        tree in bank)``, in the same order."""
        evaluate = self._compiled_banks.get(index)
        if evaluate is None:
            evaluate = compile_bank(self.bank(index), self.learning_rate)
            self._compiled_banks[index] = evaluate
        return evaluate(packed)

    def evaluate(self, packed: collections.abc.Sequence[float]) -> float:
        """The full score: what the three banks' partial sums add up to."""
        return self.learning_rate * sum(tree.evaluate(packed) for tree in self.trees)

    def bank_node_count(self, index: int) -> int:
        return sum(tree.node_count() for tree in self.bank(index))

    def total_nodes(self) -> int:
        return sum(tree.node_count() for tree in self.trees)

    @property
    def tree_count(self) -> int:
        return len(self.trees)


# Split nodes deeper than this below a generated function's root move
# into a helper function, keeping generated expressions well inside the
# parser's nesting limits whatever the tree depth.
_MAX_NESTING = 32


def compile_bank(
    trees: collections.abc.Sequence[DecisionTree], learning_rate: float
) -> collections.abc.Callable[[collections.abc.Sequence[float]], float]:
    """Generate ``f(packed)`` returning ``learning_rate * sum(trees)``.

    Each tree becomes one nested conditional expression over constant
    indices, ``(left if p[feature] <= threshold else right)``; the trees
    are summed as a tuple in bank order from an int 0, then scaled, so
    every float operation happens in the interpreter's order.  A
    ``packed`` shorter than the widest split feature is padded with
    ``0.0``, which is what :meth:`DecisionTree.evaluate` reads there.
    Finite numbers are emitted as literals (``repr`` round-trips a
    finite float exactly); anything else is bound through a constant
    table.
    """
    constants: list = []
    helpers: list = []
    width = 0  # one past the widest non-negative split feature

    def constant(value) -> str:
        if type(value) in (int, float) and math.isfinite(value):
            return repr(value)
        constants.append(value)
        return f"_k[{len(constants) - 1}]"

    def emit(node: TreeNode, depth: int) -> str:
        nonlocal width
        if node.is_leaf:
            return constant(node.value)
        if depth == _MAX_NESTING:
            index = len(helpers)
            helpers.append("")  # reserved: the subtree may add helpers
            helpers[index] = f"def _s{index}(p, q):\n    return {emit(node, 0)}\n"
            return f"_s{index}(p, q)"
        feature = int(node.feature)
        if feature < 0:  # the interpreter indexes the caller's vector
            value = f"q[{feature}]"
        else:
            width = max(width, feature + 1)
            value = f"p[{feature}]"
        left = emit(node.left, depth + 1)
        right = emit(node.right, depth + 1)
        return f"({left} if {value} <= {constant(node.threshold)} else {right})"

    total = "".join(emit(tree.root, 0) + ", " for tree in trees)
    pad = f"    if len(q) < {width}:\n        p = [*q, *[0.0] * ({width} - len(q))]\n"
    source = "".join(helpers) + (
        "def _bank(q):\n"
        "    p = q\n"
        f"{pad if width else ''}"
        f"    return {constant(learning_rate)} * sum(({total}))\n"
    )
    namespace = {"_k": tuple(constants)}
    exec(compile(source, "<scorer bank>", "exec"), namespace)
    return namespace["_bank"]
