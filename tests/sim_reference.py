"""Reference AST interpreter for elaborated designs (the test oracle).

:class:`ReferenceSimulator` walks the expression AST on every
evaluation.  It is kept, with the public API of
:class:`repro.rtl.sim.RtlSimulator`, only so the test suite can check
the compiled simulator against an independent, obviously-correct
implementation — the way :mod:`tests.trace_reference` serves the
columnar trace.  Production code simulates through
:mod:`repro.rtl.compile`.

Evaluation model per clock cycle:

1. apply the cycle's stimulus to top-level inputs;
2. settle combinational logic (assigns + port connections) in a
   topological order computed once at construction — combinational
   loops are a :class:`SimulationError`;
3. evaluate every flip-flop body against the settled pre-edge state
   (non-blocking semantics: all updates are simultaneous);
4. commit the register updates and settle combinational logic again;
5. record a change event for every signal whose end-of-cycle value
   differs from the previous cycle.

Two-state semantics: ``x``/``z`` literals were already folded to 0 by the
lexer, uninitialised signals start at 0, division by zero yields 0.
"""

from __future__ import annotations

from repro.rtl import ast
from repro.rtl.compile import SimulationError, schedule
from repro.rtl.ir import ElaboratedDesign, statement_targets
from repro.rtl.trace import SignalTrace
from repro.utils.bitvec import mask


class ReferenceSimulator:
    """Simulates one :class:`ElaboratedDesign` by AST interpretation."""

    def __init__(self, design: ElaboratedDesign):
        self.design = design
        self._order = schedule(design)
        self._widths = {name: s.width for name, s in design.signals.items()}
        self.values: dict[str, int] = {name: 0 for name in design.signals}
        self.cycle = -1
        self._settle()

    # -- public API -------------------------------------------------------

    def step(self, inputs: dict[str, int] | None = None) -> None:
        """Advance one clock cycle with the given top-input values.

        Input names may be unqualified (``"i"``) or fully qualified
        (``"top.i"``).
        """
        self.cycle += 1
        if inputs:
            for name, value in inputs.items():
                qualified = self._qualify_input(name)
                self.values[qualified] = value & mask(self._widths[qualified])
        self._settle()
        updates = {}
        for ff in self.design.ffs:
            try:
                self._eval_statement(ff.body, updates)
            except SimulationError as error:
                targets = statement_targets(ff.body)
                where = ", ".join(sorted(targets)) or "<empty body>"
                raise SimulationError(
                    f"cycle {self.cycle}: in always block driving "
                    f"{where}: {error}"
                ) from error
        for target, value in updates.items():
            self.values[target] = value & mask(self._widths[target])
        self._settle()

    def run(
        self,
        cycles: int,
        stimulus: list[dict[str, int]] | None = None,
        trace: SignalTrace | None = None,
    ) -> SignalTrace:
        """Run ``cycles`` cycles; returns the recorded trace.

        ``stimulus[c]`` supplies the inputs for cycle ``c`` (missing
        entries hold their previous values).
        """
        if trace is None:
            names = self.design.signal_names()
            trace = SignalTrace(names, [self.values[n] for n in names])
        for cycle in range(cycles):
            previous = dict(self.values)
            inputs = stimulus[cycle] if stimulus and cycle < len(stimulus) else None
            self.step(inputs)
            for index, name in enumerate(trace.signal_names):
                if self.values[name] != previous[name]:
                    trace.record(self.cycle, index, previous[name], self.values[name])
            trace.close(self.cycle)
        return trace

    def value(self, name: str) -> int:
        """Current value of a signal (qualified or top-level name)."""
        return self.values[self._qualify_input(name)]

    def preset(self, values: dict[str, int], *, reset: bool = False) -> None:
        """Overwrite signal state (register initialisation) and re-settle.

        With ``reset`` the design first returns to the power-on all-zero
        state, so one simulator instance can run many programs; the
        ``values`` then seed the named registers, exactly as an RTL
        testbench would force them before releasing reset.
        """
        if reset:
            for name in self.values:
                self.values[name] = 0
            self.cycle = -1
        for name, value in values.items():
            qualified = self._qualify_input(name)
            self.values[qualified] = value & mask(self._widths[qualified])
        self._settle()

    # -- internals ----------------------------------------------------------

    def _qualify_input(self, name: str) -> str:
        if name in self.values:
            return name
        qualified = f"{self.design.top}.{name}"
        if qualified in self.values:
            return qualified
        raise KeyError(f"unknown signal {name!r}")

    def _settle(self) -> None:
        for assign in self._order:
            try:
                value = self._eval(assign.value)
            except SimulationError as error:
                raise SimulationError(
                    f"cycle {self.cycle}: while settling "
                    f"{assign.target!r}: {error}"
                ) from error
            self.values[assign.target] = value & mask(self._widths[assign.target])

    def _eval_statement(self, statement: ast.Statement, updates: dict[str, int]) -> None:
        if isinstance(statement, ast.NonBlocking):
            try:
                updates[statement.target] = self._eval(statement.value)
            except SimulationError as error:
                raise SimulationError(
                    f"in assignment to {statement.target!r}: {error}"
                ) from error
        elif isinstance(statement, ast.If):
            if self._eval(statement.condition):
                self._eval_statement(statement.then_body, updates)
            elif statement.else_body is not None:
                self._eval_statement(statement.else_body, updates)
        elif isinstance(statement, ast.Block):
            for child in statement.statements:
                self._eval_statement(child, updates)
        else:
            raise SimulationError(f"unsupported statement {type(statement).__name__}")

    def _expr_width(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.Identifier):
            return self._widths[expr.name]
        if isinstance(expr, ast.Number) and expr.width is not None:
            return expr.width
        if isinstance(expr, ast.BitSelect):
            return 1
        if isinstance(expr, ast.PartSelect):
            return expr.msb - expr.lsb + 1
        return 64

    def _eval(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.Identifier):
            return self.values[expr.name]
        if isinstance(expr, ast.Number):
            return expr.value if expr.width is None else expr.value & mask(expr.width)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Ternary):
            if self._eval(expr.condition):
                return self._eval(expr.if_true)
            return self._eval(expr.if_false)
        if isinstance(expr, ast.BitSelect):
            return (self._eval(expr.base) >> self._eval(expr.index)) & 1
        if isinstance(expr, ast.PartSelect):
            value = self._eval(expr.base)
            return (value >> expr.lsb) & mask(expr.msb - expr.lsb + 1)
        if isinstance(expr, ast.Concat):
            value = 0
            for part in expr.parts:
                width = self._expr_width(part)
                value = (value << width) | (self._eval(part) & mask(width))
            return value
        raise SimulationError(f"unsupported expression {type(expr).__name__}")

    def _eval_unary(self, expr: ast.UnaryOp) -> int:
        operand = self._eval(expr.operand)
        width = self._expr_width(expr.operand)
        if expr.op == "~":
            return ~operand & mask(width)
        if expr.op == "!":
            return 0 if operand else 1
        if expr.op == "-":
            return -operand & mask(64)
        if expr.op == "&":  # reduction AND
            return 1 if operand == mask(width) else 0
        if expr.op == "|":
            return 1 if operand else 0
        if expr.op == "^":
            return operand.bit_count() & 1
        raise SimulationError(f"unsupported unary operator {expr.op!r}")

    def _eval_binary(self, expr: ast.BinaryOp) -> int:
        op = expr.op
        left = self._eval(expr.left)
        # Short-circuit logical forms.
        if op == "&&":
            return 1 if left and self._eval(expr.right) else 0
        if op == "||":
            return 1 if left or self._eval(expr.right) else 0
        right = self._eval(expr.right)
        if op == "+":
            return left + right
        if op == "-":
            return (left - right) & mask(64)
        if op == "*":
            return left * right
        if op == "/":
            return left // right if right else 0
        if op == "%":
            return left % right if right else 0
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << min(right, 64)
        if op == ">>":
            return left >> min(right, 1 << 16)
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        raise SimulationError(f"unsupported binary operator {op!r}")

