"""Compile an elaborated design to straight-line Python.

The design's state is a *slot-indexed* list of ints, one slot per
signal in declaration order (the trace's signal order).  Compilation
emits one function over that list, ``step(v, clock=True)``, which loads
every slot into a local at entry and stores the locals back at exit,
so the generated body runs on fast locals with no dispatch, dict lookup
or per-node call.  One clocked call is one cycle:

1. the combinational cone of the free top-level inputs — the only
   values that may have changed since the last cycle — in
   :func:`schedule` order;
2. every flip-flop body, into next-state temporaries: the last
   non-blocking write wins and each write is masked to its target's
   width;
3. the commit, then the combinational cone of the flip-flop targets.

``step(v, False)`` skips the flip-flops and also runs the drivers that
read neither an input nor a register, which settles every driver:
:meth:`CompiledDesign.settle`.  The end-of-cycle change record is not
generated: :meth:`repro.rtl.trace.SignalTrace.record_changes` diffs two
whole states at C level.

Operators are emitted from the templates in :mod:`repro.rtl.semantics`,
the same table the constant folder evaluates, and
``tests/sim_reference.py`` keeps the original interpreter as the oracle
the test suite checks this code against.  Unsupported constructs
are rejected here, at compile time, with a :class:`SimulationError`
naming the signal they drive.

The generated source is a pure function of the design — no set or hash
order reaches it — so it is byte-identical across processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.rtl import ast
from repro.rtl.ir import (
    ElabAssign,
    ElaboratedDesign,
    SignalKind,
    statement_targets,
)
from repro.rtl.semantics import (
    BINARY,
    HELPERS,
    UNARY,
    Operator,
    concat,
    number_value,
    operand_width,
)


class SimulationError(ValueError):
    """Combinational loop, multiple drivers, or unsupported construct."""


@dataclass(frozen=True)
class CompiledDesign:
    """The generated step function of one design plus its slot layout."""

    names: tuple[str, ...]
    slots: dict[str, int]
    masks: tuple[int, ...]
    #: Slots of the top-level inputs no driver overrides: writing one
    #: before a clocked :attr:`step` needs no full :meth:`settle`.
    free_inputs: frozenset[int]
    step: Callable[..., None]
    source: str

    def settle(self, state: list[int]) -> None:
        """Recompute every combinational driver from ``state``."""
        self.step(state, False)


def compile_design(design: ElaboratedDesign) -> CompiledDesign:
    """Generate, compile and bind the step function of ``design``."""
    source, free_inputs = _generate(design)
    namespace = dict(HELPERS)
    exec(compile(source, f"<rtl {design.top}>", "exec"), namespace)
    names = tuple(design.signals)
    return CompiledDesign(
        names=names,
        slots={name: index for index, name in enumerate(names)},
        masks=tuple((1 << s.width) - 1 for s in design.signals.values()),
        free_inputs=free_inputs,
        step=namespace["step"],
        source=source,
    )


def schedule(design: ElaboratedDesign) -> list[ElabAssign]:
    """Topological order of combinational drivers (Kahn's algorithm)."""
    drivers: dict[str, ElabAssign] = {}
    for assign in design.assigns:
        if assign.target in drivers:
            raise SimulationError(f"multiple drivers for {assign.target!r}")
        drivers[assign.target] = assign

    ff_targets = design.ff_targets()
    for target in drivers:
        if target in ff_targets:
            raise SimulationError(
                f"{target!r} driven both combinationally and by a flip-flop"
            )

    # Dependency edges among combinational targets only.
    dependents: dict[str, list[str]] = {target: [] for target in drivers}
    in_degree = {target: 0 for target in drivers}
    for target, assign in drivers.items():
        # First-occurrence dedupe, not set(): the topological order this
        # feeds must be identical across processes (hash-salt-free).
        for name in dict.fromkeys(ast.expr_identifiers(assign.value)):
            if name in drivers:
                dependents[name].append(target)
                in_degree[target] += 1

    ready = deque(sorted(t for t, deg in in_degree.items() if deg == 0))
    order: list[ElabAssign] = []
    while ready:
        target = ready.popleft()
        order.append(drivers[target])
        for dependent in dependents[target]:
            in_degree[dependent] -= 1
            if in_degree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(drivers):
        cyclic = sorted(t for t, deg in in_degree.items() if deg > 0)
        raise SimulationError(f"combinational loop through {cyclic}")
    return order


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------


def _generate(design: ElaboratedDesign) -> tuple[str, frozenset[int]]:
    order = schedule(design)
    emitter = _Emitter(design)
    slots = emitter.slots
    driven = {assign.target for assign in order}
    free = [name for name, signal in design.signals.items()
            if signal.kind is SignalKind.INPUT and signal.depth == 0
            and name not in driven]
    targets = list(dict.fromkeys(
        target for ff in design.ffs for target in statement_targets(ff.body)))
    inputs_cone = _cone(order, free)
    state_cone = _cone(order, targets)
    coned = {assign.target for assign in inputs_cone + state_cone}
    rest = [assign for assign in order if assign.target not in coned]

    state = "".join(f"s{i}, " for i in range(len(slots)))
    lines = ["def step(v, clock=True):", f"    {state}= v"]
    if rest:
        lines.append("    if not clock:")
        lines += ["    " + emitter.assign(assign) for assign in rest]
    lines += [emitter.assign(assign) for assign in inputs_cone]
    if targets:
        lines.append("    if clock:")
        # A target some body writes on every path needs no hold value.
        always = {child.target for ff in design.ffs
                  for child in _top_level(ff.body)
                  if isinstance(child, ast.NonBlocking)}
        lines += [f"        n{slots[t]} = s{slots[t]}"
                  for t in targets if t not in always]
        for ff in design.ffs:
            lines += emitter.flip_flop(ff.body)
        lines += [f"        s{slots[t]} = n{slots[t]}" for t in targets]
    lines += [emitter.assign(assign) for assign in state_cone]
    lines.append(f"    v[:] = ({state})")
    return "\n".join(lines) + "\n", frozenset(slots[name] for name in free)


def _top_level(body: ast.Statement) -> tuple[ast.Statement, ...]:
    return body.statements if isinstance(body, ast.Block) else (body,)


def _cone(order: list[ElabAssign], roots) -> list[ElabAssign]:
    """The drivers (in ``order``) that read ``roots`` transitively."""
    dirty = set(roots)
    cone = []
    for assign in order:
        if any(name in dirty for name in ast.expr_identifiers(assign.value)):
            dirty.add(assign.target)
            cone.append(assign)
    return cone


class _Code(NamedTuple):
    """Emitted source of one expression.

    ``value`` is the folded constant, when every leaf is a literal;
    ``bits`` bounds the value's bit length when one is known, so an
    assignment whose value always fits its target skips the mask.
    """

    source: str
    value: int | None = None
    bits: int | None = None


def _literal(value: int) -> _Code:
    return _Code(str(value) if value < 1 << 16 else hex(value),
                 value, value.bit_length())


class _Emitter:
    """Expression and statement emitter over one design's slots."""

    def __init__(self, design: ElaboratedDesign):
        self.widths = {name: s.width for name, s in design.signals.items()}
        self.slots = {name: i for i, name in enumerate(design.signals)}

    def assign(self, assign: ElabAssign) -> str:
        try:
            code = self.expr(assign.value)
        except SimulationError as error:
            raise SimulationError(
                f"while compiling the driver of {assign.target!r}: {error}"
            ) from error
        return (f"    s{self.slots[assign.target]} = "
                f"{self.masked(code, assign.target)}")

    def flip_flop(self, body: ast.Statement) -> list[str]:
        lines: list[str] = []
        try:
            self.statement(body, 2, lines)
        except SimulationError as error:
            where = ", ".join(sorted(statement_targets(body))) or "<empty body>"
            raise SimulationError(
                f"in always block driving {where}: {error}"
            ) from error
        return lines

    def masked(self, code: _Code, target: str) -> str:
        width = self.widths[target]
        if code.bits is not None and code.bits <= width:
            return code.source
        if code.value is not None:
            return _literal(code.value & ((1 << width) - 1)).source
        return f"({code.source} & {hex((1 << width) - 1)})"

    def statement(self, statement: ast.Statement, depth: int,
                  lines: list[str]) -> None:
        indent = "    " * depth
        if isinstance(statement, ast.NonBlocking):
            try:
                code = self.expr(statement.value)
            except SimulationError as error:
                raise SimulationError(
                    f"in assignment to {statement.target!r}: {error}"
                ) from error
            lines.append(f"{indent}n{self.slots[statement.target]} = "
                         f"{self.masked(code, statement.target)}")
        elif isinstance(statement, ast.If):
            condition = self.expr(statement.condition, test=True)
            if condition.value is not None:
                taken = (statement.then_body if condition.value
                         else statement.else_body)
                if taken is not None:
                    self.statement(taken, depth, lines)
                return
            lines.append(f"{indent}if {condition.source}:")
            self.body(statement.then_body, depth + 1, lines)
            if statement.else_body is not None:
                lines.append(f"{indent}else:")
                self.body(statement.else_body, depth + 1, lines)
        elif isinstance(statement, ast.Block):
            for child in statement.statements:
                self.statement(child, depth, lines)
        else:
            raise SimulationError(
                f"unsupported statement {type(statement).__name__}")

    def body(self, statement: ast.Statement, depth: int,
             lines: list[str]) -> None:
        before = len(lines)
        self.statement(statement, depth, lines)
        if len(lines) == before:
            lines.append("    " * depth + "pass")

    def expr(self, expr: ast.Expr, test: bool = False) -> _Code:
        """Source of ``expr``; with ``test`` only its truth must hold."""
        if isinstance(expr, ast.Identifier):
            return _Code(f"s{self.slots[expr.name]}", None,
                         self.widths[expr.name])
        if isinstance(expr, ast.Number):
            return _literal(number_value(expr))
        if isinstance(expr, ast.UnaryOp):
            return self.unary(expr, test)
        if isinstance(expr, ast.BinaryOp):
            return self.binary(expr, test)
        if isinstance(expr, ast.Ternary):
            condition = self.expr(expr.condition, test=True)
            if condition.value is not None:
                return self.expr(expr.if_true if condition.value
                                 else expr.if_false, test)
            true = self.expr(expr.if_true, test)
            false = self.expr(expr.if_false, test)
            bits = None if true.bits is None or false.bits is None \
                else max(true.bits, false.bits)
            return _Code(f"({true.source} if {condition.source} "
                         f"else {false.source})", None, bits)
        if isinstance(expr, ast.BitSelect):
            base = self.expr(expr.base)
            index = self.expr(expr.index)
            if index.value == 0:
                return _Code(f"({base.source} & 1)", None, 1)
            return _Code(f"(({base.source} >> {index.source}) & 1)", None, 1)
        if isinstance(expr, ast.PartSelect):
            base = self.expr(expr.base)
            width = expr.msb - expr.lsb + 1
            shifted = (base.source if expr.lsb == 0
                       else f"({base.source} >> {expr.lsb})")
            return _Code(f"({shifted} & {hex((1 << width) - 1)})", None, width)
        if isinstance(expr, ast.Concat):
            return self.concat(expr)
        raise SimulationError(f"unsupported expression {type(expr).__name__}")

    def unary(self, expr: ast.UnaryOp, test: bool) -> _Code:
        rule = UNARY.get(expr.op)
        if rule is None:
            raise SimulationError(f"unsupported unary operator {expr.op!r}")
        operand = self.expr(expr.operand, test=rule.logical)
        width = operand_width(expr.operand, self.widths)
        if operand.value is not None:
            return _literal(rule.evaluate(operand.value, width))
        template = rule.test if test and rule.test else rule.template
        source = template.format(a=operand.source, m=hex((1 << width) - 1))
        return _Code(source, None, _bits(rule, operand.bits, width))

    def binary(self, expr: ast.BinaryOp, test: bool) -> _Code:
        rule = BINARY.get(expr.op)
        if rule is None:
            raise SimulationError(f"unsupported binary operator {expr.op!r}")
        left = self.expr(expr.left, test=rule.logical)
        right = self.expr(expr.right, test=rule.logical)
        if left.value is not None and right.value is not None:
            return _literal(rule.evaluate(left.value, right.value))
        template = rule.test if test and rule.test else rule.template
        source = template.format(a=left.source, b=right.source)
        return _Code(source, None, _bits(rule, left.bits, right.bits))

    def concat(self, expr: ast.Concat) -> _Code:
        parts = []
        for part in expr.parts:
            code = self.expr(part)
            width = operand_width(part, self.widths)
            if code.value is not None:
                code = _literal(code.value & ((1 << width) - 1))
            elif code.bits is None or code.bits > width:
                code = _Code(f"({code.source} & {hex((1 << width) - 1)})")
            parts.append((code, width))
        if all(code.value is not None for code, _ in parts):
            return _literal(concat((code.value, width) for code, width in parts))
        total = shift = sum(width for _, width in parts)
        terms = []
        for code, width in parts:
            shift -= width
            if code.value == 0:
                continue
            terms.append(f"({code.source} << {shift})" if shift
                         else code.source)
        return _Code(f"({' | '.join(terms)})", None, total)


def _bits(rule: Operator, a: int | None, b: int | None) -> int | None:
    """The rule's bound on the result's bit length, when both inputs
    to it are known."""
    if rule.bits is None or a is None or b is None:
        return None
    return rule.bits(a, b)
