"""The Verilog operator rules: the one owner of expression semantics.

Everything that computes or reasons about the value of a Verilog
expression takes its rules from here:

* :func:`operand_width` — the width an operand is masked to before
  ``~``, a reduction or a concatenation reads it;
* :func:`number_value`, :func:`bit_select`, :func:`part_select` and
  :func:`concat` — literals, selects and concatenation;
* :func:`expr_width` — the lint's result-width inference;
* :data:`UNARY` / :data:`BINARY` — one :class:`Operator` per operator,
  giving both the Python evaluation (used by the constant folder in
  :mod:`repro.analysis.fold`) and the Python source template (used by
  the design compiler in :mod:`repro.rtl.compile`).

Two-state semantics: every signal value is an unsigned Python integer;
``x``/``z`` literals were already folded to 0 by the lexer; division
and modulo by zero yield 0; comparisons are unsigned.  Intermediate
results are unbounded except where an operator says otherwise (binary
``-`` and unary ``-`` wrap to 64 bits); only the assignment target
truncates.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from repro.rtl import ast

MASK64 = (1 << 64) - 1
#: Width an operand with no declared width (a composite expression or an
#: unsized literal) is masked to.
DEFAULT_WIDTH = 64
#: Largest effective shift counts: ``<<`` saturates so a huge count
#: cannot build a huge integer, ``>>`` only bounds the work.
SHL_CAP = 64
SHR_CAP = 1 << 16


def operand_width(expr: ast.Expr, widths: dict[str, int]) -> int:
    """Width ``expr`` is masked to when read as an operand of ``~``, a
    reduction or a concatenation.

    Identifiers have their declared width, sized literals their size,
    selects their slice width; anything else reads as 64 bits.
    """
    if isinstance(expr, ast.Identifier):
        return widths[expr.name]
    if isinstance(expr, ast.Number) and expr.width is not None:
        return expr.width
    if isinstance(expr, ast.BitSelect):
        return 1
    if isinstance(expr, ast.PartSelect):
        return expr.msb - expr.lsb + 1
    return DEFAULT_WIDTH


def number_value(expr: ast.Number) -> int:
    """A literal's value: sized literals truncate to their size."""
    if expr.width is None:
        return expr.value
    return expr.value & ((1 << expr.width) - 1)


def bit_select(value: int, index: int) -> int:
    """``value[index]``."""
    return (value >> index) & 1


def part_select(value: int, msb: int, lsb: int) -> int:
    """``value[msb:lsb]``."""
    return (value >> lsb) & ((1 << (msb - lsb + 1)) - 1)


def concat(parts: Iterable[tuple[int, int]]) -> int:
    """``{...}`` of ``(value, operand_width)`` pairs, most significant
    first; each part is masked to its operand width."""
    total = 0
    for value, width in parts:
        total = (total << width) | (value & ((1 << width) - 1))
    return total


def expr_width(expr: ast.Expr, widths: dict[str, int]) -> int | None:
    """Inferred result width of an expression (the lint width checks);
    ``None`` when unknowable."""
    if isinstance(expr, ast.Identifier):
        return widths.get(expr.name)
    if isinstance(expr, ast.Number):
        return expr.width
    if isinstance(expr, ast.BitSelect):
        return 1
    if isinstance(expr, ast.PartSelect):
        return expr.msb - expr.lsb + 1
    if isinstance(expr, ast.Concat):
        total = 0
        for part in expr.parts:
            width = expr_width(part, widths)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, ast.Ternary):
        true_width = expr_width(expr.if_true, widths)
        false_width = expr_width(expr.if_false, widths)
        if true_width is None or false_width is None:
            return None
        return max(true_width, false_width)
    if isinstance(expr, ast.UnaryOp):
        if expr.op in ("!", "&", "|", "^"):
            return 1
        return expr_width(expr.operand, widths)  # ~ and unary -
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if expr.op in ("<<", ">>"):
            return expr_width(expr.left, widths)
        left = expr_width(expr.left, widths)
        right = expr_width(expr.right, widths)
        if left is None or right is None:
            return None
        return max(left, right)
    return None


class Operator(NamedTuple):
    """One operator, as Python semantics and as Python source.

    ``evaluate`` takes ``(value, operand_width)`` for a unary operator
    and ``(left, right)`` for a binary one.  ``template`` is a
    :meth:`str.format` pattern over ``{a}`` (``{b}``) — the operands'
    source — and, for unary operators, ``{m}``, the operand's width mask.
    ``test``, for operators whose result is 0 or 1, is the cheaper
    truthiness-only form a compiler may use where only the truth of the
    result matters.  ``logical`` operators read their operands for
    truthiness only, so operands may be emitted in their ``test`` form.
    ``bits`` bounds the result's bit length given the operands' bounds
    (``(bits, operand_width)`` for unary operators); ``None`` when the
    result is unbounded.
    """

    evaluate: Callable[..., int]
    template: str
    test: str | None = None
    logical: bool = False
    bits: Callable[[int, int], int] | None = None


def _predicate(evaluate: Callable[..., int], test: str,
               logical: bool = False) -> Operator:
    return Operator(evaluate, f"(1 if {test} else 0)", test, logical,
                    lambda a, b: 1)


def divide(left: int, right: int) -> int:
    return left // right if right else 0


def modulo(left: int, right: int) -> int:
    return left % right if right else 0


def _left(a: int, b: int) -> int:
    return a


UNARY: dict[str, Operator] = {
    "~": Operator(lambda a, w: ~a & ((1 << w) - 1), "(~{a} & {m})",
                  bits=lambda a, w: w),
    "!": _predicate(lambda a, w: 0 if a else 1, "(not {a})", logical=True),
    "-": Operator(lambda a, w: -a & MASK64, f"(-{{a}} & {MASK64:#x})"),
    "&": _predicate(lambda a, w: 1 if a == (1 << w) - 1 else 0,
                    "({a} == {m})"),
    "|": _predicate(lambda a, w: 1 if a else 0, "({a})", logical=True),
    "^": Operator(lambda a, w: a.bit_count() & 1,
                  "(({a}).bit_count() & 1)", bits=lambda a, w: 1),
}

BINARY: dict[str, Operator] = {
    "+": Operator(lambda a, b: a + b, "({a} + {b})",
                  bits=lambda a, b: max(a, b) + 1),
    "-": Operator(lambda a, b: (a - b) & MASK64,
                  f"(({{a}} - {{b}}) & {MASK64:#x})"),
    "*": Operator(lambda a, b: a * b, "({a} * {b})", bits=lambda a, b: a + b),
    "/": Operator(divide, "divide({a}, {b})", bits=_left),
    "%": Operator(modulo, "modulo({a}, {b})", bits=_left),
    "&": Operator(lambda a, b: a & b, "({a} & {b})", bits=min),
    "|": Operator(lambda a, b: a | b, "({a} | {b})", bits=max),
    "^": Operator(lambda a, b: a ^ b, "({a} ^ {b})", bits=max),
    "<<": Operator(lambda a, b: a << min(b, SHL_CAP),
                   f"({{a}} << min({{b}}, {SHL_CAP}))",
                   bits=lambda a, b: a + SHL_CAP),
    ">>": Operator(lambda a, b: a >> min(b, SHR_CAP),
                   f"({{a}} >> min({{b}}, {SHR_CAP}))", bits=_left),
    "==": _predicate(lambda a, b: 1 if a == b else 0, "({a} == {b})"),
    "!=": _predicate(lambda a, b: 1 if a != b else 0, "({a} != {b})"),
    "<": _predicate(lambda a, b: 1 if a < b else 0, "({a} < {b})"),
    "<=": _predicate(lambda a, b: 1 if a <= b else 0, "({a} <= {b})"),
    ">": _predicate(lambda a, b: 1 if a > b else 0, "({a} > {b})"),
    ">=": _predicate(lambda a, b: 1 if a >= b else 0, "({a} >= {b})"),
    "&&": _predicate(lambda a, b: 1 if a and b else 0, "({a} and {b})",
                     logical=True),
    "||": _predicate(lambda a, b: 1 if a or b else 0, "({a} or {b})",
                     logical=True),
}

#: Names the ``BINARY`` templates call; a compiler binds them in the
#: namespace of the code it generates.
HELPERS = {"divide": divide, "modulo": modulo}

