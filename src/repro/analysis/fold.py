"""Constant folding over the Verilog expression AST.

:func:`refine` partially evaluates an expression under an environment of
known-constant signals, returning the folded constant (or ``None``) plus
the identifiers that still *contribute* to the value.  Identifiers inside
branches a constant condition rules out — the untaken arm of a ternary,
the short-circuited side of ``&&`` / ``||`` — do not contribute; this is
what prunes IFG edges in the taint classifier's refined graph.

The folder has no operator rules of its own: widths and operators come
from :mod:`repro.rtl.semantics`, the module the design compiler
generates the simulator from, so a folded constant equals what the
simulator computes.
"""

from __future__ import annotations

from repro.rtl import ast
from repro.rtl.semantics import (
    BINARY,
    UNARY,
    bit_select,
    concat,
    number_value,
    operand_width,
    part_select,
)


def refine(
    expr: ast.Expr,
    env: dict[str, int],
    widths: dict[str, int],
) -> tuple[int | None, tuple[str, ...]]:
    """Partially evaluate ``expr`` given constant signals ``env``.

    Returns ``(value, contributors)``: ``value`` is the folded constant
    or ``None``, ``contributors`` the identifiers the residual value
    still depends on (in evaluation order, duplicates possible — dedupe
    at the call site).  A folded constant has no contributors.
    """
    if isinstance(expr, ast.Number):
        return number_value(expr), ()
    if isinstance(expr, ast.Identifier):
        if expr.name in env:
            return env[expr.name], ()
        return None, (expr.name,)
    if isinstance(expr, ast.UnaryOp):
        value, ids = refine(expr.operand, env, widths)
        if value is None:
            return None, ids
        width = operand_width(expr.operand, widths)
        return UNARY[expr.op].evaluate(value, width), ()
    if isinstance(expr, ast.BinaryOp):
        left, left_ids = refine(expr.left, env, widths)
        right, right_ids = refine(expr.right, env, widths)
        if expr.op == "&&":
            if left == 0 or right == 0:
                return 0, ()
            if left is not None and right is not None:
                return 1, ()
            if left is not None:  # non-zero constant: result = !!right
                return None, right_ids
            if right is not None:
                return None, left_ids
            return None, left_ids + right_ids
        if expr.op == "||":
            if (left is not None and left != 0) \
                    or (right is not None and right != 0):
                return 1, ()
            if left == 0 and right == 0:
                return 0, ()
            if left == 0:
                return None, right_ids
            if right == 0:
                return None, left_ids
            return None, left_ids + right_ids
        if left is not None and right is not None:
            return BINARY[expr.op].evaluate(left, right), ()
        return None, left_ids + right_ids
    if isinstance(expr, ast.Ternary):
        condition, condition_ids = refine(expr.condition, env, widths)
        if condition is not None:
            arm = expr.if_true if condition else expr.if_false
            return refine(arm, env, widths)
        _, true_ids = refine(expr.if_true, env, widths)
        _, false_ids = refine(expr.if_false, env, widths)
        return None, condition_ids + true_ids + false_ids
    if isinstance(expr, ast.BitSelect):
        base, base_ids = refine(expr.base, env, widths)
        index, index_ids = refine(expr.index, env, widths)
        if base is not None and index is not None:
            return bit_select(base, index), ()
        return None, base_ids + index_ids
    if isinstance(expr, ast.PartSelect):
        base, base_ids = refine(expr.base, env, widths)
        if base is not None:
            return part_select(base, expr.msb, expr.lsb), ()
        return None, base_ids
    if isinstance(expr, ast.Concat):
        values = []
        ids: tuple[str, ...] = ()
        for part in expr.parts:
            value, part_ids = refine(part, env, widths)
            values.append((value, operand_width(part, widths)))
            ids += part_ids
        if any(value is None for value, _ in values):
            return None, ids
        return concat(values), ()
    # Unknown node: contribute its syntactic identifiers conservatively.
    return None, tuple(ast.expr_identifiers(expr))
