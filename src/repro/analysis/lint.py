"""RTL lint: structural checks over elaborated designs and netlists.

The pass framework runs a catalogue of checks (:data:`CHECKS`, each
with a stable id severity and description) against a shared
:class:`LintContext` built once per design: the signal table, the
per-signal driver index (continuous assignments and sequential
processes), and the read set.

The read set encodes the one subtle rule: an occurrence of a signal in
the right-hand side of *its own* driver does not count as a read, so a
register that only feeds itself (``count <= count + 1`` and nothing
else) is still dead.  Reads in process conditions and clocks always
count.

Programmatic netlists (:class:`repro.rtl.netlist.Netlist`) carry no
expressions, so only the fan-out–based ``dead-signal`` check applies
there; waivers come from :meth:`Netlist.waive` declarations instead of
comment pragmas.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.analysis.diagnostics import (
    Diagnostic,
    Waiver,
    apply_waivers,
    parse_waivers,
)
from repro.analysis.fold import refine
from repro.ifg.labeling import default_arch_matcher
from repro.isa.spec import architectural_register_names
from repro.rtl import ast
from repro.rtl.ir import (
    ASSIGN_COMB,
    ElabAssign,
    ElaboratedDesign,
    SignalKind,
)
from repro.rtl.netlist import Netlist
from repro.rtl.semantics import expr_width

#: Leaf names recognised as reset inputs by ``no-reset-state``.
RESET_NAMES = ("rst", "reset", "rst_n", "resetn")


@dataclass(frozen=True)
class Check:
    """One catalogue entry: stable id, severity, what it flags."""

    check_id: str
    severity: str
    description: str
    netlist: bool = False  # also applies to programmatic netlists


#: The check catalogue.  Ids are stable: CI jobs, waivers, and
#: regression tests all pin against them.
CHECKS = (
    Check(
        "undriven-signal", "error",
        "a non-input signal is read but has no continuous or "
        "sequential driver",
    ),
    Check(
        "multi-driven", "error",
        "a signal has more than one driver (two continuous "
        "assignments, a continuous assignment plus a process, or "
        "two processes)",
    ),
    Check(
        "width-mismatch", "warn",
        "the inferred width of an assigned expression differs from "
        "the target signal's declared width",
    ),
    Check(
        "inferred-latch", "error",
        "a continuous assignment reads its own target, inferring "
        "storage in combinational logic",
    ),
    Check(
        "comb-loop", "error",
        "a cycle through two or more continuous assignments",
    ),
    Check(
        "unreachable-branch", "warn",
        "a branch condition folds to a constant, or an equality "
        "compares a signal against a literal outside its range",
    ),
    Check(
        "no-reset-state", "warn",
        "the design has a reset input but a state register's updates "
        "are never guarded by it",
    ),
    Check(
        "dead-signal", "warn",
        "a signal is never read (self-reads in its own driver do not "
        "count); top-level outputs and architectural registers are "
        "exempt",
        netlist=True,
    ),
)

_CHECKS_BY_ID = {check.check_id: check for check in CHECKS}


def _severity(check_id: str) -> str:
    return _CHECKS_BY_ID[check_id].severity


@dataclass
class LintContext:
    """Shared indexes the check passes run against."""

    design: ElaboratedDesign
    widths: dict[str, int]
    #: target -> continuous drivers (all assignment kinds)
    comb_drivers: dict[str, list[ElabAssign]]
    #: target -> indices of the processes that write it
    ff_writers: dict[str, list[int]]
    #: target -> (process index, enclosing conditions, statement)
    ff_assignments: dict[str, list[tuple[int, tuple[ast.Expr, ...],
                                         ast.NonBlocking]]]
    reads: set[str]
    reset_signals: tuple[str, ...]
    arch_matcher: Callable[[str], bool]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def emit(self, check_id: str, signal: str, construct: str,
             message: str) -> None:
        self.diagnostics.append(Diagnostic(
            check=check_id,
            severity=_severity(check_id),
            signal=signal,
            construct=construct,
            message=message,
        ))


def _leaf(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _assign_construct(assign: ElabAssign) -> str:
    if assign.kind == ASSIGN_COMB:
        return f"assign {_leaf(assign.target)} = ..."
    return f"port connection .{_leaf(assign.target)}(...)"


def _ff_construct(clock: str) -> str:
    return f"always @(posedge {_leaf(clock)})"


def _walk_ff(
    statement: ast.Statement,
    conditions: tuple[ast.Expr, ...],
    out: list[tuple[tuple[ast.Expr, ...], ast.Statement]],
) -> None:
    """Flatten a process body into (enclosing conditions, leaf stmt)."""
    if isinstance(statement, ast.Block):
        for child in statement.statements:
            _walk_ff(child, conditions, out)
    elif isinstance(statement, ast.If):
        out.append((conditions, statement))
        _walk_ff(statement.then_body, conditions + (statement.condition,),
                 out)
        if statement.else_body is not None:
            negated = ast.UnaryOp("!", statement.condition)
            _walk_ff(statement.else_body, conditions + (negated,), out)
    elif isinstance(statement, ast.NonBlocking):
        out.append((conditions, statement))


def _first_target(statement: ast.Statement) -> str | None:
    if isinstance(statement, ast.NonBlocking):
        return statement.target
    if isinstance(statement, ast.Block):
        for child in statement.statements:
            target = _first_target(child)
            if target is not None:
                return target
    if isinstance(statement, ast.If):
        target = _first_target(statement.then_body)
        if target is None and statement.else_body is not None:
            target = _first_target(statement.else_body)
        return target
    return None


def build_context(
    design: ElaboratedDesign,
    arch_matcher: Callable[[str], bool] | None = None,
    arch_names: list[str] | None = None,
) -> LintContext:
    widths = {name: signal.width for name, signal in design.signals.items()}

    comb_drivers: dict[str, list[ElabAssign]] = {}
    for assign in design.assigns:
        comb_drivers.setdefault(assign.target, []).append(assign)

    ff_writers: dict[str, list[int]] = {}
    ff_assignments: dict[
        str, list[tuple[int, tuple[ast.Expr, ...], ast.NonBlocking]]
    ] = {}
    reads: set[str] = set()
    for process_index, ff in enumerate(design.ffs):
        reads.add(ff.clock)
        flattened: list[tuple[tuple[ast.Expr, ...], ast.Statement]] = []
        _walk_ff(ff.body, (), flattened)
        for conditions, statement in flattened:
            if isinstance(statement, ast.If):
                reads.update(ast.expr_identifiers(statement.condition))
                continue
            assert isinstance(statement, ast.NonBlocking)
            target = statement.target
            if process_index not in ff_writers.setdefault(target, []):
                ff_writers[target].append(process_index)
            ff_assignments.setdefault(target, []).append(
                (process_index, conditions, statement)
            )
            reads.update(
                name for name in ast.expr_identifiers(statement.value)
                if name != target
            )
    for assign in design.assigns:
        reads.update(
            name for name in ast.expr_identifiers(assign.value)
            if name != assign.target
        )

    reset_signals = tuple(
        name for name, signal in design.signals.items()
        if signal.kind is SignalKind.INPUT and signal.depth == 0
        and _leaf(name) in RESET_NAMES
    )

    if arch_matcher is None:
        if arch_names is None:
            arch_names = architectural_register_names()
        arch_matcher = default_arch_matcher(arch_names)

    return LintContext(
        design=design,
        widths=widths,
        comb_drivers=comb_drivers,
        ff_writers=ff_writers,
        ff_assignments=ff_assignments,
        reads=reads,
        reset_signals=reset_signals,
        arch_matcher=arch_matcher,
    )


# --- check passes ---------------------------------------------------------


def _check_undriven(ctx: LintContext) -> None:
    for name, signal in ctx.design.signals.items():
        if signal.kind is SignalKind.INPUT and signal.depth == 0:
            continue  # driven by the testbench
        if name in ctx.comb_drivers or name in ctx.ff_writers:
            continue
        if name not in ctx.reads:
            continue  # neither driven nor read: dead-signal's business
        ctx.emit(
            "undriven-signal", name, "declaration",
            "read but never assigned",
        )


def _check_multi_driven(ctx: LintContext) -> None:
    for name in ctx.design.signals:
        comb = ctx.comb_drivers.get(name, [])
        processes = ctx.ff_writers.get(name, [])
        total = len(comb) + len(processes)
        if total <= 1:
            continue
        if comb:
            construct = _assign_construct(comb[0])
        else:
            construct = _ff_construct(
                ctx.design.ffs[processes[0]].clock
            )
        ctx.emit(
            "multi-driven", name, construct,
            f"{total} drivers ({len(comb)} continuous, "
            f"{len(processes)} sequential)",
        )


def _check_width_mismatch(ctx: LintContext) -> None:
    for assign in ctx.design.assigns:
        target_width = ctx.widths.get(assign.target)
        inferred = expr_width(assign.value, ctx.widths)
        if target_width is None or inferred is None:
            continue
        if inferred != target_width:
            ctx.emit(
                "width-mismatch", assign.target,
                _assign_construct(assign),
                f"{inferred}-bit expression assigned to "
                f"{target_width}-bit signal",
            )
    for process_index, ff in enumerate(ctx.design.ffs):
        del process_index
        flattened: list[tuple[tuple[ast.Expr, ...], ast.Statement]] = []
        _walk_ff(ff.body, (), flattened)
        for _, statement in flattened:
            if not isinstance(statement, ast.NonBlocking):
                continue
            target_width = ctx.widths.get(statement.target)
            inferred = expr_width(statement.value, ctx.widths)
            if target_width is None or inferred is None:
                continue
            if inferred != target_width:
                ctx.emit(
                    "width-mismatch", statement.target,
                    _ff_construct(ff.clock),
                    f"{inferred}-bit expression assigned to "
                    f"{target_width}-bit signal",
                )


def _check_inferred_latch(ctx: LintContext) -> None:
    for assign in ctx.design.assigns:
        if assign.target in ast.expr_identifiers(assign.value):
            ctx.emit(
                "inferred-latch", assign.target,
                _assign_construct(assign),
                "continuous assignment reads its own target "
                "(latch inferred)",
            )


def _check_comb_loop(ctx: LintContext) -> None:
    nodes = [name for name in ctx.design.signals
             if name in ctx.comb_drivers]
    successors: dict[str, list[str]] = {}
    for name in nodes:
        deps: list[str] = []
        for assign in ctx.comb_drivers[name]:
            for source in ast.expr_identifiers(assign.value):
                if source != name and source in ctx.comb_drivers \
                        and source not in deps:
                    deps.append(source)
        successors[name] = deps
    for scc in _sccs(nodes, successors):
        if len(scc) < 2:
            continue
        ordered = [name for name in nodes if name in scc]
        anchor = ordered[0]
        cycle = " -> ".join(_leaf(name) for name in ordered)
        ctx.emit(
            "comb-loop", anchor,
            _assign_construct(ctx.comb_drivers[anchor][0]),
            f"combinational cycle: {cycle}",
        )


def _sccs(
    nodes: list[str], successors: dict[str, list[str]]
) -> list[set[str]]:
    """Iterative Tarjan strongly-connected components."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, edges = work[-1]
            pushed = False
            for successor in edges:
                if successor not in index:
                    index[successor] = low[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors[successor])))
                    pushed = True
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def _check_unreachable(ctx: LintContext) -> None:
    def walk_expr(expr: ast.Expr, signal: str, construct: str) -> None:
        if isinstance(expr, ast.Ternary):
            value, _ = refine(expr.condition, {}, ctx.widths)
            if value is not None:
                dead = "true" if value == 0 else "false"
                ctx.emit(
                    "unreachable-branch", signal, construct,
                    f"ternary condition is constant {value}; "
                    f"{dead} arm is unreachable",
                )
            walk_expr(expr.condition, signal, construct)
            walk_expr(expr.if_true, signal, construct)
            walk_expr(expr.if_false, signal, construct)
            return
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("==", "!="):
                _check_range(expr, signal, construct)
            walk_expr(expr.left, signal, construct)
            walk_expr(expr.right, signal, construct)
        elif isinstance(expr, ast.UnaryOp):
            walk_expr(expr.operand, signal, construct)
        elif isinstance(expr, ast.BitSelect):
            walk_expr(expr.index, signal, construct)
        elif isinstance(expr, ast.Concat):
            for part in expr.parts:
                walk_expr(part, signal, construct)

    def _check_range(expr: ast.BinaryOp, signal: str,
                     construct: str) -> None:
        pairs = ((expr.left, expr.right), (expr.right, expr.left))
        for operand, other in pairs:
            if not isinstance(other, ast.Number):
                continue
            if isinstance(other, ast.Number) and isinstance(
                    operand, ast.Number):
                return  # constant == constant: folding's business
            width = expr_width(operand, ctx.widths)
            if width is None or other.value < (1 << width):
                continue
            outcome = "false" if expr.op == "==" else "true"
            ctx.emit(
                "unreachable-branch", signal, construct,
                f"{width}-bit signal compared against literal "
                f"{other.value} (always {outcome})",
            )
            return

    for assign in ctx.design.assigns:
        walk_expr(assign.value, assign.target, _assign_construct(assign))
    for ff in ctx.design.ffs:
        construct = _ff_construct(ff.clock)
        flattened: list[tuple[tuple[ast.Expr, ...], ast.Statement]] = []
        _walk_ff(ff.body, (), flattened)
        for _, statement in flattened:
            if isinstance(statement, ast.If):
                value, _ = refine(statement.condition, {}, ctx.widths)
                anchor = _first_target(statement) or ff.clock
                if value is not None:
                    branch = "else" if value else "then"
                    ctx.emit(
                        "unreachable-branch", anchor, construct,
                        f"if condition is constant {value}; "
                        f"{branch} branch is unreachable",
                    )
                walk_expr(statement.condition, anchor, construct)
            else:
                assert isinstance(statement, ast.NonBlocking)
                walk_expr(statement.value, statement.target, construct)


def _check_no_reset(ctx: LintContext) -> None:
    if not ctx.reset_signals:
        return
    resets = set(ctx.reset_signals)
    for name, signal in ctx.design.signals.items():
        if not signal.is_state:
            continue
        assignments = ctx.ff_assignments.get(name, [])
        if not assignments:
            continue
        guarded = False
        for _, conditions, statement in assignments:
            mentioned: set[str] = set()
            for condition in conditions:
                mentioned.update(ast.expr_identifiers(condition))
            mentioned.update(ast.expr_identifiers(statement.value))
            if mentioned & resets:
                guarded = True
                break
        if not guarded:
            ctx.emit(
                "no-reset-state", name,
                _ff_construct(
                    ctx.design.ffs[assignments[0][0]].clock
                ),
                "state register updates are never guarded by a "
                "reset signal",
            )


def _check_dead(ctx: LintContext) -> None:
    for name, signal in ctx.design.signals.items():
        if signal.kind is SignalKind.INPUT:
            continue
        if signal.kind is SignalKind.OUTPUT and signal.depth == 0:
            continue  # top-level outputs are observed externally
        if ctx.arch_matcher(name):
            continue  # architectural state is observed by definition
        if name in ctx.reads:
            continue
        if name in ctx.comb_drivers:
            construct = _assign_construct(ctx.comb_drivers[name][0])
        elif name in ctx.ff_writers:
            construct = _ff_construct(
                ctx.design.ffs[ctx.ff_writers[name][0]].clock
            )
        else:
            construct = "declaration"
        ctx.emit("dead-signal", name, construct, "never read")


_PASSES = (
    _check_undriven,
    _check_multi_driven,
    _check_width_mismatch,
    _check_inferred_latch,
    _check_comb_loop,
    _check_unreachable,
    _check_no_reset,
    _check_dead,
)


def lint_design(
    design: ElaboratedDesign,
    *,
    source_text: str | None = None,
    arch_names: list[str] | None = None,
    arch_matcher: Callable[[str], bool] | None = None,
    waivers: list[Waiver] | None = None,
) -> list[Diagnostic]:
    """Run the full check catalogue over an elaborated design.

    Waivers come from ``// repro-lint: waive`` pragmas in
    ``source_text`` plus any passed explicitly; waived findings are
    returned marked, not dropped.
    """
    ctx = build_context(design, arch_matcher=arch_matcher,
                        arch_names=arch_names)
    for check_pass in _PASSES:
        check_pass(ctx)
    all_waivers = list(waivers or [])
    if source_text is not None:
        all_waivers.extend(parse_waivers(source_text))
    return apply_waivers(ctx.diagnostics, all_waivers)


def lint_netlist(
    netlist: Netlist,
    *,
    waivers: list[Waiver] | None = None,
) -> list[Diagnostic]:
    """Run the netlist-applicable checks (``dead-signal`` fan-out).

    A netlist signal with no outgoing edge influences nothing; ``arch``
    and ``csr`` units are exempt (observed by the harness directly).
    Waivers come from the netlist's own :meth:`Netlist.waive`
    declarations plus any passed explicitly.
    """
    has_fanout = {source for source, _ in netlist.edges}
    diagnostics = []
    for name, signal in netlist.signals.items():
        if name in has_fanout:
            continue
        if signal.unit in ("arch", "csr"):
            continue
        diagnostics.append(Diagnostic(
            check="dead-signal",
            severity=_severity("dead-signal"),
            signal=name,
            construct="netlist declaration",
            message="no outgoing information-flow edge",
        ))
    all_waivers = list(getattr(netlist, "waivers", ())) + list(waivers or [])
    return apply_waivers(diagnostics, all_waivers)
