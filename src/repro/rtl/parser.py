"""Recursive-descent parser for the Verilog subset.

Produces the AST of :mod:`repro.rtl.ast`.  The grammar covers ANSI-style
and classic port declarations, net declarations with ranges, continuous
assigns, ``always @(posedge clk)`` processes with non-blocking
assignments, and module instances with named port connections — enough to
parse the paper's Listing 1 verbatim and small pipelined designs written
in the same style.
"""

from __future__ import annotations

from repro.rtl import ast
from repro.rtl.lexer import Lexer, Token, TokenKind


class ParseError(ValueError):
    """Syntax error with line context."""


def parse(text: str) -> ast.Source:
    """Parse Verilog source text into an AST."""
    return _Parser(Lexer(text).tokenize()).parse_source()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, text: str) -> bool:
        token = self._tokens[self._pos]
        return token.text == text and token.kind in (
            TokenKind.PUNCT, TokenKind.KEYWORD,
        )

    def _accept(self, text: str) -> bool:
        if self._check(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> Token:
        if not self._check(text):
            token = self._peek()
            raise ParseError(
                f"line {token.line}: expected {text!r}, got {token.text!r}"
            )
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"line {token.line}: expected identifier, got {token.text!r}"
            )
        return self._advance().text

    def _expect_number(self) -> int:
        token = self._peek()
        if token.kind is not TokenKind.NUMBER:
            raise ParseError(f"line {token.line}: expected number, got {token.text!r}")
        self._advance()
        return token.value

    # -- grammar --------------------------------------------------------

    def parse_source(self) -> ast.Source:
        source = ast.Source()
        while self._peek().kind is not TokenKind.EOF:
            source.modules.append(self._parse_module())
        return source

    def _parse_module(self) -> ast.Module:
        self._expect("module")
        module = ast.Module(name=self._expect_ident())
        if self._accept("("):
            self._parse_port_list(module)
            self._expect(")")
        self._expect(";")
        while not self._accept("endmodule"):
            self._parse_item(module)
        return module

    def _parse_port_list(self, module: ast.Module) -> None:
        if self._check(")"):
            return
        while True:
            if self._check("input") or self._check("output"):
                module.ports.append(self._parse_ansi_port())
            else:
                # Classic style: just names; directions declared in items.
                module.ports.append(ast.PortDecl("input", self._expect_ident()))
                module.ports[-1] = ast.PortDecl(
                    "__undeclared__", module.ports[-1].name
                )
            if not self._accept(","):
                return

    def _parse_ansi_port(self) -> ast.PortDecl:
        direction = self._advance().text
        is_reg = self._accept("reg")
        width = self._parse_optional_range()
        name = self._expect_ident()
        return ast.PortDecl(direction, name, width, is_reg)

    def _parse_optional_range(self) -> int:
        if not self._accept("["):
            return 1
        msb = self._expect_number()
        self._expect(":")
        lsb = self._expect_number()
        self._expect("]")
        if msb < lsb:
            raise ParseError(f"descending range [{msb}:{lsb}] not supported")
        return msb - lsb + 1

    def _parse_item(self, module: ast.Module) -> None:
        token = self._peek()
        if token.kind is TokenKind.EOF:
            raise ParseError("unexpected end of file inside module")
        if token.text in ("input", "output"):
            self._parse_port_item(module)
        elif token.text in ("wire", "reg"):
            self._parse_net_item(module)
        elif token.text == "assign":
            self._parse_assign(module)
        elif token.text == "always":
            self._parse_always(module)
        elif token.kind is TokenKind.IDENT:
            self._parse_instance(module)
        else:
            raise ParseError(
                f"line {token.line}: unexpected token {token.text!r} in module body"
            )

    def _parse_port_item(self, module: ast.Module) -> None:
        direction = self._advance().text
        is_reg = self._accept("reg")
        width = self._parse_optional_range()
        names = [self._expect_ident()]
        while self._accept(","):
            names.append(self._expect_ident())
        self._expect(";")
        for name in names:
            self._apply_port_direction(module, direction, name, width, is_reg)

    def _apply_port_direction(self, module, direction, name, width, is_reg) -> None:
        for index, port in enumerate(module.ports):
            if port.name == name:
                module.ports[index] = ast.PortDecl(direction, name, width, is_reg)
                return
        # Port declared only in the body (tolerated): append it.
        module.ports.append(ast.PortDecl(direction, name, width, is_reg))

    def _parse_net_item(self, module: ast.Module) -> None:
        kind = self._advance().text
        width = self._parse_optional_range()
        names = [self._expect_ident()]
        while self._accept(","):
            names.append(self._expect_ident())
        self._expect(";")
        for name in names:
            # ``reg q;`` re-declaring an output port marks the port reg.
            matched = False
            for index, port in enumerate(module.ports):
                if port.name == name and kind == "reg":
                    module.ports[index] = ast.PortDecl(
                        port.direction, name, max(port.width, width), True
                    )
                    matched = True
                    break
            if not matched:
                module.nets.append(ast.NetDecl(kind, name, width))

    def _parse_assign(self, module: ast.Module) -> None:
        self._expect("assign")
        target = self._expect_ident()
        self._expect("=")
        value = self._parse_expression()
        self._expect(";")
        module.assigns.append(ast.ContAssign(target, value))

    def _parse_always(self, module: ast.Module) -> None:
        self._expect("always")
        self._expect("@")
        self._expect("(")
        self._expect("posedge")
        clock = self._expect_ident()
        self._expect(")")
        body = self._parse_statement()
        module.always_blocks.append(ast.AlwaysFF(clock, body))

    def _parse_statement(self) -> ast.Statement:
        if self._accept("begin"):
            statements = []
            while not self._accept("end"):
                statements.append(self._parse_statement())
            return ast.Block(tuple(statements))
        if self._accept("if"):
            self._expect("(")
            condition = self._parse_expression()
            self._expect(")")
            then_body = self._parse_statement()
            else_body = self._parse_statement() if self._accept("else") else None
            return ast.If(condition, then_body, else_body)
        target = self._expect_ident()
        self._expect("<=")
        value = self._parse_expression()
        self._expect(";")
        return ast.NonBlocking(target, value)

    def _parse_instance(self, module: ast.Module) -> None:
        module_name = self._expect_ident()
        instance_name = self._expect_ident()
        self._expect("(")
        connections = []
        if not self._check(")"):
            while True:
                self._expect(".")
                port = self._expect_ident()
                self._expect("(")
                expr = self._parse_expression()
                self._expect(")")
                connections.append((port, expr))
                if not self._accept(","):
                    break
        self._expect(")")
        self._expect(";")
        module.instances.append(
            ast.Instance(module_name, instance_name, tuple(connections))
        )

    # -- expressions (precedence climbing) -------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        condition = self._parse_binary(0)
        if self._accept("?"):
            if_true = self._parse_expression()
            self._expect(":")
            if_false = self._parse_expression()
            return ast.Ternary(condition, if_true, if_false)
        return condition

    _PRECEDENCE: tuple[tuple[str, ...], ...] = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    _LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Left-associative operators binding at ``min_level`` or tighter."""
        left = self._parse_unary()
        while True:
            token = self._peek()
            level = (self._LEVEL.get(token.text)
                     if token.kind is TokenKind.PUNCT else None)
            if level is None or level < min_level:
                return left
            self._advance()
            left = ast.BinaryOp(token.text, left, self._parse_binary(level + 1))

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in ("~", "!", "-", "&", "|", "^"):
            op = self._advance().text
            return ast.UnaryOp(op, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ast.Number(token.value, token.width)
        if self._accept("("):
            expr = self._parse_expression()
            self._expect(")")
            return expr
        if self._accept("{"):
            parts = [self._parse_expression()]
            while self._accept(","):
                parts.append(self._parse_expression())
            self._expect("}")
            return ast.Concat(tuple(parts))
        if token.kind is TokenKind.IDENT:
            name = self._advance().text
            base = ast.Identifier(name)
            if self._accept("["):
                first = self._parse_expression()
                if self._accept(":"):
                    if not isinstance(first, ast.Number):
                        raise ParseError(
                            f"line {token.line}: part-select bounds must be constant"
                        )
                    lsb = self._expect_number()
                    self._expect("]")
                    return ast.PartSelect(base, first.value, lsb)
                self._expect("]")
                return ast.BitSelect(base, first)
            return base
        raise ParseError(f"line {token.line}: unexpected token {token.text!r}")
