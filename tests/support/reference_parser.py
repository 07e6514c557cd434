"""The per-level recursive-descent parser `repro.frontend.parser`
replaced, kept as the oracle for ``tests/test_parser_equivalence.py``.

``ReferenceParser`` is today's ``Parser`` with every method the
precedence-climbing rewrite touched put back, verbatim from the last
commit that shipped them: ``_parse_binary`` descends once per level of
``Parser._BINARY_LEVELS`` for every operand, ``_peek`` clamps with
``min()`` on every call, the statement, unary, postfix and cast parsers
test one alternative at a time with ``is_punct``/``is_keyword``, the
``_starts_*`` tests rebuild their keyword set per call,
``_is_typedef_name`` asks ``any()`` of a generator, and
``_resolve_specifiers`` builds its whole table per declaration.  Every
other method is inherited, so the two parsers can only differ where
the rewrite did.
"""

from __future__ import annotations

from typing import List

from repro.frontend import c_ast as A
from repro.frontend import lexer as L
from repro.frontend.ctypes_ import (CType, DOUBLE, FLOAT, INT, FloatType,
                                    IntType, VOID)
from repro.frontend.parser import (_ASSIGN_OPS, _QUALIFIER_KEYWORDS,
                                   _STORAGE_KEYWORDS,
                                   _TYPE_SPECIFIER_KEYWORDS, ParseError,
                                   Parser, _fold_int)


class ReferenceParser(Parser):
    def _peek(self, offset: int = 0) -> L.Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _next(self) -> L.Token:
        tok = self._peek()
        if tok.kind != L.EOF:
            self.pos += 1
        return tok

    def _is_typedef_name(self, name: str) -> bool:
        return any(name in scope for scope in self.typedef_scopes)

    def _starts_declaration(self) -> bool:
        tok = self._peek()
        if tok.kind == L.KEYWORD and tok.value in (
                _TYPE_SPECIFIER_KEYWORDS | _STORAGE_KEYWORDS
                | _QUALIFIER_KEYWORDS):
            return True
        return tok.kind == L.ID and self._is_typedef_name(tok.value)

    @staticmethod
    def _resolve_specifiers(specifiers: List[str]) -> CType:
        spec = sorted(specifiers)
        key = " ".join(spec)
        table = {
            "void": VOID,
            "char": IntType(kind="char"),
            "char signed": IntType(kind="signed char"),
            "char unsigned": IntType(kind="unsigned char"),
            "short": IntType(kind="short"),
            "int short": IntType(kind="short"),
            "short unsigned": IntType(kind="unsigned short"),
            "int short unsigned": IntType(kind="unsigned short"),
            "int": INT,
            "signed": INT,
            "int signed": INT,
            "unsigned": IntType(kind="unsigned int"),
            "int unsigned": IntType(kind="unsigned int"),
            "long": IntType(kind="long"),
            "int long": IntType(kind="long"),
            "long unsigned": IntType(kind="unsigned long"),
            "int long unsigned": IntType(kind="unsigned long"),
            "long long": IntType(kind="long"),
            "float": FLOAT,
            "double": DOUBLE,
            "double long": FloatType(kind="long double"),
        }
        if key not in table:
            raise ParseError(f"unsupported type specifiers {specifiers}")
        return table[key]

    def _parse_statement(self) -> A.Stmt:
        self._collect_pragmas()
        tok = self._peek()
        coord = tok.coord
        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_punct(";"):
            self._next()
            return A.ExprStmt(expr=None, coord=coord)
        if tok.is_keyword("if"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            then = self._parse_statement()
            otherwise = None
            if self._peek().is_keyword("else"):
                self._next()
                otherwise = self._parse_statement()
            return A.If(cond=cond, then=then, otherwise=otherwise,
                        coord=coord)
        if tok.is_keyword("while"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.While(cond=cond, body=body, coord=coord)
        if tok.is_keyword("do"):
            self._next()
            body = self._parse_statement()
            self._expect_keyword("while")
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return A.DoWhile(body=body, cond=cond, coord=coord)
        if tok.is_keyword("for"):
            self._next()
            self._expect_punct("(")
            init = None
            if not self._peek().is_punct(";"):
                if self._starts_declaration():
                    init_coord = self._peek().coord
                    storage, base = self._parse_declaration_specifiers()
                    name, ctype, _ = self._parse_declarator(base)
                    decl = self._finish_declaration(storage, base, name,
                                                    ctype, init_coord)
                    init = decl
                else:
                    init = self._parse_expression()
                    self._expect_punct(";")
            else:
                self._next()
            cond = None
            if not self._peek().is_punct(";"):
                cond = self._parse_expression()
            self._expect_punct(";")
            step = None
            if not self._peek().is_punct(")"):
                step = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.For(init=init, cond=cond, step=step, body=body,
                         coord=coord)
        if tok.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return A.Return(value=value, coord=coord)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return A.Break(coord=coord)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return A.Continue(coord=coord)
        if tok.is_keyword("goto"):
            self._next()
            label = self._next()
            if label.kind != L.ID:
                raise ParseError("expected label after goto", label.coord)
            self._expect_punct(";")
            return A.Goto(label=label.value, coord=coord)
        if tok.is_keyword("switch"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.Switch(cond=cond, body=body, coord=coord)
        if tok.is_keyword("case"):
            self._next()
            value = self._parse_conditional()
            if _fold_int(value, self) is None:
                raise ParseError("case label is not a constant "
                                 "expression", coord)
            self._expect_punct(":")
            return A.Case(value=value, stmt=self._parse_statement(),
                          coord=coord)
        if tok.is_keyword("default"):
            self._next()
            self._expect_punct(":")
            return A.Default(stmt=self._parse_statement(), coord=coord)
        if (tok.kind == L.ID and self._peek(1).is_punct(":")
                and self._lookup_enum_const(tok.value) is None):
            self._next()
            self._next()
            return A.LabelStmt(label=tok.value,
                               stmt=self._parse_statement(), coord=coord)
        expr = self._parse_expression()
        self._expect_punct(";")
        return A.ExprStmt(expr=expr, coord=coord)

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        while self._peek().is_punct(","):
            coord = self._next().coord
            right = self._parse_assignment()
            expr = A.BinaryOp(op=",", left=expr, right=right, coord=coord)
        return expr

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind == L.PUNCT and tok.value in _ASSIGN_OPS:
            self._next()
            right = self._parse_assignment()
            return A.Assignment(op=tok.value, target=left, value=right,
                                coord=tok.coord)
        return left

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(0)
        if self._peek().is_punct("?"):
            coord = self._next().coord
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional()
            return A.Conditional(cond=cond, then=then, otherwise=otherwise,
                                 coord=coord)
        return cond

    def _parse_binary(self, level: int) -> A.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_cast()
        ops = self._BINARY_LEVELS[level]
        expr = self._parse_binary(level + 1)
        while self._peek().kind == L.PUNCT and self._peek().value in ops:
            tok = self._next()
            right = self._parse_binary(level + 1)
            expr = A.BinaryOp(op=tok.value, left=expr, right=right,
                              coord=tok.coord)
        return expr

    def _parse_cast(self) -> A.Expr:
        if self._peek().is_punct("(") and self._starts_type_name(1):
            coord = self._next().coord  # "("
            type_name = self._parse_type_name()
            self._expect_punct(")")
            operand = self._parse_cast()
            return A.Cast(to_type=type_name, operand=operand, coord=coord)
        return self._parse_unary()

    def _starts_type_name(self, offset: int) -> bool:
        tok = self._peek(offset)
        if tok.kind == L.KEYWORD and tok.value in (
                _TYPE_SPECIFIER_KEYWORDS | _QUALIFIER_KEYWORDS):
            return True
        return tok.kind == L.ID and self._is_typedef_name(tok.value)

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        coord = tok.coord
        if tok.kind == L.PUNCT and tok.value in ("++", "--"):
            self._next()
            operand = self._parse_unary()
            return A.UnaryOp(op=tok.value, operand=operand, coord=coord)
        if tok.kind == L.PUNCT and tok.value in ("+", "-", "!", "~", "*",
                                                 "&"):
            self._next()
            operand = self._parse_cast()
            return A.UnaryOp(op=tok.value, operand=operand, coord=coord)
        if tok.is_keyword("sizeof"):
            self._next()
            if self._peek().is_punct("(") and self._starts_type_name(1):
                self._next()
                type_name = self._parse_type_name()
                self._expect_punct(")")
                return A.SizeofType(of_type=type_name, coord=coord)
            operand = self._parse_unary()
            return A.UnaryOp(op="sizeof", operand=operand, coord=coord)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._next()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = A.Subscript(base=expr, index=index, coord=tok.coord)
            elif tok.is_punct("("):
                self._next()
                args: List[A.Expr] = []
                if not self._peek().is_punct(")"):
                    args.append(self._parse_assignment())
                    while self._accept_punct(","):
                        args.append(self._parse_assignment())
                self._expect_punct(")")
                expr = A.Call(func=expr, args=args, coord=tok.coord)
            elif tok.is_punct("."):
                self._next()
                name = self._next()
                expr = A.Member(base=expr, field_name=name.value,
                                arrow=False, coord=tok.coord)
            elif tok.is_punct("->"):
                self._next()
                name = self._next()
                expr = A.Member(base=expr, field_name=name.value,
                                arrow=True, coord=tok.coord)
            elif tok.kind == L.PUNCT and tok.value in ("++", "--"):
                self._next()
                expr = A.PostfixOp(op="p" + tok.value, operand=expr,
                                   coord=tok.coord)
            else:
                return expr
