"""Recursive-descent parser for the C subset.

The grammar covered is the C89 core plus function prototypes (the paper
notes these were added to the PCC2-derived front end) and ``volatile``:

* declarations with full declarator syntax (pointers, arrays, function
  types, parenthesized declarators), ``typedef``, ``struct``/``union``
  with embedded arrays, ``enum``;
* every statement form including ``goto``/labels and ``switch``;
* the complete expression grammar with correct precedence, including the
  side-effecting operators (``++``, embedded assignment, ``&&``, ``||``,
  ``?:``, ``,``) that lowering later removes.

Typedef names are disambiguated with the classic lexer-feedback trick:
the parser maintains a scope stack of typedef names and enum constants.

Binary operators are parsed by precedence climbing over the one table
``Parser._BINARY_LEVELS``: a frame per operator, not per precedence
level, so a parenthesis nests eight frames deep instead of eighteen.
The per-level recursion this replaced lives on, with the token tests it
used, as ``tests/support/reference_parser.py``, the oracle of
``tests/test_parser_equivalence.py``: ASTs and diagnostics are the same.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import c_ast as A
from . import lexer as L
from .ctypes_ import (ArrayType, CType, DOUBLE, FLOAT, FunctionType, INT,
                      IntType, FloatType, PointerType, StructType,
                      TypeError_, VOID, binop_value, layout_struct,
                      unop_value)


class ParseError(Exception):
    def __init__(self, message: str, coord: Optional[A.Coord] = None):
        if coord is not None:
            message = f"{coord}: {message}"
        super().__init__(message)
        self.coord = coord


_TYPE_SPECIFIER_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "struct", "union", "enum",
}
_STORAGE_KEYWORDS = {"auto", "register", "static", "extern", "typedef"}
_QUALIFIER_KEYWORDS = {"const", "volatile"}

_DECLARATION_KEYWORDS = (_TYPE_SPECIFIER_KEYWORDS | _STORAGE_KEYWORDS
                         | _QUALIFIER_KEYWORDS)
_TYPE_NAME_KEYWORDS = _TYPE_SPECIFIER_KEYWORDS | _QUALIFIER_KEYWORDS

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=",
               "&=", "^=", "|="}

#: Sorted type-specifier words -> the type they name: a canonical
#: instance, or the kind of a type built afresh for each declaration
#: (a catalog pickle records which declarations share a type object).
_SPECIFIER_TYPES = {
    "void": VOID, "int": INT, "signed": INT, "int signed": INT,
    "float": FLOAT, "double": DOUBLE, "double long": "long double",
    "char": "char", "char signed": "signed char",
    "char unsigned": "unsigned char",
    "short": "short", "int short": "short",
    "short unsigned": "unsigned short",
    "int short unsigned": "unsigned short",
    "unsigned": "unsigned int", "int unsigned": "unsigned int",
    "long": "long", "int long": "long", "long long": "long",
    "long unsigned": "unsigned long", "int long unsigned": "unsigned long",
}


class Parser:
    def __init__(self, tokens: List[L.Token]):
        self.tokens = tokens
        self.pos = 0
        # Scope stack for typedef names and enum constants.
        self.typedef_scopes: List[Set[str]] = [set()]
        self.enum_scopes: List[Dict[str, int]] = [{}]
        self.tags: Dict[str, StructType] = {}
        self.pending_pragmas: List[str] = []

    # -- token plumbing -------------------------------------------------

    def _peek(self, offset: int = 0) -> L.Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        # The stream ends in EOF and _next never steps past it.
        return self.tokens[self.pos]

    def _next(self) -> L.Token:
        tok = self.tokens[self.pos]
        if tok.kind != L.EOF:
            self.pos += 1
        return tok

    def _expect_punct(self, text: str) -> L.Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {tok.value!r}",
                             tok.coord)
        return tok

    def _expect_keyword(self, text: str) -> L.Token:
        tok = self._next()
        if not tok.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {tok.value!r}",
                             tok.coord)
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    def _collect_pragmas(self) -> None:
        while self._peek().kind == L.PRAGMA:
            self.pending_pragmas.append(self._next().value)

    # -- typedef/enum scope helpers ---------------------------------------

    def _push_scope(self) -> None:
        self.typedef_scopes.append(set())
        self.enum_scopes.append({})

    def _pop_scope(self) -> None:
        self.typedef_scopes.pop()
        self.enum_scopes.pop()

    def _is_typedef_name(self, name: str) -> bool:
        for scope in self.typedef_scopes:
            if name in scope:
                return True
        return False

    def _lookup_enum_const(self, name: str) -> Optional[int]:
        for scope in reversed(self.enum_scopes):
            if name in scope:
                return scope[name]
        return None

    def _typedef_type(self, name: str) -> CType:
        return self._typedefs[name]

    # -- entry point -------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        self._typedefs: Dict[str, CType] = {}
        unit = A.TranslationUnit(items=[], tags=self.tags)
        self._collect_pragmas()
        while self._peek().kind != L.EOF:
            item = self._parse_external_declaration()
            if item is not None:
                unit.items.append(item)
            # Pragmas not consumed by a function definition do not leak
            # across items.
            self.pending_pragmas.clear()
            self._collect_pragmas()
        return unit

    # -- declarations --------------------------------------------------------

    def _starts_declaration(self) -> bool:
        tok = self._peek()
        if tok.kind == L.KEYWORD and tok.value in _DECLARATION_KEYWORDS:
            return True
        return tok.kind == L.ID and self._is_typedef_name(tok.value)

    def _parse_external_declaration(self):
        coord = self._peek().coord
        storage, base_type = self._parse_declaration_specifiers()
        if self._accept_punct(";"):
            return None  # e.g. a bare ``struct point { ... };``
        name, ctype, params = self._parse_declarator(base_type)
        if isinstance(ctype, FunctionType) and self._peek().is_punct("{"):
            if name is None:
                raise ParseError("function definition without a name", coord)
            pragmas = tuple(self.pending_pragmas)
            self.pending_pragmas.clear()
            self._push_scope()
            body = self._parse_compound()
            self._pop_scope()
            return A.FuncDef(name=name, ctype=ctype, params=params or [],
                             body=body, storage=storage or "extern",
                             pragmas=pragmas, coord=coord)
        # Otherwise a (possibly multi-name) declaration.
        decl = self._finish_declaration(storage, base_type, name, ctype,
                                        coord)
        return decl

    def _finish_declaration(self, storage: Optional[str], base_type: CType,
                            first_name: Optional[str], first_type: CType,
                            coord: A.Coord) -> Optional[A.Decl]:
        declarators: List[A.Declarator] = []
        name, ctype = first_name, first_type
        while True:
            init = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            if name is None:
                raise ParseError("declarator without a name", coord)
            if storage == "typedef":
                self.typedef_scopes[-1].add(name)
                self._typedefs[name] = ctype
            else:
                declarators.append(A.Declarator(name=name, ctype=ctype,
                                                init=init, coord=coord))
            if not self._accept_punct(","):
                break
            name, ctype, _ = self._parse_declarator(base_type)
        self._expect_punct(";")
        if storage == "typedef" or not declarators:
            return None
        return A.Decl(declarators=declarators, storage=storage or "auto",
                      coord=coord)

    def _parse_declaration_specifiers(self) -> Tuple[Optional[str], CType]:
        storage: Optional[str] = None
        const = False
        volatile = False
        specifiers: List[str] = []
        struct_type: Optional[CType] = None
        typedef_type: Optional[CType] = None
        while True:
            tok = self._peek()
            if tok.kind == L.KEYWORD and tok.value in _STORAGE_KEYWORDS:
                if storage is not None and storage != tok.value:
                    raise ParseError("multiple storage classes", tok.coord)
                storage = tok.value
                self._next()
            elif tok.kind == L.KEYWORD and tok.value in _QUALIFIER_KEYWORDS:
                const = const or tok.value == "const"
                volatile = volatile or tok.value == "volatile"
                self._next()
            elif tok.is_keyword("struct") or tok.is_keyword("union"):
                struct_type = self._parse_struct_or_union()
            elif tok.is_keyword("enum"):
                struct_type = self._parse_enum()
            elif (tok.kind == L.KEYWORD
                  and tok.value in _TYPE_SPECIFIER_KEYWORDS):
                specifiers.append(tok.value)
                self._next()
            elif (tok.kind == L.ID and self._is_typedef_name(tok.value)
                  and not specifiers and struct_type is None
                  and typedef_type is None):
                typedef_type = self._typedef_type(tok.value)
                self._next()
            else:
                break
        if struct_type is not None:
            base = struct_type
        elif typedef_type is not None:
            base = typedef_type
        elif specifiers:
            base = self._resolve_specifiers(specifiers)
        else:
            base = INT  # implicit int, as K&R C allowed
        if const or volatile:
            base = base.qualified(const=const, volatile=volatile)
        return storage, base

    @staticmethod
    def _resolve_specifiers(specifiers: List[str]) -> CType:
        found = _SPECIFIER_TYPES.get(" ".join(sorted(specifiers)))
        if found is None:
            raise ParseError(f"unsupported type specifiers {specifiers}")
        if not isinstance(found, str):
            return found
        if found == "long double":
            return FloatType(kind=found)
        return IntType(kind=found)

    def _parse_struct_or_union(self) -> CType:
        tok = self._next()  # struct | union
        is_union = tok.value == "union"
        tag = None
        if self._peek().kind == L.ID:
            tag = self._next().value
        if not self._peek().is_punct("{"):
            if tag is None:
                raise ParseError("anonymous struct without body", tok.coord)
            key = ("union " if is_union else "struct ") + tag
            if key in self.tags:
                return self.tags[key]
            incomplete = StructType(tag=tag, is_union=is_union,
                                    complete=False)
            self.tags[key] = incomplete
            return incomplete
        self._expect_punct("{")
        members: List[Tuple[str, CType]] = []
        while not self._peek().is_punct("}"):
            _, member_base = self._parse_declaration_specifiers()
            while True:
                mname, mtype, _ = self._parse_declarator(member_base)
                if mname is None:
                    raise ParseError("unnamed struct member", tok.coord)
                members.append((mname, mtype))
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
        self._expect_punct("}")
        tag = tag or f"<anon@{tok.coord.line}>"
        struct = layout_struct(tag, members, is_union=is_union)
        self.tags[("union " if is_union else "struct ") + tag] = struct
        return struct

    def _parse_enum(self) -> CType:
        tok = self._expect_keyword("enum")
        if self._peek().kind == L.ID:
            self._next()  # tag, unused beyond syntax
        if self._peek().is_punct("{"):
            self._next()
            value = 0
            while not self._peek().is_punct("}"):
                name_tok = self._next()
                if name_tok.kind != L.ID:
                    raise ParseError("expected enumerator name",
                                     name_tok.coord)
                if self._accept_punct("="):
                    value = self._parse_constant_int()
                self.enum_scopes[-1][name_tok.value] = value
                value += 1
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
        return INT

    def _parse_constant_int(self) -> int:
        expr = self._parse_conditional()
        value = _fold_int(expr, self)
        if value is None:
            raise ParseError("expected integer constant expression",
                             expr.coord)
        return value

    # -- declarators -----------------------------------------------------------

    def _parse_declarator(self, base: CType, abstract: bool = False
                          ) -> Tuple[Optional[str], CType,
                                     Optional[List[A.ParamDecl]]]:
        """Parse a declarator; returns (name, full type, params-if-function).

        Uses the standard two-pass trick: pointers bind loosest, then the
        direct declarator, then postfix array/function suffixes.
        """
        while self._accept_punct("*"):
            const = volatile = False
            while self._peek().kind == L.KEYWORD and (
                    self._peek().value in _QUALIFIER_KEYWORDS):
                qual = self._next().value
                const = const or qual == "const"
                volatile = volatile or qual == "volatile"
            base = PointerType(base=base, const=const, volatile=volatile)
        return self._parse_direct_declarator(base, abstract)

    def _parse_direct_declarator(self, base: CType, abstract: bool
                                 ) -> Tuple[Optional[str], CType,
                                            Optional[List[A.ParamDecl]]]:
        name: Optional[str] = None
        inner: Optional[int] = None  # token index of '(' for nested declr
        if self._peek().is_punct("(") and self._is_nested_declarator():
            self._expect_punct("(")
            inner = self.pos
            depth = 1
            while depth:
                tok = self._next()
                if tok.is_punct("("):
                    depth += 1
                elif tok.is_punct(")"):
                    depth -= 1
                elif tok.kind == L.EOF:
                    raise ParseError("unterminated declarator", tok.coord)
        elif self._peek().kind == L.ID:
            name = self._next().value
        elif not abstract:
            # allow missing name only in abstract contexts
            pass
        params: Optional[List[A.ParamDecl]] = None
        suffixes: List[Tuple[str, object]] = []
        while True:
            if self._peek().is_punct("["):
                self._next()
                length: Optional[int] = None
                if not self._peek().is_punct("]"):
                    length = self._parse_constant_int()
                self._expect_punct("]")
                suffixes.append(("array", length))
            elif self._peek().is_punct("("):
                self._next()
                fn_params, varargs, prototyped = self._parse_param_list()
                suffixes.append(("function", (fn_params, varargs,
                                              prototyped)))
                if params is None:
                    params = fn_params
            else:
                break
        ctype = base
        for kind, payload in reversed(suffixes):
            if kind == "array":
                ctype = ArrayType(base=ctype, length=payload)
            else:
                fn_params, varargs, prototyped = payload
                ptypes = tuple(p.ctype for p in fn_params)
                ctype = FunctionType(ret=ctype, params=ptypes,
                                     varargs=varargs, prototyped=prototyped)
        if inner is not None:
            # Re-parse the nested declarator against the suffixed type.
            saved = self.pos
            self.pos = inner
            name, ctype, inner_params = self._parse_declarator(ctype,
                                                               abstract)
            self._expect_punct(")")
            self.pos = saved
            if inner_params is not None:
                params = inner_params
        return name, ctype, params

    def _is_nested_declarator(self) -> bool:
        """Disambiguate ``(*f)(...)`` from a parameter list ``(int x)``."""
        tok = self._peek(1)
        if tok.is_punct("*") or tok.is_punct("("):
            return True
        if tok.kind == L.ID and not self._is_typedef_name(tok.value):
            return True
        return False

    def _parse_param_list(self) -> Tuple[List[A.ParamDecl], bool, bool]:
        params: List[A.ParamDecl] = []
        varargs = False
        if self._accept_punct(")"):
            return params, varargs, False  # () = unprototyped
        if (self._peek().is_keyword("void")
                and self._peek(1).is_punct(")")):
            self._next()
            self._next()
            return params, varargs, True
        while True:
            if self._accept_punct("..."):
                varargs = True
                break
            coord = self._peek().coord
            _, base = self._parse_declaration_specifiers()
            name, ctype, _ = self._parse_declarator(base, abstract=True)
            # Parameter arrays decay to pointers; functions to fn pointers.
            if isinstance(ctype, ArrayType):
                ctype = PointerType(base=ctype.base)
            elif isinstance(ctype, FunctionType):
                ctype = PointerType(base=ctype)
            params.append(A.ParamDecl(name=name, ctype=ctype, coord=coord))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return params, varargs, True

    def _parse_type_name(self) -> A.TypeName:
        coord = self._peek().coord
        _, base = self._parse_declaration_specifiers()
        name, ctype, _ = self._parse_declarator(base, abstract=True)
        if name is not None:
            raise ParseError("type name must not declare an identifier",
                             coord)
        return A.TypeName(ctype=ctype, coord=coord)

    def _parse_initializer(self) -> A.Initializer:
        coord = self._peek().coord
        if self._accept_punct("{"):
            items: List[A.Initializer] = []
            while not self._peek().is_punct("}"):
                items.append(self._parse_initializer())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return A.Initializer(items=items, coord=coord)
        return A.Initializer(expr=self._parse_assignment(), coord=coord)

    # -- statements --------------------------------------------------------------

    def _parse_compound(self) -> A.Compound:
        coord = self._expect_punct("{").coord
        self._push_scope()
        items: List[A.Stmt] = []
        while not self._peek().is_punct("}"):
            items.append(self._parse_block_item())
        self._expect_punct("}")
        self._pop_scope()
        return A.Compound(items=items, coord=coord)

    def _parse_block_item(self) -> A.Stmt:
        self._collect_pragmas()
        if self._starts_declaration():
            coord = self._peek().coord
            storage, base = self._parse_declaration_specifiers()
            if self._accept_punct(";"):
                return A.ExprStmt(expr=None, coord=coord)
            name, ctype, _ = self._parse_declarator(base)
            decl = self._finish_declaration(storage, base, name, ctype,
                                            coord)
            if decl is None:
                return A.ExprStmt(expr=None, coord=coord)
            return A.DeclStmt(decl=decl, coord=coord)
        return self._parse_statement()

    def _parse_statement(self) -> A.Stmt:
        self._collect_pragmas()
        tok = self.tokens[self.pos]
        coord = tok.coord
        punct = tok.value if tok.kind == L.PUNCT else None
        keyword = tok.value if tok.kind == L.KEYWORD else None
        if punct == "{":
            return self._parse_compound()
        if punct == ";":
            self._next()
            return A.ExprStmt(expr=None, coord=coord)
        if keyword == "if":
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
        if keyword == "while":
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.While(cond=cond, body=body, coord=coord)
        if keyword == "do":
            self._next()
            body = self._parse_statement()
            self._expect_keyword("while")
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return A.DoWhile(body=body, cond=cond, coord=coord)
        if keyword == "for":
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
        if keyword == "return":
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return A.Return(value=value, coord=coord)
        if keyword == "break":
            self._next()
            self._expect_punct(";")
            return A.Break(coord=coord)
        if keyword == "continue":
            self._next()
            self._expect_punct(";")
            return A.Continue(coord=coord)
        if keyword == "goto":
            self._next()
            label = self._next()
            if label.kind != L.ID:
                raise ParseError("expected label after goto", label.coord)
            self._expect_punct(";")
            return A.Goto(label=label.value, coord=coord)
        if keyword == "switch":
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.Switch(cond=cond, body=body, coord=coord)
        if keyword == "case":
            self._next()
            value = self._parse_conditional()
            if _fold_int(value, self) is None:
                raise ParseError("case label is not a constant "
                                 "expression", coord)
            self._expect_punct(":")
            return A.Case(value=value, stmt=self._parse_statement(),
                          coord=coord)
        if keyword == "default":
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

    # -- expressions ---------------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        tok = self.tokens[self.pos]
        while tok.kind == L.PUNCT and tok.value == ",":
            self.pos += 1
            right = self._parse_assignment()
            expr = A.BinaryOp(op=",", left=expr, right=right,
                              coord=tok.coord)
            tok = self.tokens[self.pos]
        return expr

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_conditional()
        tok = self.tokens[self.pos]
        if tok.kind == L.PUNCT and tok.value in _ASSIGN_OPS:
            self.pos += 1
            right = self._parse_assignment()
            return A.Assignment(op=tok.value, target=left, value=right,
                                coord=tok.coord)
        return left

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(0)
        tok = self.tokens[self.pos]
        if tok.kind == L.PUNCT and tok.value == "?":
            self.pos += 1
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional()
            return A.Conditional(cond=cond, then=then, otherwise=otherwise,
                                 coord=tok.coord)
        return cond

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]
    #: Punctuator -> its index in :attr:`_BINARY_LEVELS`, -1 if it is
    #: not a binary operator.
    _PRECEDENCE = dict.fromkeys(L.PUNCTUATORS, -1) | {
        op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

    def _parse_binary(self, level: int) -> A.Expr:
        """The operand chain of operators at ``level`` and tighter, by
        precedence climbing: one frame per operator, not per level, and
        left-associative because the right operand climbs one level up."""
        expr = self._parse_cast()
        tokens, precedence = self.tokens, self._PRECEDENCE
        while True:
            tok = tokens[self.pos]
            if tok.kind != L.PUNCT:
                return expr
            prec = precedence[tok.value]
            if prec < level:
                return expr
            self.pos += 1
            right = self._parse_binary(prec + 1)
            expr = A.BinaryOp(op=tok.value, left=expr, right=right,
                              coord=tok.coord)

    def _parse_cast(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == L.PUNCT and tok.value == "(" \
                and self._starts_type_name(1):
            self.pos += 1
            type_name = self._parse_type_name()
            self._expect_punct(")")
            operand = self._parse_cast()
            return A.Cast(to_type=type_name, operand=operand,
                          coord=tok.coord)
        return self._parse_unary()

    def _starts_type_name(self, offset: int) -> bool:
        tok = self._peek(offset)
        if tok.kind == L.KEYWORD and tok.value in _TYPE_NAME_KEYWORDS:
            return True
        return tok.kind == L.ID and self._is_typedef_name(tok.value)

    def _parse_unary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        kind, op, coord = tok.kind, tok.value, tok.coord
        if kind == L.PUNCT and op in ("++", "--"):
            self.pos += 1
            operand = self._parse_unary()
            return A.UnaryOp(op=op, operand=operand, coord=coord)
        if kind == L.PUNCT and op in ("+", "-", "!", "~", "*", "&"):
            self.pos += 1
            operand = self._parse_cast()
            return A.UnaryOp(op=op, operand=operand, coord=coord)
        if kind == L.KEYWORD and op == "sizeof":
            self.pos += 1
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
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind != L.PUNCT:
                return expr
            op = tok.value
            if op == "[":
                self.pos += 1
                index = self._parse_expression()
                self._expect_punct("]")
                expr = A.Subscript(base=expr, index=index, coord=tok.coord)
            elif op == "(":
                self.pos += 1
                args: List[A.Expr] = []
                if not self._peek().is_punct(")"):
                    args.append(self._parse_assignment())
                    while self._accept_punct(","):
                        args.append(self._parse_assignment())
                self._expect_punct(")")
                expr = A.Call(func=expr, args=args, coord=tok.coord)
            elif op == "." or op == "->":
                self.pos += 1
                name = self._next()
                expr = A.Member(base=expr, field_name=name.value,
                                arrow=op == "->", coord=tok.coord)
            elif op == "++" or op == "--":
                self.pos += 1
                expr = A.PostfixOp(op="p" + op, operand=expr,
                                   coord=tok.coord)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._next()
        coord = tok.coord
        if tok.kind == L.INT_CONST:
            return A.IntLit(value=tok.int_value, suffix=tok.suffix,
                            coord=coord)
        if tok.kind == L.FLOAT_CONST:
            return A.FloatLit(value=tok.float_value, suffix=tok.suffix,
                              coord=coord)
        if tok.kind == L.CHAR_CONST:
            return A.CharLit(value=tok.int_value, coord=coord)
        if tok.kind == L.STRING:
            value = tok.value
            # Adjacent string literal concatenation.
            while self._peek().kind == L.STRING:
                value += self._next().value
            return A.StringLit(value=value, coord=coord)
        if tok.kind == L.ID:
            enum_value = self._lookup_enum_const(tok.value)
            if enum_value is not None:
                return A.IntLit(value=enum_value, coord=coord)
            return A.Ident(name=tok.value, coord=coord)
        if tok.is_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.value!r}", coord)


#: C operator spelling -> IL operator, for :func:`_fold_int`.
_FOLD_UNARY = {"-": "neg", "~": "bnot", "!": "not"}


def _fold_int(expr: A.Expr, parser: Parser) -> Optional[int]:
    """Constant folding for array bounds, enum values and case labels,
    in ``int`` by C's value rule; None where it has no value."""
    if isinstance(expr, (A.IntLit, A.CharLit)):
        return expr.value
    if isinstance(expr, A.UnaryOp):
        value = _fold_int(expr.operand, parser)
        if value is None or expr.op == "+":
            return value
        if expr.op not in _FOLD_UNARY:
            return None
        return unop_value(_FOLD_UNARY[expr.op], value, INT)
    if isinstance(expr, A.BinaryOp):
        left = _fold_int(expr.left, parser)
        right = _fold_int(expr.right, parser)
        if left is None or right is None:
            return None
        try:
            return binop_value(expr.op, left, right, INT)
        except ArithmeticError:  # a zero divisor, or not an IL operator
            return None
    if isinstance(expr, A.SizeofType):
        try:
            return expr.of_type.ctype.sizeof()
        except TypeError_:
            return None
    return None


def parse(source: str, filename: str = "<input>") -> A.TranslationUnit:
    """Tokenize and parse preprocessed C text."""
    tokens = L.tokenize(source, filename)
    return Parser(tokens).parse_translation_unit()
