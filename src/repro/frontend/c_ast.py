"""Abstract syntax tree for the C subset accepted by the front end.

The AST deliberately stays close to the surface syntax: side-effecting
operators (``++``, embedded ``=``, ``&&``, ``?:``) survive to this level
and are removed by lowering (:mod:`repro.frontend.lower`), exactly as the
paper's front end turns expressions into (statement-list, expression)
pairs (section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .ctypes_ import CType


@dataclass
class Coord:
    """Source coordinate for diagnostics."""

    filename: str = "<input>"
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


@dataclass
class Node:
    """Base class for every AST node."""

    coord: Optional[Coord] = field(default=None, kw_only=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int
    suffix: str = ""  # "", "u", "l", "ul"


@dataclass
class FloatLit(Expr):
    value: float
    suffix: str = ""  # "", "f", "l"


@dataclass
class CharLit(Expr):
    value: int  # already decoded to its integer value


@dataclass
class StringLit(Expr):
    value: str  # decoded contents without quotes


@dataclass
class Ident(Expr):
    name: str


@dataclass
class UnaryOp(Expr):
    """Prefix unary operators: ``- + ! ~ * & ++ --`` and sizeof-expr."""

    op: str
    operand: Expr


@dataclass
class PostfixOp(Expr):
    """Postfix ``++``/``--``."""

    op: str  # "p++" or "p--"
    operand: Expr


@dataclass
class BinaryOp(Expr):
    """All binary operators, including ``&&``/``||`` and ``,``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class Assignment(Expr):
    """``=`` and compound assignments (``+=`` etc.)."""

    op: str  # "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=", "|="
    target: Expr
    value: Expr


@dataclass
class Conditional(Expr):
    """The ``?:`` operator."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass
class Call(Expr):
    func: Expr
    args: List[Expr]


@dataclass
class Subscript(Expr):
    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    base: Expr
    field_name: str
    arrow: bool  # True for ``->``, False for ``.``


@dataclass
class Cast(Expr):
    to_type: "TypeName"
    operand: Expr


@dataclass
class SizeofType(Expr):
    of_type: "TypeName"


@dataclass
class TypeName(Node):
    """A parsed abstract declarator (used by casts and sizeof)."""

    ctype: CType


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------

@dataclass
class Declarator(Node):
    """A single declared name with its derived type and initializer."""

    name: str
    ctype: CType
    init: Optional["Initializer"] = None


@dataclass
class Initializer(Node):
    """Either a single expression or a brace-enclosed list."""

    expr: Optional[Expr] = None
    items: Optional[List["Initializer"]] = None

    @property
    def is_list(self) -> bool:
        return self.items is not None


@dataclass
class Decl(Node):
    """One declaration statement (possibly declaring several names)."""

    declarators: List[Declarator]
    storage: str = "auto"  # auto/register/static/extern/typedef


@dataclass
class ParamDecl(Node):
    name: Optional[str]
    ctype: CType


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr]  # None for the empty statement ``;``


@dataclass
class DeclStmt(Stmt):
    decl: Decl


@dataclass
class Compound(Stmt):
    items: List[Stmt]


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class For(Stmt):
    init: Optional[Union[Expr, Decl]]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass
class Return(Stmt):
    value: Optional[Expr]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Goto(Stmt):
    label: str


@dataclass
class LabelStmt(Stmt):
    label: str
    stmt: Stmt


@dataclass
class Switch(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class Case(Stmt):
    value: Expr
    stmt: Stmt


@dataclass
class Default(Stmt):
    stmt: Stmt


@dataclass
class Pragma(Stmt):
    """A ``#pragma`` surviving into the token stream.

    ``#pragma safe`` / ``#pragma vector`` marks the next loop as free of
    argument aliasing, the escape hatch the paper describes for daxpy
    (section 9).
    """

    text: str


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------

@dataclass
class FuncDef(Node):
    name: str
    ctype: CType  # a FunctionType
    params: List[ParamDecl]
    body: Compound
    storage: str = "extern"
    pragmas: Tuple[str, ...] = ()


@dataclass
class TranslationUnit(Node):
    items: List[Node] = field(default_factory=list)  # FuncDef | Decl | Pragma
    # "struct T" / "union T" -> the tag's final type (a member declared
    # inside its own struct still holds the incomplete one).
    tags: dict = field(default_factory=dict)

    def functions(self) -> List[FuncDef]:
        return [n for n in self.items if isinstance(n, FuncDef)]


def walk(node: Node):
    """Yield ``node`` and all AST descendants in preorder."""
    yield node
    for name in getattr(node, "__dataclass_fields__", {}):
        value = getattr(node, name)
        if isinstance(value, Node):
            yield from walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield from walk(item)
