"""Symbol table management shared by the front end, IL, and optimizer.

The paper notes (section 4) that symbol table management routines are part
of the common code between the C and Fortran environments, and (section 7)
that eliminating hard pointers from the IL lets procedure catalogs be paged
and saved.  Symbols therefore carry integer ids and the table is a plain
id -> symbol mapping that pickles cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .ctypes_ import CType


class SymbolError(Exception):
    """Raised on duplicate definitions or undeclared uses."""


# Storage classes.  AUTO covers plain locals; REGISTER is a hint only
# (the paper's global register allocation makes it moot, section 3).
AUTO = "auto"
REGISTER = "register"
STATIC = "static"
EXTERN = "extern"
PARAM = "param"
GLOBAL = "global"
TEMP = "temp"  # compiler-generated temporaries (section 3's `t=E2`)


@dataclass
class Symbol:
    """One declared object, function, or compiler temporary."""

    name: str
    ctype: CType
    storage: str = AUTO
    uid: int = -1
    # Has the & operator ever been applied?  (Section 1, problem 7: the
    # address operator permits modification in subtle ways; any symbol
    # with address_taken must be treated as aliased by stores through
    # pointers.)
    address_taken: bool = False
    defined: bool = False  # function bodies / initialized objects
    is_inline_copy: bool = False  # introduced by the inliner

    @property
    def is_volatile(self) -> bool:
        return self.ctype.is_volatile

    @property
    def is_temp(self) -> bool:
        return self.storage == TEMP

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other) -> bool:
        return isinstance(other, Symbol) and self.uid == other.uid

    def __repr__(self) -> str:
        return f"Symbol({self.name}#{self.uid}: {self.ctype}, {self.storage})"


@dataclass
class Scope:
    """A lexical scope mapping source names to symbols."""

    parent: Optional["Scope"] = None
    names: Dict[str, Symbol] = field(default_factory=dict)
    tags: Dict[str, CType] = field(default_factory=dict)  # struct/union/enum
    typedefs: Dict[str, CType] = field(default_factory=dict)

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def lookup_local(self, name: str) -> Optional[Symbol]:
        return self.names.get(name)

    def lookup_tag(self, tag: str) -> Optional[CType]:
        scope: Optional[Scope] = self
        while scope is not None:
            if tag in scope.tags:
                return scope.tags[tag]
            scope = scope.parent
        return None

    def lookup_typedef(self, name: str) -> Optional[CType]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.typedefs:
                return scope.typedefs[name]
            scope = scope.parent
        return None


class SymbolTable:
    """Owns every symbol in a translation unit and the scope stack."""

    def __init__(self) -> None:
        # Plain integer counters (not itertools.count) so the table —
        # and therefore IL procedure catalogs — pickle cleanly (the
        # paper's "no hard pointers" requirement, section 7).
        self._next_uid = 1
        self._next_temp = 1
        self.symbols: Dict[int, Symbol] = {}
        self.globals = Scope()
        self._stack: List[Scope] = [self.globals]

    def copy(self) -> "SymbolTable":
        """A table whose counters and ``symbols`` dict are its own but
        whose :class:`Symbol` objects and scopes are shared: what a
        pass after the front end and the inliner may change is which
        symbols exist and the numbers the next ones draw, never a
        symbol or a scope."""
        table = object.__new__(SymbolTable)
        table.__dict__.update(self.__dict__)
        table.symbols = dict(self.symbols)
        table._stack = list(self._stack)
        return table

    def new_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def _new_temp_index(self) -> int:
        index = self._next_temp
        self._next_temp += 1
        return index

    # -- scope management ------------------------------------------------

    @property
    def current(self) -> Scope:
        return self._stack[-1]

    def push_scope(self) -> Scope:
        scope = Scope(parent=self.current)
        self._stack.append(scope)
        return scope

    def pop_scope(self) -> Scope:
        if len(self._stack) == 1:
            raise SymbolError("cannot pop the global scope")
        return self._stack.pop()

    @property
    def at_global_scope(self) -> bool:
        return len(self._stack) == 1

    # -- declarations ----------------------------------------------------

    def declare(self, name: str, ctype: CType, storage: str = AUTO,
                allow_redecl: bool = False) -> Symbol:
        """Declare ``name`` in the current scope."""
        existing = self.current.lookup_local(name)
        if existing is not None:
            if allow_redecl or existing.ctype.compatible(ctype):
                return existing
            raise SymbolError(
                f"redeclaration of {name!r} with incompatible type "
                f"({existing.ctype} vs {ctype})")
        sym = Symbol(name=name, ctype=ctype, storage=storage,
                     uid=self.new_uid())
        self.current.names[name] = sym
        self.symbols[sym.uid] = sym
        return sym

    def fresh_temp(self, ctype: CType, prefix: str = "temp") -> Symbol:
        """A compiler temporary, as in the paper's ``t = E2`` rewriting."""
        name = f"{prefix}_{self._new_temp_index()}"
        sym = Symbol(name=name, ctype=ctype, storage=TEMP,
                     uid=self.new_uid())
        self.symbols[sym.uid] = sym
        return sym

    def clone_symbol(self, sym: Symbol, prefix: str = "in") -> Symbol:
        """Clone a symbol for inlining (``in_x`` style, section 9)."""
        name = f"{prefix}_{sym.name}"
        clone = Symbol(name=name, ctype=sym.ctype, storage=TEMP,
                       uid=self.new_uid(), is_inline_copy=True)
        self.symbols[clone.uid] = clone
        return clone

    def lookup(self, name: str) -> Symbol:
        sym = self.current.lookup(name)
        if sym is None:
            raise SymbolError(f"use of undeclared identifier {name!r}")
        return sym

    def maybe_lookup(self, name: str) -> Optional[Symbol]:
        return self.current.lookup(name)

    def declare_tag(self, tag: str, ctype: CType) -> None:
        self.current.tags[tag] = ctype

    def declare_typedef(self, name: str, ctype: CType) -> None:
        self.current.typedefs[name] = ctype

    def is_typedef_name(self, name: str) -> bool:
        return self.current.lookup_typedef(name) is not None

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols.values())
