"""Procedure databases ("catalogs") for cross-file inlining (section 7).

"In order to inline functions from other files, the intermediate
representation for functions must be saved in an easily accessible form.
To permit this, we eliminated all hard pointers from the IL. ... math
libraries can be 'compiled' into databases and used as a base for
inlining, much as include directories are used as a source for header
files."

A database maps function names to pickled IL entries.  Each entry
carries the function body plus the global symbols it references, so
importing into another program can unify globals by name and renumber
everything else.  Static variables inside database procedures were
already promoted to uniquely named globals by the front end (so "values
are correctly maintained regardless of whether the procedure is called
normally or through inlining").
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..frontend.symtab import GLOBAL, Symbol, SymbolTable
from ..il import nodes as N
from ..opt.utils import rewrite_stmt_exprs


@dataclass
class DatabaseEntry:
    """One catalogued procedure: the function and its environment."""

    fn: N.ILFunction
    # Globals the body references, with initializers, so the importer
    # can materialize them in the target program.
    globals: List[N.GlobalVar] = field(default_factory=list)
    # Names of functions this body calls (for inline ordering).
    calls: List[str] = field(default_factory=list)


class InlineDatabase:
    """A persistent catalog of parsed procedures."""

    def __init__(self) -> None:
        self.entries: Dict[str, DatabaseEntry] = {}

    # -- construction -------------------------------------------------------

    def add_program(self, program: N.ILProgram) -> None:
        for name, fn in program.functions.items():
            self.add_function(fn, program)

    def add_function(self, fn: N.ILFunction,
                     program: N.ILProgram) -> None:
        referenced, calls = _references(fn, program)
        self.entries[fn.name] = DatabaseEntry(fn=fn, globals=referenced,
                                              calls=calls)

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump(self.entries, handle)

    @classmethod
    def load(cls, path: str) -> "InlineDatabase":
        db = cls()
        with open(path, "rb") as handle:
            db.entries = pickle.load(handle)
        return db

    def dumps(self) -> bytes:
        return pickle.dumps(self.entries)

    @classmethod
    def loads(cls, blob: bytes) -> "InlineDatabase":
        db = cls()
        db.entries = pickle.loads(blob)
        return db

    # -- queries ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self) -> List[str]:
        return sorted(self.entries)

    def get(self, name: str) -> Optional[DatabaseEntry]:
        return self.entries.get(name)


def _references(fn: N.ILFunction, program: N.ILProgram
                ) -> Tuple[List[N.GlobalVar], List[str]]:
    """One walk of ``fn``'s expressions: the program globals it
    references, in first-use order, and the sorted names it calls."""
    by_sym = {g.sym: g for g in program.globals}
    out: List[N.GlobalVar] = []
    seen: Set[Symbol] = set()
    calls: Set[str] = set()
    for stmt in fn.all_statements():
        for expr in N.stmt_exprs(stmt):
            for node in N.walk_expr(expr):
                if isinstance(node, (N.VarRef, N.AddrOf)):
                    sym = node.sym
                    if sym in by_sym and sym not in seen:
                        seen.add(sym)
                        out.append(by_sym[sym])
                elif isinstance(node, N.CallExpr):
                    calls.add(node.name)
    return out, sorted(calls)


def import_entry(entry: DatabaseEntry, program: N.ILProgram
                 ) -> N.ILFunction:
    """Import a database entry into ``program``: globals unify by name,
    everything else is renumbered through the program's symbol table.
    Returns a fresh ILFunction whose symbols live in ``program``."""
    symtab: SymbolTable = program.symtab
    mapping: Dict[Symbol, Symbol] = {}
    existing = {g.sym.name: g.sym for g in program.globals}
    for g in entry.globals:
        if g.sym.name in existing:
            mapping[g.sym] = existing[g.sym.name]
            continue
        fresh = Symbol(name=g.sym.name, ctype=g.sym.ctype,
                       storage=g.sym.storage or GLOBAL,
                       uid=symtab.new_uid(),
                       address_taken=g.sym.address_taken)
        symtab.symbols[fresh.uid] = fresh
        program.globals.append(N.GlobalVar(sym=fresh, init=g.init))
        mapping[g.sym] = fresh
    params = []
    for p in entry.fn.params:
        fresh = Symbol(name=p.name, ctype=p.ctype, storage=p.storage,
                       uid=symtab.new_uid(),
                       address_taken=p.address_taken)
        symtab.symbols[fresh.uid] = fresh
        mapping[p] = fresh
        params.append(fresh)
    local_syms = []
    for loc in entry.fn.local_syms:
        fresh = Symbol(name=loc.name, ctype=loc.ctype,
                       storage=loc.storage, uid=symtab.new_uid(),
                       address_taken=loc.address_taken)
        symtab.symbols[fresh.uid] = fresh
        mapping[loc] = fresh
        local_syms.append(fresh)
    body = [_remap_stmt(s, mapping)
            for s in N.clone_statements(entry.fn.body)]
    return N.ILFunction(name=entry.fn.name, params=params,
                        ret_type=entry.fn.ret_type, body=body,
                        pragmas=entry.fn.pragmas, local_syms=local_syms)


def _remap_stmt(stmt: N.Stmt, mapping: Dict[Symbol, Symbol]) -> N.Stmt:
    def remap(expr: N.Expr) -> N.Expr:
        if isinstance(expr, N.VarRef) and expr.sym in mapping:
            return N.VarRef(sym=mapping[expr.sym], ctype=expr.ctype)
        if isinstance(expr, N.AddrOf) and expr.sym in mapping:
            return N.AddrOf(sym=mapping[expr.sym], ctype=expr.ctype)
        return expr

    rewrite_stmt_exprs(stmt, lambda expr: N.map_expr(expr, remap),
                       targets=True)
    if isinstance(stmt, N.DoLoop) and stmt.var in mapping:
        stmt.var = mapping[stmt.var]
    for sublist in stmt.substatements():
        for sub in sublist:
            _remap_stmt(sub, mapping)
    return stmt

