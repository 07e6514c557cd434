"""Pretty-printer for the IL.

Output mimics the paper's presentation: assignments, ``do fortran``
loops, ``do parallel`` loops, and the colon vector-section notation of
section 9, so golden tests can compare our pipeline stages against the
transcripts printed in the paper.
"""

from __future__ import annotations

from typing import List

from . import nodes as N

_PRECEDENCE = {
    "min": 0, "max": 0,
    "|": 1, "^": 2, "&": 3,
    "==": 4, "!=": 4,
    "<": 5, ">": 5, "<=": 5, ">=": 5,
    "<<": 6, ">>": 6,
    "+": 7, "-": 7,
    "*": 8, "/": 8, "%": 8,
}


def format_expr(expr: N.Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, N.Const):
        if isinstance(expr.value, float):
            text = repr(expr.value)
            return text
        return str(expr.value)
    if isinstance(expr, N.VarRef):
        return expr.sym.name
    if isinstance(expr, N.AddrOf):
        return f"&{expr.sym.name}"
    if isinstance(expr, N.Mem):
        return f"*({format_expr(expr.addr)})"
    if isinstance(expr, N.BinOp):
        if expr.op in ("min", "max"):
            return (f"{expr.op}({format_expr(expr.left)}, "
                    f"{format_expr(expr.right)})")
        prec = _PRECEDENCE[expr.op]
        left = format_expr(expr.left, prec)
        right = format_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, N.UnOp):
        inner = format_expr(expr.operand, 9)
        return {"neg": "-", "not": "!", "bnot": "~"}[expr.op] + inner
    if isinstance(expr, N.Cast):
        return f"({expr.ctype})({format_expr(expr.operand)})"
    if isinstance(expr, N.CallExpr):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, N.Select):
        return (f"select({format_expr(expr.cond)}, "
                f"{format_expr(expr.then)}, "
                f"{format_expr(expr.otherwise)})")
    if isinstance(expr, N.Section):
        held = " : held" if expr.held else ""
        return (f"[{format_expr(expr.addr)} : n={format_expr(expr.length)}"
                f" : s={expr.stride}{held}]")
    if isinstance(expr, N.Iota):
        held = " : held" if expr.held else ""
        return f"iota({format_expr(expr.start)}{held})"
    raise TypeError(f"unknown expression {expr!r}")


def format_stmt(stmt: N.Stmt, indent: int = 0,
                show_lines: bool = False) -> List[str]:
    """Render one statement.  ``show_lines`` appends ``/* L<n> */``
    source-line annotations (``--print-lines``); the default output is
    byte-identical to the golden transcripts."""
    pad = "    " * indent
    out: List[str] = []
    if isinstance(stmt, N.Assign):
        out.append(f"{pad}{format_expr(stmt.target)} = "
                   f"{format_expr(stmt.value)};")
    elif isinstance(stmt, N.VectorAssign):
        if stmt.mask is not None:
            out.append(f"{pad}{format_expr(stmt.target)} = "
                       f"{format_expr(stmt.value)} "
                       f"where {format_expr(stmt.mask)};"
                       f"   /* masked vector */")
        else:
            out.append(f"{pad}{format_expr(stmt.target)} = "
                       f"{format_expr(stmt.value)};   /* vector */")
    elif isinstance(stmt, N.VectorReduce):
        terms = "".join(f" {op} reduce{op}({format_expr(value)})"
                        for op, value in stmt.terms())
        out.append(f"{pad}{format_expr(stmt.target)} = "
                   f"{format_expr(stmt.target)}{terms};"
                   f"   /* vector reduction */")
    elif isinstance(stmt, N.CallStmt):
        out.append(f"{pad}{format_expr(stmt.call)};")
    elif isinstance(stmt, N.IfStmt):
        out.append(f"{pad}if ({format_expr(stmt.cond)}) {{")
        for s in stmt.then:
            out.extend(format_stmt(s, indent + 1, show_lines))
        if stmt.otherwise:
            out.append(f"{pad}}} else {{")
            for s in stmt.otherwise:
                out.extend(format_stmt(s, indent + 1, show_lines))
        out.append(f"{pad}}}")
    elif isinstance(stmt, N.WhileLoop):
        out.append(f"{pad}while ({format_expr(stmt.cond)}) {{")
        for s in stmt.body:
            out.extend(format_stmt(s, indent + 1, show_lines))
        out.append(f"{pad}}}")
    elif isinstance(stmt, N.DoLoop):
        kind = "do parallel" if stmt.parallel else "do fortran"
        out.append(f"{pad}{kind} {stmt.var.name} = "
                   f"{format_expr(stmt.lo)}, {format_expr(stmt.hi)}, "
                   f"{stmt.step} {{")
        for s in stmt.body:
            out.extend(format_stmt(s, indent + 1, show_lines))
        out.append(f"{pad}}}")
    elif isinstance(stmt, N.ListParallelLoop):
        out.append(f"{pad}do parallel-list {stmt.ptr.name} {{")
        for s in stmt.body:
            out.extend(format_stmt(s, indent + 1, show_lines))
        out.append(f"{pad}}} advance {{")
        for s in stmt.advance:
            out.extend(format_stmt(s, indent + 1, show_lines))
        out.append(f"{pad}}}")
    elif isinstance(stmt, N.Goto):
        out.append(f"{pad}goto {stmt.label};")
    elif isinstance(stmt, N.LabelStmt):
        out.append(f"{stmt.label}:;")
    elif isinstance(stmt, N.Return):
        if stmt.value is None:
            out.append(f"{pad}return;")
        else:
            out.append(f"{pad}return {format_expr(stmt.value)};")
    else:
        raise TypeError(f"unknown statement {stmt!r}")
    if show_lines and stmt.line:
        out[0] += f"   /* L{stmt.line} */"
    return out


def format_function(fn: N.ILFunction, show_lines: bool = False) -> str:
    params = ", ".join(f"{p.ctype} {p.name}" for p in fn.params)
    lines = [f"{fn.ret_type} {fn.name}({params})", "{"]
    for stmt in fn.body:
        lines.extend(format_stmt(stmt, 1, show_lines))
    lines.append("}")
    return "\n".join(lines)


def format_program(program: N.ILProgram,
                   show_lines: bool = False) -> str:
    parts = []
    for g in program.globals:
        parts.append(f"{g.sym.ctype} {g.sym.name};")
    for fn in program.functions.values():
        parts.append(format_function(fn, show_lines))
    return "\n\n".join(parts)
