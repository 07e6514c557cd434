"""Deterministic random generator of well-defined C programs.

Every program this module emits is *semantically closed*: it allocates
and initializes its own data, touches no external state, terminates,
and folds everything it computed into a checksum returned from
``main``.  Two executions that disagree on the return value therefore
witness a genuine semantic divergence — the property the differential
harness (:mod:`repro.fuzz.harness`) is built on.

Well-definedness is by construction, not by filtering:

* integer arithmetic wraps: the oracle interpreter wraps every
  operation to the C type (two's complement), so overflow is defined
  and identical at every optimization level;
* ``float`` arithmetic stays on integer values below 2**24 (E19's
  ``EXACT_LIMIT`` discipline): the float array ``F`` holds small
  integers, float terms are ``F`` elements times small constants, and
  accumulations run a bounded number of trips, so every float sum is
  exact and the checksum's conversions to ``int`` are in range;
* division and modulo only ever see non-zero divisors (either a
  non-zero constant, or ``(expr & k) + 1``);
* array subscripts are affine in the loop variable and the loop bounds
  are shrunk so every used form stays in range (the same discipline as
  the hypothesis property tests);
* ``while``/``do-while`` loops count down a dedicated counter that is
  decremented before any ``continue`` can skip the rest of the body;
* pointer walks start at an array base and take at most one step per
  loop iteration, bounded by the array length.

The generator exercises exactly the constructs the compiler claims to
transform: counted ``for`` loops (while→DO conversion, vectorization),
guarded loop-body branches (if-conversion into masked/select vector
statements), accumulations over int and float lanes in the shapes the
vectorizer reduces (``s = s + E``, chains of ``+`` and ``-``,
``s = s - E``, and the conditional min/max ``if (E > m) m = E;`` or
``m = E > m ? E : m;``), loops whose trips straddle the vector length
over the long arrays ``V``/``W``/``X`` (index-valued stores, re-reads
of a just-stored section, a statement reading one section twice: what
the vector register file holds),
``while``/``do-while`` with ``break``/``continue``
(flow-graph paths),
``?:``/``&&``/``||`` with side effects (the paper's section 4
rewrites), pointer-bump loops (IV substitution, strength reduction),
global scalars held in registers across loops or, their address taken
and stored through, kept in memory, and small helper functions (the
inliner).

Everything is driven by one ``random.Random(seed)`` — the same seed
always yields byte-identical source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class GeneratorOptions:
    """Size knobs; the defaults keep one program's differential run
    in the low hundreds of milliseconds."""

    min_blocks: int = 2
    max_blocks: int = 5
    max_helpers: int = 2
    array_lengths: Tuple[int, ...] = (8, 12, 16, 24)
    max_expr_depth: int = 3


@dataclass
class GeneratedProgram:
    seed: int
    source: str
    arrays: Dict[str, int] = field(default_factory=dict)
    scalars: List[str] = field(default_factory=list)


ARRAYS = ["A", "B", "C"]
GLOBAL_SCALARS = ["g0", "g1", "g2"]
LOCAL_SCALARS = ["t0", "t1"]
#: The float array, and the accumulators only accumulation blocks
#: touch — sums ``r0``/``f0`` and min/max ``r1``/``f1`` — with their
#: initial values.
FLOAT_ARRAY = "F"
#: Arrays of :data:`LONG_LENGTH` elements, declared (and folded into
#: the checksum) only by programs with a register-file block.
LONG_ARRAYS = ["V", "W", "X"]
LONG_LENGTH = 100
ACCUMULATORS = {"r0": ("int", "0"), "r1": ("int", "0"),
                "f0": ("float", "0.0f"), "f1": ("float", "0.0f")}

# Affine subscript forms of the for-loop variable, with the bound
# shrink each form needs to stay inside [0, size).
_SUB_FORMS = ["i", "i + 1", "i - 1", "2 * i", "const"]


class ProgramGenerator:
    def __init__(self, seed: int,
                 options: Optional[GeneratorOptions] = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.opts = options or GeneratorOptions()
        self.size = self.rng.choice(self.opts.array_lengths)
        self.n_helpers = self.rng.randint(0, self.opts.max_helpers)
        self.long_arrays = False

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _const(self) -> str:
        return str(self.rng.randint(-9, 9))

    def _atom(self, loopvar: Optional[str], forms: List[str]) -> str:
        choices = ["const", "scalar"]
        if loopvar is not None:
            choices += ["loopvar", "array", "array"]
        choice = self.rng.choice(choices)
        if choice == "const":
            return self._const()
        if choice == "scalar":
            return self.rng.choice(GLOBAL_SCALARS + LOCAL_SCALARS)
        if choice == "loopvar":
            return loopvar
        return self._array_read(forms)

    def _array_read(self, forms: List[str]) -> str:
        sub = self._subscript(forms)
        return f"{self.rng.choice(ARRAYS)}[{sub}]"

    def _subscript(self, forms: List[str]) -> str:
        form = self.rng.choice(_SUB_FORMS)
        if form == "const":
            forms.append("const")
            return str(self.rng.randint(0, self.size - 1))
        forms.append(form)
        return form

    def _expr(self, depth: int, loopvar: Optional[str],
              forms: List[str], calls_ok: bool = True) -> str:
        if depth >= self.opts.max_expr_depth or self.rng.random() < 0.4:
            return self._atom(loopvar, forms)
        kind = self.rng.randint(0, 9)
        if kind <= 4:  # plain binop
            op = self.rng.choice(["+", "-", "*", "&", "|", "^"])
            left = self._expr(depth + 1, loopvar, forms, calls_ok)
            right = self._expr(depth + 1, loopvar, forms, calls_ok)
            return f"({left} {op} {right})"
        if kind == 5:  # shift by a small constant
            left = self._expr(depth + 1, loopvar, forms, calls_ok)
            op = self.rng.choice(["<<", ">>"])
            return f"({left} {op} {self.rng.randint(0, 3)})"
        if kind == 6:  # division/modulo by a provably non-zero divisor
            left = self._expr(depth + 1, loopvar, forms, calls_ok)
            op = self.rng.choice(["/", "%"])
            if self.rng.random() < 0.5:
                divisor = str(self.rng.choice([2, 3, 4, 5, 7, 8]))
            else:
                inner = self._expr(depth + 1, loopvar, forms, calls_ok)
                divisor = f"(({inner} & 7) + 1)"
            return f"({left} {op} {divisor})"
        if kind == 7:  # comparison (0/1-valued)
            left = self._expr(depth + 1, loopvar, forms, calls_ok)
            right = self._expr(depth + 1, loopvar, forms, calls_ok)
            op = self.rng.choice(["<", ">", "<=", ">=", "==", "!="])
            return f"({left} {op} {right})"
        if kind == 8 and calls_ok and self.n_helpers:
            fn = f"h{self.rng.randint(0, self.n_helpers - 1)}"
            a = self._expr(depth + 1, loopvar, forms, calls_ok=False)
            b = self._expr(depth + 1, loopvar, forms, calls_ok=False)
            return f"{fn}({a}, {b})"
        cond = self._expr(depth + 1, loopvar, forms, calls_ok)
        left = self._expr(depth + 1, loopvar, forms, calls_ok)
        right = self._expr(depth + 1, loopvar, forms, calls_ok)
        return f"(({cond}) ? ({left}) : ({right}))"

    # ------------------------------------------------------------------
    # Helper functions (inliner fodder)
    # ------------------------------------------------------------------

    def _helper(self, index: int) -> str:
        body_forms: List[str] = []
        if self.rng.random() < 0.5:
            expr = self._expr(1, None, body_forms, calls_ok=False)
            expr = expr.replace("t0", "x").replace("t1", "y") \
                       .replace("g0", "x").replace("g1", "y") \
                       .replace("g2", "x")
            return (f"int h{index}(int x, int y)\n"
                    f"{{\n    return {expr};\n}}")
        op = self.rng.choice(["+", "-", "*", "^"])
        k = self.rng.randint(1, 5)
        return (f"int h{index}(int x, int y)\n"
                "{\n"
                "    if (x > y)\n"
                f"        return (x {op} y) + {k};\n"
                f"    return y - x + {k};\n"
                "}")

    # ------------------------------------------------------------------
    # Statement blocks
    # ------------------------------------------------------------------

    def _for_block(self) -> str:
        forms: List[str] = []
        lines: List[str] = []
        n_stmts = self.rng.randint(1, 3)
        use_temp = self.rng.random() < 0.4
        if use_temp:
            lines.append(f"t0 = {self._expr(0, 'i', forms)};")
        for _ in range(n_stmts):
            target = self.rng.choice(ARRAYS)
            sub = self._subscript(forms)
            value = self._expr(0, "i", forms)
            if use_temp and self.rng.random() < 0.5:
                value = f"(t0 + {value})"
            lines.append(f"{target}[{sub}] = {value};")
        if self.rng.random() < 0.4:  # reduction
            lines.append(f"g0 = g0 + {self._array_read(forms)};")
        if self.rng.random() < 0.3:  # guarded early exit / skip
            # `(expr & 7) == k` fires on a real fraction of iterations,
            # so the break/continue path is executed, not just compiled.
            guard = self._expr(1, "i", forms)
            jump = self.rng.choice(["break", "continue"])
            k = self.rng.randint(0, 7)
            lines.insert(self.rng.randint(0, len(lines)),
                         f"if ((({guard}) & 7) == {k}) {jump};")
        lo, hi = self._bounds(forms)
        body = "\n".join(f"        {line}" for line in lines)
        return (f"    for (i = {lo}; i < {hi}; i++) {{\n"
                f"{body}\n    }}")

    def _guarded_for_block(self) -> str:
        """A counted loop whose body is an if (or if/else) over array
        assigns with a side-effect-free guard — the branchy shape the
        if-conversion pass predicates into select merges (and, when an
        arm calls a helper, its reject paths)."""
        forms: List[str] = []
        target = self.rng.choice(ARRAYS)
        sub = self._subscript(forms)
        left = self._expr(1, "i", forms, calls_ok=False)
        right = self._expr(1, "i", forms, calls_ok=False)
        op = self.rng.choice(["<", ">", "<=", ">=", "==", "!="])
        cond = f"({left}) {op} ({right})"
        then_v = self._expr(0, "i", forms)
        lines: List[str] = []
        if self.rng.random() < 0.6:
            # if/else storing to the same element: pairwise-mergeable.
            else_v = self._expr(0, "i", forms)
            lines += [f"if ({cond})",
                      f"    {target}[{sub}] = {then_v};",
                      "else",
                      f"    {target}[{sub}] = {else_v};"]
        else:
            lines += [f"if ({cond})",
                      f"    {target}[{sub}] = {then_v};"]
        if self.rng.random() < 0.4:  # trailing unguarded statement
            other = self.rng.choice(ARRAYS)
            sub2 = self._subscript(forms)
            value = self._expr(0, "i", forms)
            lines.append(f"{other}[{sub2}] = {value};")
        lo, hi = self._bounds(forms)
        body = "\n".join(f"        {line}" for line in lines)
        return (f"    for (i = {lo}; i < {hi}; i++) {{\n"
                f"{body}\n    }}")

    def _float_term(self, forms: List[str]) -> str:
        """A float lane: an ``F`` element, maybe scaled by a small
        constant or multiplied by another — at most 64 in magnitude."""
        read = f"{FLOAT_ARRAY}[{self._subscript(forms)}]"
        kind = self.rng.randint(0, 3)
        if kind == 1:
            return f"{read} * {self.rng.randint(-3, 3)}.0f"
        if kind == 2:
            return f"{read} * {FLOAT_ARRAY}[{self._subscript(forms)}]"
        return read

    def _accumulation_block(self) -> str:
        """A counted loop accumulating int or float lanes into an
        accumulator nothing else reads, in one of the shapes the
        vectorizer reduces: ``s = s + E``, a chain ``s = s ± E ± …``,
        ``s = s - E``, or the conditional min/max ``if (E > m) m =
        E;`` (either compare, either operand order) — sometimes beside
        a store, so a reduction and a vector store share the loop."""
        forms: List[str] = []
        floats = self.rng.random() < 0.5

        def term() -> str:
            if floats:
                return self._float_term(forms)
            return self._expr(1, "i", forms, calls_ok=False)

        shape = self.rng.choice(["plain", "chain", "subtract", "minmax"])
        if shape == "minmax":
            acc = "f1" if floats else "r1"
            value = term()
            rel = self.rng.choice([">", "<"])
            cond = f"{value} {rel} {acc}" if self.rng.random() < 0.5 \
                else f"{acc} {'<' if rel == '>' else '>'} {value}"
            lines = [f"if ({cond}) {acc} = {value};"
                     if self.rng.random() < 0.5
                     else f"{acc} = {cond} ? {value} : {acc};"]
        else:
            acc = "f0" if floats else "r0"
            if shape == "plain":
                value = f"{acc} + {term()}"
            elif shape == "subtract":
                value = f"{acc} - {term()}"
            else:
                value = acc + "".join(
                    f" {self.rng.choice('+-')} {term()}"
                    for _ in range(self.rng.randint(2, 4)))
            lines = [f"{acc} = {value};"]
        if self.rng.random() < 0.3:
            target = self.rng.choice(ARRAYS)
            store = f"{target}[{self._subscript(forms)}] = " \
                    f"{self._expr(0, 'i', forms, calls_ok=False)};"
            lines.insert(self.rng.randint(0, 1), store)
        lo, hi = self._bounds(forms)
        body = "\n".join(f"        {line}" for line in lines)
        return (f"    for (i = {lo}; i < {hi}; i++) {{\n"
                f"{body}\n    }}")

    def _register_block(self) -> str:
        """A counted loop over the long arrays whose trip straddles the
        vector length (33 or 100): several statements store
        index-valued data (each lane's index computed again), later
        ones read a section just stored, and one reads a section twice
        (a product of it with itself, or a select over two arrays and
        their differences)."""
        self.long_arrays = True
        trip = self.rng.choice([33, LONG_LENGTH])
        names = self.rng.sample(LONG_ARRAYS, 3)
        lines = []
        for target in names[:self.rng.randint(1, 2)]:
            lines.append(f"{target}[i] = {self.rng.randint(1, 9)} * i "
                         f"% {self.rng.randint(5, 13)} - "
                         f"{self.rng.randint(0, 6)};")
        stored = [line.split("[", 1)[0] for line in lines]
        x = self.rng.choice(stored)
        y = self.rng.choice([name for name in LONG_ARRAYS if name != x])
        if self.rng.random() < 0.5:
            value = f"{x}[i] * {x}[i] - i"
        else:
            value = f"{x}[i] < {y}[i] ? {y}[i] - {x}[i] : {x}[i] - {y}[i]"
        target = self.rng.choice([name for name in LONG_ARRAYS
                                  if name not in stored] or names)
        lines.append(f"{target}[i] = {value};")
        body = "\n".join(f"        {line}" for line in lines)
        return (f"    for (i = 0; i < {trip}; i++) {{\n"
                f"{body}\n    }}")

    def _global_block(self) -> str:
        """A counted loop over a global scalar: either its address
        taken (``p = &gK``) and stored through ``p`` in a loop that
        also reads it — a global no register may hold — or read only
        in an if-converted guard, whose store mask then reads it."""
        forms: List[str] = []
        name = self.rng.choice(GLOBAL_SCALARS)
        target = self.rng.choice(ARRAYS)
        sub = self._subscript(forms)
        value = self._expr(1, "i", forms, calls_ok=False)
        if self.rng.random() < 0.5:
            prelude = [f"p = &{name};"]
            lines = [f"{target}[{sub}] = {value} + {name};",
                     f"*p = *p + {self._array_read(forms)};"]
            if self.rng.random() < 0.5:
                lines.reverse()
        else:
            prelude = []
            op = self.rng.choice(["<", ">", "==", "!="])
            lines = [f"if ({self._array_read(forms)} {op} {name})",
                     f"    {target}[{sub}] = {value};"]
        lo, hi = self._bounds(forms)
        body = "\n".join(f"        {line}" for line in lines)
        return "".join(f"    {line}\n" for line in prelude) + (
            f"    for (i = {lo}; i < {hi}; i++) {{\n{body}\n    }}")

    def _bounds(self, forms: List[str]) -> Tuple[int, int]:
        lo, hi = 0, self.size
        for form in forms:
            if form == "i + 1":
                hi = min(hi, self.size - 1)
            elif form == "i - 1":
                lo = max(lo, 1)
            elif form == "2 * i":
                hi = min(hi, self.size // 2)
        if lo >= hi:
            lo, hi = 0, 1
        return lo, hi

    def _while_block(self) -> str:
        """A counted while loop: scalar accumulation or pointer walk.
        The counter is decremented first, so a later ``continue``
        cannot make the loop spin forever."""
        count = self.rng.randint(1, self.size)
        forms: List[str] = []
        if self.rng.random() < 0.5:
            src = self.rng.choice(ARRAYS)
            dst = self.rng.choice([a for a in ARRAYS if a != src])
            k = self._const()
            lines = [f"p = {dst}; q = {src}; n = {count};",
                     "while (n > 0) {",
                     "    n = n - 1;",
                     f"    *p++ = *q++ + {k};",
                     "}"]
        else:
            lines = [f"n = {count};",
                     "while (n > 0) {",
                     "    n = n - 1;"]
            if self.rng.random() < 0.4:
                guard = self._expr(1, None, forms)
                k = self.rng.randint(0, 7)
                lines.append(
                    f"    if ((({guard}) & 7) == {k}) continue;")
            target = self.rng.choice(GLOBAL_SCALARS + ["t1"])
            lines.append(
                f"    {target} = {target} + {self._expr(1, None, forms)};")
            if self.rng.random() < 0.3:
                guard = self._expr(1, None, forms)
                k = self.rng.randint(0, 7)
                lines.append(f"    if ((({guard}) & 7) == {k}) break;")
            lines.append("}")
        return "\n".join(f"    {line}" for line in lines)

    def _do_while_block(self) -> str:
        count = self.rng.randint(1, self.size)
        forms: List[str] = []
        target = self.rng.choice(GLOBAL_SCALARS)
        value = self._expr(1, None, forms)
        return "\n".join(f"    {line}" for line in [
            f"n = {count};",
            "do {",
            "    n = n - 1;",
            f"    {target} = ({target} ^ {value}) + n;",
            "} while (n > 0);",
        ])

    def _scalar_block(self) -> str:
        """Side effects inside ``?:`` / ``&&`` / ``||`` operands — the
        section 4 constructs the front end rewrites to statements."""
        forms: List[str] = []
        kind = self.rng.randint(0, 3)
        a, b = self.rng.sample(GLOBAL_SCALARS, 2)
        k = self.rng.randint(1, 6)
        if kind == 0:
            cond = self._expr(1, None, forms)
            return (f"    t0 = ({cond}) > 0 ? ({a} += {k}) "
                    f": ({b} -= {k});")
        if kind == 1:
            return (f"    t1 = (({a} > {self._const()}) && "
                    f"(({b} += {k}) != 0)) ? {a} : {b};")
        if kind == 2:
            return (f"    t0 = (({a}++ > {self._const()}) || "
                    f"(({b} -= {k}) > 0));")
        target = self.rng.choice(GLOBAL_SCALARS + LOCAL_SCALARS)
        op = self.rng.choice(["=", "+=", "-=", "^="])
        return f"    {target} {op} {self._expr(0, None, forms)};"

    def _if_block(self) -> str:
        forms: List[str] = []
        cond = self._expr(1, None, forms)
        inner = self._scalar_block()
        if self.rng.random() < 0.4:
            other = self._scalar_block()
            return (f"    if (({cond}) > 0) {{\n    {inner}\n"
                    f"    }} else {{\n    {other}\n    }}")
        return f"    if (({cond}) > 0) {{\n    {inner}\n    }}"

    def _call_block(self) -> str:
        fn = f"h{self.rng.randint(0, self.n_helpers - 1)}"
        forms: List[str] = []
        target = self.rng.choice(GLOBAL_SCALARS + LOCAL_SCALARS)
        a = self._expr(1, None, forms, calls_ok=False)
        b = self._expr(1, None, forms, calls_ok=False)
        return f"    {target} = {target} + {fn}({a}, {b});"

    # ------------------------------------------------------------------
    # Whole programs
    # ------------------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        size = self.size
        helpers = [self._helper(i) for i in range(self.n_helpers)]
        block_makers = [self._for_block, self._for_block,
                        self._guarded_for_block,
                        self._accumulation_block,
                        self._register_block,
                        self._global_block,
                        self._while_block, self._do_while_block,
                        self._scalar_block, self._if_block]
        if self.n_helpers:
            block_makers.append(self._call_block)
        n_blocks = self.rng.randint(self.opts.min_blocks,
                                    self.opts.max_blocks)
        blocks = [self.rng.choice(block_makers)()
                  for _ in range(n_blocks)]

        g_inits = [self.rng.randint(-4, 9) for _ in GLOBAL_SCALARS]
        decls = "\n".join(
            [f"int {name}[{size}];" for name in ARRAYS]
            + [f"float {FLOAT_ARRAY}[{size}];"]
            + [f"int {name} = {value};"
               for name, value in zip(GLOBAL_SCALARS, g_inits)]
            + [f"{ctype} {name} = {value};"
               for name, (ctype, value) in ACCUMULATORS.items()]
            + [f"int {name}[{LONG_LENGTH}];" for name in LONG_ARRAYS
               if self.long_arrays])
        init = (
            "    for (i = 0; i < %d; i++) {\n"
            "        A[i] = (i * 7) %% 13 - 6;\n"
            "        B[i] = (i * 5) %% 11 - 3;\n"
            "        C[i] = i - %d;\n"
            "        F[i] = (i * 3) %% 17 - 8;\n"
            "    }" % (size, size // 2))
        checksum = [
            "    chk = 0;",
            f"    for (i = 0; i < {size}; i++)",
            "        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;",
            "    chk = chk * 31 + g0;",
            "    chk = chk * 31 + g1;",
            "    chk = chk * 31 + g2;",
            "    chk = chk * 31 + t0 + t1;",
            "    chk = chk * 31 + r0 + r1 * 3;",
            "    chk = chk * 31 + (int) f0 + (int) f1 * 3;",
        ]
        if self.long_arrays:
            checksum += [
                f"    for (i = 0; i < {LONG_LENGTH}; i++)",
                "        chk = chk * 31 + V[i] + W[i] * 3 + X[i] * 7;"]
        checksum.append("    return chk;")
        body = "\n".join(blocks)
        source = "\n".join(
            [decls, ""]
            + ([s for h in helpers for s in (h, "")])
            + ["int main(void)",
               "{",
               "    int i, n, chk;",
               "    int t0, t1;",
               "    int *p, *q;",
               "    t0 = 0; t1 = 0; n = 0;",
               init,
               body]
            + checksum
            + ["}", ""])
        return GeneratedProgram(
            seed=self.seed, source=source,
            arrays={name: size for name in ARRAYS},
            scalars=list(GLOBAL_SCALARS))


def generate_program(seed: int,
                     options: Optional[GeneratorOptions] = None
                     ) -> GeneratedProgram:
    """The one-call entry: seed in, deterministic program out."""
    return ProgramGenerator(seed, options).generate()
