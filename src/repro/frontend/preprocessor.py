"""A small C preprocessor.

Supports the directives the paper's workloads need: ``#define`` (object-
and function-like macros), ``#undef``, ``#include`` (from an in-memory
header map and/or real include directories), conditional compilation
(``#if``/``#ifdef``/``#ifndef``/``#elif``/``#else``/``#endif`` with
``defined`` and integer constant expressions), and ``#pragma`` (passed
through to the lexer so the parser can see vectorization pragmas).

Macro bodies are expanded textually with rescanning and a per-expansion
hide set, which is enough for the idiomatic C this compiler targets.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class PreprocessorError(Exception):
    pass


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIRECTIVE = re.compile(r"^\s*#\s*(\w+)\s*(.*)$")
#: What can hide a ``/*`` on one line: a string or character literal
#: (closed, or running to the end of the line) or a ``//`` comment.
_COMMENT_OPENER = re.compile(
    r'''"(?:[^"\\]|\\.)*"?|'(?:[^'\\]|\\.)*'?|//|/\*''')


def _ends_in_comment(line: str, inside: bool) -> bool:
    """Whether the line after ``line`` starts inside a block comment,
    given whether ``line`` itself does."""
    if not inside and "/*" not in line:
        return False
    pos = 0
    while True:
        if inside:
            pos = line.find("*/", pos) + 2
            if pos < 2:
                return True
        match = _COMMENT_OPENER.search(line, pos)
        if match is None or match.group() == "//":
            return False
        pos = match.end()
        inside = match.group() == "/*"


@dataclass
class Macro:
    name: str
    body: str
    params: Optional[List[str]] = None  # None = object-like

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


@dataclass
class Preprocessor:
    """Expands one translation unit to plain C text.

    ``headers`` maps include names to source text (a virtual filesystem
    used heavily in tests and for the 'procedure database' workflows);
    ``include_dirs`` are searched for names not found there.
    """

    headers: Dict[str, str] = field(default_factory=dict)
    include_dirs: List[str] = field(default_factory=list)
    defines: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.macros: Dict[str, Macro] = {}
        for name, body in self.defines.items():
            self.macros[name] = Macro(name, body)

    # -- public API ---------------------------------------------------------

    def preprocess(self, source: str, filename: str = "<input>") -> str:
        out: List[str] = []
        self._process(source, filename, out, depth=0)
        return "\n".join(out) + "\n"

    # -- include resolution ---------------------------------------------------

    def _resolve_include(self, name: str) -> str:
        if name in self.headers:
            return self.headers[name]
        for directory in self.include_dirs:
            path = os.path.join(directory, name)
            if os.path.exists(path):
                with open(path) as handle:
                    return handle.read()
        raise PreprocessorError(f"cannot find include file {name!r}")

    # -- main loop -------------------------------------------------------------

    def _process(self, source: str, filename: str, out: List[str],
                 depth: int) -> None:
        if depth > 32:
            raise PreprocessorError("include depth exceeds 32 (cycle?)")
        # Conditional stack: each entry is (taken_now, any_branch_taken).
        cond: List[Tuple[bool, bool]] = []
        in_comment = False
        for line in self._splice_lines(source):
            # Every consumed line leaves one line behind (blank unless
            # it is live text or a pragma), so a line number after
            # preprocessing is the line number in the source.
            out.append("")
            if line is None:
                continue
            match = None if in_comment else _DIRECTIVE.match(line)
            in_comment = _ends_in_comment(line, in_comment)
            active = all(taken for taken, _ in cond)
            if match is None:
                if active:
                    # Without macros expansion is the identity.
                    out[-1] = self._expand(line) if self.macros else line
                continue
            directive, rest = match.group(1), match.group(2).strip()
            if directive == "ifdef":
                taken = active and rest in self.macros
                cond.append((taken, taken))
            elif directive == "ifndef":
                taken = active and rest not in self.macros
                cond.append((taken, taken))
            elif directive == "if":
                taken = active and bool(self._eval_condition(rest))
                cond.append((taken, taken))
            elif directive == "elif":
                if not cond:
                    raise PreprocessorError("#elif without #if")
                _, seen = cond.pop()
                parent_active = all(taken for taken, _ in cond)
                taken = (parent_active and not seen
                         and bool(self._eval_condition(rest)))
                cond.append((taken, seen or taken))
            elif directive == "else":
                if not cond:
                    raise PreprocessorError("#else without #if")
                _, seen = cond.pop()
                parent_active = all(taken for taken, _ in cond)
                cond.append((parent_active and not seen, True))
            elif directive == "endif":
                if not cond:
                    raise PreprocessorError("#endif without #if")
                cond.pop()
            elif not active:
                continue
            elif directive == "define":
                self._define(rest)
            elif directive == "undef":
                self.macros.pop(rest, None)
            elif directive == "include":
                name = rest.strip()
                if name.startswith('"') or name.startswith("<"):
                    name = name[1:-1]
                text = self._resolve_include(name)
                out.pop()
                self._process(text, name, out, depth + 1)
            elif directive == "pragma":
                out[-1] = f"#pragma {rest}"
            elif directive == "error":
                raise PreprocessorError(f"#error: {rest}")
            else:
                raise PreprocessorError(
                    f"unsupported directive #{directive} in {filename}")
        if cond:
            raise PreprocessorError(f"unterminated #if in {filename}")

    @staticmethod
    def _splice_lines(source: str) -> List[Optional[str]]:
        """The source's lines with backslash-continued ones joined onto
        the line they continue; each line joined away leaves a ``None``
        behind it, so the list keeps one entry per physical line."""
        physical = source.split("\n")
        lines: List[Optional[str]] = []
        while len(lines) < len(physical):
            first = len(lines)
            line = physical[first]
            last = first
            while line.endswith("\\") and last + 1 < len(physical):
                last += 1
                line = line[:-1] + physical[last]
            lines.append(line)
            lines.extend([None] * (last - first))
        return lines

    # -- macro definition and expansion ---------------------------------------

    def _define(self, rest: str) -> None:
        match = _IDENT.match(rest)
        if not match:
            raise PreprocessorError(f"malformed #define {rest!r}")
        name = match.group(0)
        after = rest[match.end():]
        if after.startswith("("):
            close = after.index(")")
            params = [p.strip() for p in after[1:close].split(",") if p.strip()]
            body = after[close + 1:].strip()
            self.macros[name] = Macro(name, body, params)
        else:
            self.macros[name] = Macro(name, after.strip())

    def define(self, name: str, body: str = "1") -> None:
        self.macros[name] = Macro(name, body)

    def _expand(self, text: str, hide: frozenset = frozenset()) -> str:
        out: List[str] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch in "\"'":
                # Skip string/char literals verbatim.
                quote = ch
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == quote:
                        j += 1
                        break
                    j += 1
                out.append(text[i:j])
                i = j
                continue
            match = _IDENT.match(text, i)
            if not match:
                out.append(ch)
                i += 1
                continue
            name = match.group(0)
            i = match.end()
            macro = self.macros.get(name)
            if macro is None or name in hide:
                out.append(name)
                continue
            if not macro.is_function_like:
                out.append(self._expand(macro.body, hide | {name}))
                continue
            # Function-like: require an argument list, else leave alone.
            j = i
            while j < n and text[j] in " \t":
                j += 1
            if j >= n or text[j] != "(":
                out.append(name)
                continue
            args, i = self._parse_args(text, j)
            if len(args) != len(macro.params) and not (
                    len(macro.params) == 0 and args == [""]):
                raise PreprocessorError(
                    f"macro {name} expects {len(macro.params)} args, "
                    f"got {len(args)}")
            expanded_args = [self._expand(a.strip(), hide) for a in args]
            body = self._substitute(macro, expanded_args)
            out.append(self._expand(body, hide | {name}))
        return "".join(out)

    @staticmethod
    def _parse_args(text: str, open_paren: int) -> Tuple[List[str], int]:
        depth = 0
        args: List[str] = []
        current: List[str] = []
        i = open_paren
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "(":
                depth += 1
                if depth > 1:
                    current.append(ch)
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current))
                    return args, i + 1
                current.append(ch)
            elif ch == "," and depth == 1:
                args.append("".join(current))
                current = []
            else:
                current.append(ch)
            i += 1
        raise PreprocessorError("unterminated macro argument list")

    @staticmethod
    def _substitute(macro: Macro, args: Sequence[str]) -> str:
        body = macro.body
        out: List[str] = []
        i = 0
        while i < len(body):
            match = _IDENT.match(body, i)
            if match:
                name = match.group(0)
                if name in macro.params:
                    out.append(args[macro.params.index(name)])
                else:
                    out.append(name)
                i = match.end()
            else:
                out.append(body[i])
                i += 1
        return "".join(out)

    # -- #if expression evaluation ----------------------------------------------

    def _eval_condition(self, text: str) -> int:
        # Replace defined(X) / defined X first.
        def repl_defined(match: "re.Match[str]") -> str:
            name = match.group(1) or match.group(2)
            return "1" if name in self.macros else "0"

        text = re.sub(r"defined\s*\(\s*(\w+)\s*\)|defined\s+(\w+)",
                      repl_defined, text)
        text = self._expand(text)
        # Any remaining identifier evaluates to 0, per the C standard.
        text = _IDENT.sub("0", text)
        text = text.replace("&&", " and ").replace("||", " or ")
        text = re.sub(r"!(?!=)", " not ", text)
        if not re.fullmatch(r"[\s0-9+\-*/%<>=()!andortx]*", text):
            raise PreprocessorError(f"bad #if expression {text!r}")
        try:
            return int(bool(eval(text, {"__builtins__": {}}, {})))  # noqa: S307
        except Exception as exc:
            raise PreprocessorError(f"bad #if expression: {exc}") from exc


def preprocess(source: str, filename: str = "<input>",
               headers: Optional[Dict[str, str]] = None,
               include_dirs: Optional[List[str]] = None,
               defines: Optional[Dict[str, str]] = None) -> str:
    """Convenience wrapper used by the driver and tests."""
    pp = Preprocessor(headers=headers or {}, include_dirs=include_dirs or [],
                      defines=defines or {})
    return pp.preprocess(source, filename)
