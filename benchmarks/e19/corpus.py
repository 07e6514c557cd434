"""The benchmark's frozen inputs and its independent references.

Everything the workloads send is derived from the files under
``corpus/`` — generated programs, kernel templates with ``{n}`` (array
length) and ``{s}`` (data seed) holes, and malformed-variant recipes —
so a later change to ``repro.fuzz.generator`` or ``repro.workloads``
cannot change the traffic.  ``MANIFEST.json`` pins a sha256 per file;
:func:`load_corpus` refuses a tree that does not match it.

The expected answers never come from the compiler under test:

* each kernel template has a pure-Python reference below.  The data is
  integer valued and every sum stays below 2**24, so float32 holds
  every intermediate exactly and no reduction order can change it;
* each generated program carries the checksum the tree engine returned
  at ``O0`` when the corpus was frozen (``make_corpus.py``);
* each malformed recipe pins the error ``phase``/``kind``/``type``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
MANIFEST = "MANIFEST.json"
MANIFEST_SCHEMA = "e19-corpus/1"

#: float32 represents every integer of magnitude below this exactly.
EXACT_LIMIT = 1 << 24


class CorpusError(Exception):
    """The corpus on disk is not the corpus the manifest describes."""


@dataclass(frozen=True)
class Program:
    """A frozen generated program and the value its ``main`` returns."""

    name: str
    source: str
    expected: int


@dataclass(frozen=True)
class Recipe:
    """One way to break a generated program: replace the first or last
    occurrence of ``find``; the service must answer with ``error``."""

    name: str
    find: str
    replace: str
    which: str
    error: Dict[str, str]

    def apply(self, source: str) -> str:
        at = source.index(self.find) if self.which == "first" \
            else source.rindex(self.find)
        return source[:at] + self.replace + source[at + len(self.find):]


@dataclass(frozen=True)
class Corpus:
    generated: List[Program]
    kernels: Dict[str, str]
    recipes: List[Recipe]


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def corpus_files() -> List[str]:
    """Every corpus file but the manifest, as sorted relative paths."""
    found = []
    for root, _dirs, names in os.walk(CORPUS_DIR):
        for name in names:
            rel = os.path.relpath(os.path.join(root, name), CORPUS_DIR)
            if rel != MANIFEST:
                found.append(rel.replace(os.sep, "/"))
    return sorted(found)


def _read(rel: str) -> str:
    with open(os.path.join(CORPUS_DIR, rel), encoding="utf-8") as handle:
        return handle.read()


def load_corpus() -> Corpus:
    """Read the corpus, checking every file against the manifest."""
    try:
        manifest = json.loads(_read(MANIFEST))
    except (OSError, ValueError) as exc:
        raise CorpusError(f"cannot read {MANIFEST}: {exc}") from None
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise CorpusError(f"{MANIFEST} is not {MANIFEST_SCHEMA}")
    pinned = manifest["files"]
    on_disk = corpus_files()
    if on_disk != sorted(pinned):
        odd = sorted(set(on_disk) ^ set(pinned))
        raise CorpusError(f"corpus files differ from manifest: {odd}")
    for rel in on_disk:
        if sha256_file(os.path.join(CORPUS_DIR, rel)) != pinned[rel]:
            raise CorpusError(f"sha256 mismatch: corpus/{rel}")
    generated = [Program(entry["file"], _read(entry["file"]),
                         entry["expected"])
                 for entry in manifest["generated"]]
    kernels = {name: _read(f"kernels/{name}.c") for name in REFERENCES}
    recipes = [Recipe(**entry)
               for entry in json.loads(_read("malformed.json"))]
    return Corpus(generated, kernels, recipes)


def render(template: str, n: int, s: int) -> str:
    return template.replace("{n}", str(n)).replace("{s}", str(s))


# -- pure-Python references, one per kernel template ---------------------


def _total(values) -> int:
    """``(int) s`` after ``s = s + v`` over ``values``: exact as long
    as every partial sum is a float32-exact integer."""
    total = 0
    for value in values:
        total += value
        if abs(total) >= EXACT_LIMIT:
            raise ValueError("reference left the float32-exact range")
    return total


def _ref_daxpy(n: int, s: int) -> int:
    return _total(((i + s) & 7) + 2 * ((i + 3) & 3) for i in range(n))


def _ref_backsolve(n: int, s: int) -> int:
    x = [0] * n
    x[0] = 1
    for i in range(n - 2):
        x[i + 1] = (1 - 2 * (i & 1)) * (((i + s) & 3) - x[i])
    return _total(x)


def _ref_prefix(n: int, s: int) -> int:
    acc = [0] * n
    acc[0] = 3
    for i in range(1, n):
        acc[i] = acc[i - 1] * (1 - (((i + s) & 4) >> 1))
    return _total(acc)


def _ref_smooth_inplace(n: int, s: int) -> int:
    buf = [2 * ((i + s) & 7) for i in range(n)]
    for i in range(n - 1):
        buf[i] = buf[i] // 2 + buf[i + 1] // 2
    return _total(buf)


def _ref_listwalk(n: int, s: int) -> int:
    return _total((i + s) & 7 for i in range(n))


def _ref_transform(n: int, s: int) -> int:
    mat = [(i + s) & 3 for i in range(16)]
    total = []
    for i in range(n):
        point = (i & 3, (i + 1) & 3, (i + 2) & 1, 1)
        total.append(sum(mat[4 * row + col] * point[col]
                         for row in range(4) for col in range(4)))
    return _total(total)


def _ref_sscal(n: int, s: int) -> int:
    return _total(3 * ((i + s) & 15) for i in range(n))


def _ref_vadd(n: int, s: int) -> int:
    return _total(((i + s) & 7) + ((i + 5) & 3) for i in range(n))


def _ref_smooth(n: int, s: int) -> int:
    src = [4 * ((i + s) & 7) for i in range(n)]
    return _total(src[i - 1] // 4 + src[i] // 2 + src[i + 1] // 4
                  for i in range(1, n - 1))


def _ref_guarded_diff(n: int, s: int) -> int:
    gin = [((i + s) & 7) * (i & 3) for i in range(n)]
    return _total([1] + [2 * (gin[i] - gin[i - 1])
                         for i in range(1, n)])


def _ref_clamp(n: int, s: int) -> int:
    return _total(min(max((i + s) & 15, 3), 11) for i in range(n))


def _ref_sdot(n: int, s: int) -> int:
    return _total(((i + s) & 7) * ((i + 1) & 3) for i in range(n))


#: kernel template name -> ``reference(n, s)``, the value ``main``
#: must return for the template rendered at ``{n}``/``{s}``.
REFERENCES: Dict[str, Callable[[int, int], int]] = {
    "daxpy": _ref_daxpy,
    "backsolve": _ref_backsolve,
    "prefix": _ref_prefix,
    "smooth_inplace": _ref_smooth_inplace,
    "listwalk": _ref_listwalk,
    "transform": _ref_transform,
    "sscal": _ref_sscal,
    "vadd": _ref_vadd,
    "smooth": _ref_smooth,
    "guarded_diff": _ref_guarded_diff,
    "clamp": _ref_clamp,
    "sdot": _ref_sdot,
}


@functools.lru_cache(maxsize=64)
def expected_result(kernel: str, n: int, s: int) -> int:
    """The reference answer; cached because one source is sent at
    several option points."""
    return REFERENCES[kernel](n, s)
