"""The four service-path workloads.

Each is a closed loop of one client against one in-process
``CompileService(workers=0)``: the next request is sent when the
previous answer is back.  Work comes in *passes*.  Every pass of a
workload holds the same multiset of work — the seed draws the order,
the array lengths inside a narrow band, the data seeds, the edit texts
and the option pairings, none of which moves a request's cost by more
than a few percent — so throughput and latency percentiles do not
depend on how many passes fit in the measured time, and two seeds
measure the same thing on different bytes.

Requests never set ``engine``: they take the service default, so a
later change of default tier is measured as users get it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from corpus import Corpus, expected_result, render

from repro.service import CompileService

#: The E-series benchmarks' unoptimized option point.
O0 = {"inline": False, "scalar_opt": False, "vectorize": False,
      "reg_pipeline": False, "strength_reduction": False}


@dataclass
class Item:
    """One request and the answer the references say it must get."""

    request: dict
    #: Requests of one cell cost the same: same program or kernel,
    #: same options, same path through the caches.
    cell: str
    #: Expected envelope ``(cache.catalog, cache.artifact)``.
    cache: Tuple[Optional[str], Optional[str]]
    #: Expected ``main`` result when the request simulates.
    result: Optional[int] = None
    #: Expected error fields when the request is malformed.
    error: Optional[Dict[str, str]] = None


def mismatch(item: Item, response: dict) -> Optional[str]:
    """Why ``response`` is not the expected answer (None if it is)."""
    got = (response["cache"]["catalog"], response["cache"]["artifact"])
    if got != item.cache:
        return f"cache {got}, expected {item.cache}"
    if item.error is not None:
        if response["status"] != "error":
            return "accepted a malformed program"
        seen = {key: response["error"][key] for key in item.error}
        return None if seen == item.error \
            else f"error {seen}, expected {item.error}"
    if response["status"] != "ok":
        return f"error {response['error']}"
    run = response["payload"]["run"]
    if item.result is not None and \
            (run is None or run["result"] != item.result):
        return f"main returned {run and run['result']}, " \
               f"reference says {item.result}"
    return None


class Workload:
    """Set-up, pass generation and answer checking of one workload."""

    name = ""
    why = ""
    #: Wall seconds one *traced* pass took when the sizes were chosen;
    #: the traced run does ``seconds / traced_pass_s`` passes — a fixed
    #: amount of work, so its counts repeat exactly.
    traced_pass_s = 1.0

    def __init__(self, corpus: Corpus, seed: int, quick: bool = False):
        self.corpus = corpus
        self.seed = seed
        self.quick = quick
        self.rng = random.Random(f"e19:{self.name}:{seed}")
        self.service: Optional[CompileService] = None
        #: Requests set-up sent to ``service`` (the traced replay
        #: needs the same cache state).
        self.setup_requests: List[dict] = []
        #: Simulated cycles of the workload's fixed probe set.
        self.cycles: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self._serial = 0
        #: Sources already sent, and kernel sizes already drawn.
        self._sent: set = set()
        self._drawn: set = set()

    # -- protocol --------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def next_pass(self) -> List[Item]:
        raise NotImplementedError

    def verify(self) -> None:
        """Untimed checks after the measured loop."""

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def check(self, item: Item, response: dict) -> bool:
        self.attempted += 1
        why = mismatch(item, response)
        if why is not None:
            self.failures.append(f"{item.request['id']}: {why}")
        return why is None

    # -- helpers ---------------------------------------------------------

    def _next_id(self, label: str) -> str:
        self._serial += 1
        return f"{self.name}/{self._serial}/{label}"

    def _request(self, label: str, source: str, filename: str,
                 **fields) -> dict:
        return {"id": self._next_id(label), "source": source,
                "filename": filename, **fields}

    def _catalog_state(self, source: str) -> str:
        """Expected level-A outcome on an unbounded catalog."""
        if source in self._sent:
            return "hit"
        self._sent.add(source)
        return "miss"

    def _submit_setup(self, item: Item, probe: bool = False) -> None:
        response = self.service.submit(item.request)
        self.setup_requests.append(item.request)
        if self.check(item, response) and probe:
            self.cycles.append(response["payload"]["run"]["cycles"])

    def _kernel_item(self, kernel: str, n: int, s: int, cell: str,
                     options: dict) -> Item:
        source = render(self.corpus.kernels[kernel], n, s)
        request = self._request(cell, source, f"{kernel}.c",
                                options=options, run="main")
        return Item(request, cell, (self._catalog_state(source), "miss"),
                    result=expected_result(kernel, n, s))

    def _fresh_size(self, kernel: str, base_n: int) -> Tuple[int, int]:
        """Draw an unused ``(n, s)`` for ``kernel``: a repeat would be
        an artifact hit and skip the work being measured."""
        while True:
            n = base_n + self.rng.randrange(max(1, base_n // 16))
            s = self.rng.randrange(13)
            if (kernel, n, s) not in self._drawn:
                self._drawn.add((kernel, n, s))
                return n, s


class CompileCold(Workload):
    name = "compile_cold"
    why = ("every request a distinct source on a fresh service: both "
           "cache levels miss and write; scalar-optimization rounds "
           "dominate, engines idle")
    traced_pass_s = 9.0

    def __init__(self, corpus, seed, quick=False):
        super().__init__(corpus, seed, quick)
        generated = corpus.generated[:4] if quick else corpus.generated
        kernels = list(corpus.kernels)[:2] if quick \
            else list(corpus.kernels)
        #: (name, source, expected main result)
        self.pool = [(p.name, p.source, p.expected) for p in generated]
        self.pool += [(f"{k}.c", render(corpus.kernels[k], 256, 1),
                       expected_result(k, 256, 1)) for k in kernels]
        self._listings: Dict[str, str] = {}

    def setup(self) -> None:
        # Lazy imports and first-call tables only; every timed pass
        # gets a service of its own.
        with CompileService(workers=0) as scratch:
            for name, source, _ in self.pool[::8]:
                scratch.submit({"source": source, "filename": name})

    def next_pass(self) -> List[Item]:
        self.close()
        self.service = CompileService(workers=0)
        items = [Item(self._request(name, source, name), name,
                      ("miss", "miss"))
                 for name, source, _ in self.pool]
        self.rng.shuffle(items)
        return items

    def check(self, item: Item, response: dict) -> bool:
        ok = super().check(item, response)
        if ok:
            # The compiler is deterministic: every pass, and the
            # verification pass that runs the code, must emit the
            # same listing for the same program.
            name = item.request["filename"]
            listing = response["payload"]["listing"]
            if self._listings.setdefault(name, listing) != listing:
                self.failures.append(f"{name}: listing changed")
                ok = False
        return ok

    def verify(self) -> None:
        """Run what was compiled: one untimed ``run: main`` per pool
        program, against the references."""
        self.close()
        self.service = CompileService(workers=0)
        for name, source, expected in self.pool:
            item = Item(self._request(f"verify-{name}", source, name,
                                      run="main"),
                        name, ("miss", "miss"), result=expected)
            response = self.service.submit(item.request)
            if self.check(item, response):
                self.cycles.append(response["payload"]["run"]["cycles"])


class EditReplay(Workload):
    name = "edit_replay"
    why = ("edit a comment, recompile: never-seen line-preserving "
           "variants miss the catalog and hit the artifact cache; front "
           "end, IL printer and service do all the work")
    traced_pass_s = 4.0

    CATALOG_ENTRIES = 256
    #: Requests per pool program per pass.
    VARIANTS, REPEATS, MALFORMED = 6, 3, 1
    #: A repeat re-sends one of this many latest variants, so its
    #: catalog entry cannot have been evicted yet.
    RECENT = 64

    def __init__(self, corpus, seed, quick=False):
        super().__init__(corpus, seed, quick)
        self.pool = corpus.generated[:4 if quick else 24]
        self._recent: deque = deque(maxlen=self.RECENT)
        self._edits = 0

    def setup(self) -> None:
        self.service = CompileService(
            workers=0, max_catalog_entries=self.CATALOG_ENTRIES)
        for program in self.pool:
            item = Item(self._request("prefill", program.source,
                                      program.name, run="main"),
                        f"{program.name}:prefill", ("miss", "miss"),
                        result=program.expected)
            self._submit_setup(item, probe=True)
        for program in self.pool:
            self._submit_setup(self._variant(program))

    def _variant(self, program) -> Item:
        """A never-seen source with the same IL on the same lines."""
        lines = program.source.split("\n")
        self._edits += 1
        lines[self.rng.randrange(len(lines))] += \
            f" /* edit {self.seed}.{self._edits} */"
        for _ in range(self.rng.randrange(3)):
            lines[self.rng.randrange(len(lines))] += \
                " " * self.rng.randint(1, 4)
        item = Item(self._request("variant", "\n".join(lines),
                                  program.name, run="main"),
                    f"{program.name}:variant", ("miss", "hit"),
                    result=program.expected)
        self._recent.append(item)
        return item

    def next_pass(self) -> List[Item]:
        slots = [(program, kind) for program in self.pool
                 for kind in ("variant",) * self.VARIANTS
                 + ("repeat",) * self.REPEATS
                 + ("malformed",) * self.MALFORMED]
        self.rng.shuffle(slots)
        items = []
        for program, kind in slots:
            if kind == "variant":
                items.append(self._variant(program))
            elif kind == "repeat":
                earlier = self.rng.choice(self._recent)
                request = dict(earlier.request,
                               id=self._next_id("repeat"))
                items.append(Item(
                    request, earlier.cell.replace("variant", "repeat"),
                    ("hit", "hit"), result=earlier.result))
            else:
                recipe = self.rng.choice(self.corpus.recipes)
                items.append(Item(
                    self._request(recipe.name,
                                  recipe.apply(program.source),
                                  program.name, run="main"),
                    f"{program.name}:malformed", ("miss", None),
                    error=recipe.error))
        return items


class SimulateScalar(Workload):
    name = "simulate_scalar"
    why = ("compile and simulate kernels that stay scalar (O0, or "
           "recurrences at default options): statement-at-a-time "
           "dispatch under the Titan cost hook dominates")
    traced_pass_s = 3.5

    #: (kernel, label, options, base n) — half at O0, half at default
    #: options on kernels section 6 says cannot vectorize.
    CELLS = [("daxpy", "O0", O0, 2048),
             ("backsolve", "O0", O0, 2048),
             ("prefix", "O0", O0, 2048),
             ("smooth_inplace", "O0", O0, 2048),
             ("listwalk", "O0", O0, 2048),
             ("transform", "O0", O0, 512),
             ("backsolve", "full", {}, 2048),
             ("prefix", "full", {}, 2048),
             ("listwalk", "full", {}, 2048),
             ("backsolve", "full", {}, 4096),
             ("prefix", "full", {}, 4096),
             ("listwalk", "full", {}, 4096)]

    def _cells(self):
        if not self.quick:
            return self.CELLS
        return [(k, label, options, n // 8)
                for k, label, options, n in self.CELLS[::4]]

    def setup(self) -> None:
        self.service = CompileService(workers=0)
        for kernel, label, options, n in self._cells():
            self._drawn.add((kernel, n, 0))
            self._submit_setup(
                self._kernel_item(kernel, n, 0, f"{kernel}-{label}-{n}",
                                  options),
                probe=True)

    def next_pass(self) -> List[Item]:
        items = []
        for kernel, label, options, base_n in self._cells():
            n, s = self._fresh_size(kernel, base_n)
            items.append(self._kernel_item(
                kernel, n, s, f"{kernel}-{label}-{base_n}", options))
        self.rng.shuffle(items)
        return items


class SimulateVector(Workload):
    name = "simulate_vector"
    why = ("compile and simulate vectorizable kernels at drawn vector "
           "lengths and processor counts: few steps, long vector "
           "sections, masks, strip loops, parallel rescale")
    traced_pass_s = 11.0

    KERNELS = ("daxpy", "sscal", "vadd", "smooth", "guarded_diff",
               "clamp")
    BASE_N = 24576
    #: Array length of the set-up probe set (warm-up and simulated
    #: cycles need the code paths, not the volume).
    PROBE_N = 4096
    VECTOR_LENGTHS = (32, 64, 128)
    PROCESSORS = (1, 2, 4)

    def _kernels(self):
        return self.KERNELS[::3] if self.quick else self.KERNELS

    def _base_n(self) -> int:
        return self.BASE_N // 8 if self.quick else self.BASE_N

    def _probe_n(self) -> int:
        return self.PROBE_N // 8 if self.quick else self.PROBE_N

    def _triple(self, kernel: str, n: int, s: int,
                processors) -> List[Item]:
        """One source at three option points, in the order they will
        be sent: the first request misses the catalog, the other two
        reuse it."""
        pairs = list(zip(self.VECTOR_LENGTHS, processors))
        self.rng.shuffle(pairs)
        return [self._kernel_item(
            kernel, n, s, f"{kernel}-vl{length}",
            {"vector_length": length, "processors": procs})
            for length, procs in pairs]

    def setup(self) -> None:
        self.service = CompileService(workers=0)
        for kernel in self._kernels():
            for item in self._triple(kernel, self._probe_n(), 0,
                                     self.PROCESSORS):
                self._submit_setup(item, probe=True)

    def next_pass(self) -> List[Item]:
        items = []
        for kernel in self._kernels():
            n, s = self._fresh_size(kernel, self._base_n())
            processors = list(self.PROCESSORS)
            self.rng.shuffle(processors)
            items.append(self._triple(kernel, n, s, processors))
        # Interleave kernels, keeping each triple's order: the cache
        # state each item expects was fixed when it was generated.
        order = [i for i, triple in enumerate(items) for _ in triple]
        self.rng.shuffle(order)
        return [items[i].pop(0) for i in order]


WORKLOADS = {cls.name: cls for cls in
             (CompileCold, EditReplay, SimulateScalar, SimulateVector)}
