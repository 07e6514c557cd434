"""E15 — compilation forensics: attribution exactness, overhead, and
the self-diagnosing regression gate.

Not a paper claim: this experiment gates the forensics layer that
*reads* the paper experiments.  §8 of the paper argues for each
transformation by showing which cycles it bought; `repro.obs.attrib`
reconstructs exactly that argument from the PassChecker IL snapshots,
and its value rests on three properties measured here:

* **exactness** — the per-pass cycle deltas must sum *bit-exactly*
  (every estimate is a whole number of cycles, so float sums are
  exact) to the O0→full total delta, on both flagship workloads
  (daxpy and backsolve).  A waterfall whose
  bars don't sum to the total is a lie;
* **observation-free when off** — compiling without ``--attrib`` must
  not even import the attribution module, and the enabled path must
  cost ≤ 25% extra compile time (``host_attrib_speedup`` gates the
  machine-independent ratio in regress.py);
* **self-diagnosis** — an injected regression must make
  ``regress.py --explain`` exit non-zero and write a valid
  ``titancc-reportdiff/1`` naming the regressed metric plus a
  ``titancc-attrib/1`` waterfall whose deltas sum exactly.

The attribution step counts and final cycle totals are deterministic
(static estimator over deterministic pipelines), so they gate exactly.
"""

import importlib.util
import json
import os
import shutil
import sys
import tempfile
import time

from harness import FULL, Row, print_table, record_bench
from repro.obs import schemas
from repro.obs.attrib import CycleAttributor
from repro.pipeline import compile_c
from repro.workloads.blas import caller_program
from repro.workloads.stencils import backsolve

REPS = 5
MAX_OVERHEAD = 0.25  # enabled-path compile-time ceiling, one run


def _load_regress():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "regress.py")
    spec = importlib.util.spec_from_file_location("e15_regress", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attribute(source, label):
    attributor = CycleAttributor(source=label)
    compile_c(source, FULL, hooks=[attributor])
    return attributor


def _compile_seconds(source, hooks):
    start = time.perf_counter()
    compile_c(source, FULL, hooks=hooks)
    return time.perf_counter() - start


def test_e15_forensics_attribution_and_explain():
    daxpy = caller_program(n=2048)
    solve = backsolve(512)

    # --- exactness: telescoping on both workloads, compared with
    # ``==`` — bit-exact or bust.
    attribs = {"daxpy": _attribute(daxpy, "daxpy"),
               "backsolve": _attribute(solve, "backsolve")}
    exact = {name: a.sum_of_deltas == a.total_delta
             for name, a in attribs.items()}
    for attributor in attribs.values():
        doc = attributor.to_dict()
        assert schemas.validate_document(doc) == schemas.ATTRIB
        assert doc["totals"]["exact"] is True

    # --- observation-free when off: a plain compile must not pull the
    # attribution module in.  (CLI imports it lazily under --attrib;
    # here the structural check is on the module table itself.)
    sys.modules.pop("repro.obs.attrib", None)
    compile_c(daxpy, FULL)
    observation_free = "repro.obs.attrib" not in sys.modules

    # --- enabled overhead: hooked vs bare compile time, best-of-REPS
    # each, taken in turns so both sides see the same host.  The ratio
    # divides out machine speed, so regress.py gates it (speedup rule,
    # higher is better).
    off_seconds = on_seconds = float("inf")
    for _ in range(REPS):
        off_seconds = min(off_seconds, _compile_seconds(daxpy, []))
        on_seconds = min(on_seconds, _compile_seconds(
            daxpy, [CycleAttributor(source="overhead")]))
    speedup = off_seconds / on_seconds if on_seconds else 0.0

    # --- injected regression: baseline says 100 cycles, current says
    # 200, so the gate must go red, and --explain must name the metric
    # and write an exact attribution waterfall.
    regress = _load_regress()
    scratch = tempfile.mkdtemp(prefix="titancc-e15-")
    try:
        base_dir = os.path.join(scratch, "baselines")
        cur_dir = os.path.join(scratch, "current")
        os.makedirs(base_dir)
        os.makedirs(cur_dir)
        with open(os.path.join(base_dir, "BENCH_e2_daxpy.json"),
                  "w") as handle:
            json.dump({"schema": schemas.BENCH, "name": "e2_daxpy",
                       "variants": {"full": {"cycles": 100.0}}},
                      handle)
        with open(os.path.join(cur_dir, "BENCH_e2_daxpy.json"),
                  "w") as handle:
            json.dump({"schema": schemas.BENCH, "name": "e2_daxpy",
                       "variants": {"full": {"cycles": 200.0}}},
                      handle)
        rc = regress.main(["--current", cur_dir,
                           "--baselines", base_dir,
                           "--explain", "--quiet"])
        explain_dir = os.path.join(cur_dir, "explain")
        diff_path = os.path.join(explain_dir,
                                 "explain_e2_daxpy.diff.json")
        attrib_path = os.path.join(explain_dir,
                                   "explain_e2_daxpy.attrib.json")
        with open(diff_path) as handle:
            diff_doc = json.load(handle)
        with open(attrib_path) as handle:
            attrib_doc = json.load(handle)
        assert schemas.validate_document(diff_doc) == \
            schemas.REPORTDIFF
        assert schemas.validate_document(attrib_doc) == schemas.ATTRIB
        worst = diff_doc["summary"]["worst_regression"] or ""
        explain_ok = (rc == 1 and "cycles" in worst
                      and attrib_doc["totals"]["exact"] is True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record_bench("e15_forensics", "attrib", metrics={
        # Deterministic forensics volume: gates exactly, so a pass
        # silently dropping out of attribution fails CI.
        "attrib_steps_daxpy": float(len(attribs["daxpy"].steps)),
        "attrib_steps_backsolve":
            float(len(attribs["backsolve"].steps)),
        "attrib_cycles_daxpy": float(attribs["daxpy"].final_cycles),
        "attrib_cycles_backsolve":
            float(attribs["backsolve"].final_cycles),
        "exact_workloads": float(sum(exact.values())),
        # Machine-independent compile-time ratio, gated by the
        # speedup rule (higher is better).
        "host_attrib_speedup": speedup,
        "host_compile_seconds_off": off_seconds,
        "host_compile_seconds_on": on_seconds,
    })

    rows = [
        Row("daxpy deltas sum bit-exact", "yes",
            "yes" if exact["daxpy"] else "NO", exact["daxpy"]),
        Row("backsolve deltas sum bit-exact", "yes",
            "yes" if exact["backsolve"] else "NO",
            exact["backsolve"]),
        Row("disabled path observation-free", "yes",
            "yes" if observation_free else "NO", observation_free),
        Row("enabled overhead", f"<={MAX_OVERHEAD:.0%}",
            f"{1 - speedup:.1%}", speedup >= 1 - MAX_OVERHEAD),
        Row("--explain names regressed metric", "cycles",
            worst or "(none)", explain_ok),
    ]
    print_table("E15: compilation forensics", rows)

    assert exact["daxpy"] and exact["backsolve"]
    assert observation_free
    assert speedup >= 1 - MAX_OVERHEAD, \
        f"attribution-enabled compile lost {1 - speedup:.1%}"
    assert explain_ok
    assert all(r.ok for r in rows)
