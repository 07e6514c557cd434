"""Regenerate ``corpus/`` — run only to change the benchmark's inputs.

    python3 benchmarks/e19/make_corpus.py

Writes the generated programs from :data:`SEEDS` at the generator's
default :class:`GeneratorOptions`, computes each one's expected
checksum once with the tree engine (the semantic oracle) on the
unoptimized front-end IL, and pins every corpus file's sha256 in
``MANIFEST.json``.  The kernel templates and ``malformed.json`` are
hand-written; this script only hashes them.  New inputs mean a new
baseline: numbers measured before and after do not compare.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import corpus  # noqa: E402

#: Generator seeds of the frozen programs, in pool order.
SEEDS = tuple(range(48))


def main() -> None:
    from repro.frontend.lower import compile_to_il
    from repro.fuzz.generator import GeneratorOptions, generate_program
    from repro.interp import make_interpreter

    options = GeneratorOptions()
    generated = []
    for seed in SEEDS:
        rel = f"generated/gen_{seed:04d}.c"
        source = generate_program(seed, options).source
        path = os.path.join(corpus.CORPUS_DIR, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        oracle = make_interpreter(compile_to_il(source, rel),
                                  engine="tree")
        generated.append({"file": rel, "seed": seed,
                          "expected": oracle.run("main")})
    manifest = {
        "schema": corpus.MANIFEST_SCHEMA,
        "generator_options": dataclasses.asdict(options),
        "generated": generated,
        "files": {rel: corpus.sha256_file(
            os.path.join(corpus.CORPUS_DIR, rel))
            for rel in corpus.corpus_files()},
    }
    with open(os.path.join(corpus.CORPUS_DIR, corpus.MANIFEST), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(generated)} generated programs, "
          f"{len(manifest['files'])} files pinned")


if __name__ == "__main__":
    main()
