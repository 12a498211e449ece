"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  * the input generator is bit-reproducible: one seed gives the same bytes
    twice and the pinned digests below, another seed gives other bytes;
  * the oracle scores a corrupted copy of a right answer as a failure, at
    least for a flipped verdict, a wrong rank and a wrong witness.  The right
    answers come from running the screen workload in process on ``src/``, so
    a program that already answers those calls wrongly fails the self-test.
Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import sys

import gen
import run

# Input digests at seed 0.  They change only when gen.py changes what it
# writes, or when numpy's PCG64 stream or float repr changes.
PINNED = {
    "certify": "78301e9b485ffb48a18550d63d5cdbf29533cd73d5a9dacc7a44cf32473fc5fd",
    "recover": "a5f9fb72bdbc16ce3a4fb607d6ca9da018c408140e2ef11405b21e3714861b2a",
    "screen": "a0e993875ff4dc903201b1c9c822d991b79f64f3d473c85022edb55adc7a824b",
}

REQUIRED_CORRUPTIONS = ("_flip_verdict", "_wrong_rank", "_wrong_witness")


def check_generator() -> list[str]:
    problems = []
    for name in gen.WORKLOADS:
        first = gen.build(name, 0).digest()
        if gen.build(name, 0).digest() != first:
            problems.append(f"{name}: seed 0 gave different bytes on a second build")
        if gen.build(name, 1).digest() == first:
            problems.append(f"{name}: seeds 0 and 1 gave the same bytes")
        if first != PINNED[name]:
            problems.append(f"{name}: seed 0 digest {first} differs from the pinned {PINNED[name]}")
    return problems


def check_oracle() -> list[str]:
    bench = run.Bench(gen.build("screen", 0))
    bench.workdir = bench.workdir.with_name("selftest")
    bench.write_inputs()
    with bench.in_workdir() as cli:
        results = bench.in_process_pass(cli.run)
    bench.score(results)
    problems = list(bench.broken)
    for name in REQUIRED_CORRUPTIONS:
        if not any(label.endswith(name) for label in bench.corruptions_tried):
            problems.append(f"corruption {name} was never tried")
    return problems


def main() -> int:
    problems = check_generator() + check_oracle()
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
