"""Self-test of the benchmark harness on a tiny config.

    python3 benchmarks/selftest.py

On 1 scene x 3 instances with a 16-entry codebook it checks that:
  - every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
    with its unit;
  - the traced chain reproduces the untraced result digest;
  - a corrupted artifact, an emptied estimates.txt, an eval.json missing a
    sort method, and a stage forced to exit non-zero each count as a failed
    operation.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import time

import run

TINY = run.Workload("box", scenes=1, instances=3, codebook_size=16, k=3, mode="depth")
SEED = 1


def declared(section: str) -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def failed_stages(run_dir, expected: dict | None) -> set:
    """Stages marked failed when the artifacts now in run_dir are checked as a chain's outputs.

    With expected None only the output checks run, not the digest check.
    """
    chain = run.Chain(0.0, {})
    run.hash_results(chain, run_dir)
    run.check_results(chain, run_dir)
    if expected is not None:
        run.check_digests(chain, expected)
    return chain.failed


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK_ROOT / f"selftest-{os.getpid()}"
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    try:
        run.write_inputs(work, TINY, SEED)
        untraced = run.run_chain(work, TINY, run.child_env(), False, time.monotonic() + 600)
        check(not untraced.failed, "tiny chain runs without a failed stage")
        expected = {"result": untraced.result_digest, "stages": untraced.digests}

        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, chains = run.measure(TINY, SEED, 0, trace, expected, work)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == declared(section), f"{section} metrics are emitted with their declared units")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] == 10 * len(chains),
                  f"{section} run reports no failed operation")
        check(chains[-1].spans and chains[-1].result_digest == untraced.result_digest,
              "traced chain reproduces the untraced result digest")

        run_dir = work / "run"
        check(not failed_stages(run_dir, expected), "unchanged artifacts pass every check")
        estimates = run_dir / "dataset" / "scene_000000" / "estimates.txt"
        original = estimates.read_bytes()
        estimates.write_bytes(original.replace(b"est ", b"est  ", 1))
        check(failed_stages(run_dir, expected) == {"estimate"}, "a corrupted estimates.txt fails the estimate stage")
        estimates.write_bytes(b"")
        check(failed_stages(run_dir, None) == {"estimate"}, "an emptied estimates.txt fails the estimate stage")
        estimates.write_bytes(original)
        eval_json = run_dir / "eval.json"
        doc = json.loads(eval_json.read_text())
        del doc["methods"]["cosine"]
        eval_json.write_text(json.dumps(doc))
        check(failed_stages(run_dir, None) == {"eval"}, "an eval.json without every sort method fails the eval stage")

        broken = dataclasses.replace(TINY, mode="no-such-mode")
        result, chains = run.measure(broken, SEED, 0, False, expected, work)
        check("estimate" in chains[0].failed and result["failed"] >= 1 and not result["correct"],
              "a stage that exits non-zero counts as a failed operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
