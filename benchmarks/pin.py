"""Pin the result digests that run.py checks every chain against.

    python3 benchmarks/pin.py [WORKLOAD ...]

Runs one untraced chain per workload (default: all) and codebook seed
0..SEED_POOL-1, and writes each chain's per-stage and result digests to
reference.json. A chain with a failed stage is not pinned. Re-pin only for a
change that is meant to alter result bytes, and say which bytes and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main(names: list) -> int:
    sys.path.insert(0, str(run.SRC))
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    env = run.child_env()
    for name in names or list(run.WORKLOADS):
        wl = run.WORKLOADS[name]
        work = run.WORK_ROOT / f"pin-{name}-{os.getpid()}"
        pinned = {}
        try:
            for seed in range(run.SEED_POOL):
                run.write_inputs(work, wl, seed)
                chain = run.run_chain(work, wl, env, False, time.monotonic() + run.RUN_LIMIT_S)
                if chain.failed:
                    print(f"{name} seed {seed}: failed stages {sorted(chain.failed)}, nothing pinned", file=sys.stderr)
                    return 1
                pinned[str(seed)] = {"result": chain.result_digest, "stages": chain.digests}
                print(f"{name} seed {seed}: {chain.result_digest} ({chain.wall_s:.1f} s, AR depth_error {chain.ar_depth})",
                      flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reference[name] = pinned
        run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
