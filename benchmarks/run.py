"""End-to-end and per-layer benchmark of the binpick CLI pipeline.

    python3 benchmarks/run.py --workload readme --seed 1 --seconds 24 --trace 0

Each chain runs the ten CLI stages (genscenes, codebook, detect-gt, estimate,
refine, select, select --icp, eval, eval --icp, report) as separate
``python -m binpick.cli`` processes in a fresh run directory. Load is a closed
loop with one client: a stage starts when the previous one has exited. Rounds
of set-up samples and one chain repeat until ``--seconds`` have passed (at
least one round), and timings are medians over chains. ``--trace 1`` pairs
each untraced chain with one run through ``traced_cli.py`` and reports
per-layer metrics instead of end-to-end ones.

Inputs (mesh, symmetry file, config.json) are written from ``binpick.shapes``
for the workload. Every stage gets ``--seed MASTER_SEED``, so a workload's
scenes are fixed; ``--seed n`` sets the codebook seed ``n % SEED_POOL``,
which picks the codebook's rotation covering. The result digests of every
codebook seed are pinned in ``reference.json`` (see ``pin.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced_cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

PYTHON = sys.executable
MASTER_SEED = 1  # the README's --seed
SEED_POOL = 10
SETUP_SAMPLES = 3  # per chain, taken just before it
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SORT_METHODS = ("detector_score", "cosine", "depth_error")

# Result artifacts by file name, and the stage that writes them. Other files
# (manifest.json, report.*, SVG plots) are hashed and printed but not pinned;
# timings.txt holds wall-clock times and is skipped.
PINNED = {
    "camera.txt": "genscenes", "gt_poses.txt": "genscenes", "depth.pgm": "genscenes",
    "instances.pgm": "genscenes", "gray.pgm": "genscenes", "codebook.txt": "codebook",
    "detections.txt": "detect-gt", "estimates.txt": "estimate", "estimates_refined.txt": "refine",
    "selection.txt": "select", "selection_icp.txt": "select-icp",
    "eval.json": "eval", "eval_icp.json": "eval-icp",
}
UNHASHED = {"timings.txt"}


@dataclass(frozen=True)
class Workload:
    mesh: str  # binpick.shapes part: "box" or "lbracket"
    scenes: int
    instances: int
    codebook_size: int
    k: int
    mode: str  # estimate --mode
    config: dict = field(default_factory=dict)  # extra config.json keys

    def stages(self) -> list:
        return [
            ("genscenes", ["genscenes"]),
            ("codebook", ["codebook"]),
            ("detect-gt", ["detect-gt"]),
            ("estimate", ["estimate", "--mode", self.mode]),
            ("refine", ["refine"]),
            ("select", ["select"]),
            ("select-icp", ["select", "--icp"]),
            ("eval", ["eval"]),
            ("eval-icp", ["eval", "--icp"]),
            ("report", ["report", "--eval", "run/eval_icp.json"]),
        ]


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "readme": Workload("box", scenes=2, instances=20, codebook_size=1024, k=5, mode="depth"),
    "codebook-dense": Workload("lbracket", scenes=3, instances=20, codebook_size=2048, k=10, mode="depth"),
    "clutter-rgb": Workload(
        "box", scenes=4, instances=40, codebook_size=1024, k=10, mode="rgb",
        config={"detect": {"jitter_px": 3, "dropout_prob": 0.1}, "translation": {"mode": "rgb_scale"}},
    ),
}

END_TO_END_UNITS = {
    "pipeline_s": "s", "setup_s": "s", "codebook_s": "s", "pick_s_per_scene": "s",
    "eval_s": "s", "peak_rss_mb": "MB", "ar_depth": "ratio", "ar_depth_icp": "ratio",
}


def per_layer_units() -> dict:
    """Per-layer metric names and units, as the traced run reports them."""
    units = {"cli.import_s": "s", "cli.self_s": "s"}
    for name, _ in WORKLOADS["readme"].stages():
        units[f"stage.{name}.s"] = "s"
    for name in traced_cli.traced_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name, (quantities, _) in traced_cli.COUNTS.items():
        for quantity in quantities:
            units[f"{name}.{quantity}"] = {"bytes": "bytes", "frame_px": "px"}.get(quantity, "count")
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# inputs and environment

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BINPICK_OUT")}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: str(THREADS) for var in THREAD_VARS},
    }


def write_inputs(work: Path, wl: Workload, codebook_seed: int) -> None:
    """Mesh, symmetry file and config.json for one workload, from binpick.shapes."""
    from binpick import fileio, shapes
    from binpick.geometry import SymmetrySet

    work.mkdir(parents=True, exist_ok=True)
    if wl.mesh == "box":
        mesh, sym = shapes.make_box(), shapes.box_symmetries()
    else:
        # The L-bracket has no proper symmetry: its file lists the identity only.
        mesh, sym = shapes.make_lbracket(), SymmetrySet.trivial()
    fileio.write_mesh(work / "mesh.txt", mesh)
    fileio.write_symmetries(work / "sym.txt", sym)
    config = {
        "mesh": "mesh.txt", "symmetries": "sym.txt", "scenes": wl.scenes, "k": wl.k,
        "scene": {"instance_count": wl.instances},
        "codebook": {"size": wl.codebook_size, "seed": codebook_seed},
        **wl.config,
    }
    (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# running children

@dataclass
class StageRun:
    wall_s: float
    returncode: int
    maxrss_mb: float


def run_child(cmd: list, cwd: Path, env: dict, log_path: Path, deadline: float) -> StageRun:
    """Run one process to completion; wall time and max RSS come from its own rusage."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return StageRun(0.0, -1, 0.0)
    status = None
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            watchdog.join()
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    return StageRun(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def measure_setup(work: Path, env: dict, deadline: float) -> list:
    """Wall times of fresh interpreters importing binpick.cli.

    Samples are taken before every chain, so they fall at different points of
    the run, and their median is reported; a first sample that also compiles
    bytecode does not count.
    """
    cmd = [PYTHON, "-c", "import binpick.cli"]
    runs = [run_child(cmd, work, env, work / "setup.log", deadline) for _ in range(SETUP_SAMPLES)]
    if any(r.returncode != 0 for r in runs):
        raise RuntimeError("import binpick.cli failed:\n" + (work / "setup.log").read_text())
    return [r.wall_s for r in runs]


# ---------------------------------------------------------------------------
# one chain

@dataclass
class Chain:
    wall_s: float
    stages: dict  # stage name -> StageRun
    failed: set = field(default_factory=set)
    digests: dict = field(default_factory=dict)  # stage name -> digest of its result artifacts
    result_digest: str = ""
    unpinned: dict = field(default_factory=dict)  # relative path -> sha256
    ar_depth: dict = field(default_factory=dict)  # eval stage -> AR of depth_error
    spans: dict = field(default_factory=dict)  # stage name -> spans file (traced chains)


def run_chain(work: Path, wl: Workload, env: dict, traced: bool, deadline: float) -> Chain:
    run_dir = work / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    common = ["--config", "config.json", "--out", "run", "--seed", str(MASTER_SEED)]
    stages, spans = {}, {}
    start = time.perf_counter()
    for name, args in wl.stages():
        if traced:
            spans[name] = work / f"spans-{name}.json"
            cmd = [PYTHON, str(BENCH_DIR / "traced_cli.py"), str(spans[name]), name] + args + common
        else:
            cmd = [PYTHON, "-m", "binpick.cli"] + args + common
        stages[name] = run_child(cmd, work, env, logs / f"{name}.log", deadline)
    chain = Chain(time.perf_counter() - start, stages, spans=spans)
    for name, stage in stages.items():
        if stage.returncode != 0:
            chain.failed.add(name)
            log = logs / f"{name}.log"
            tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
            print(f"stage {name} exited {stage.returncode}:\n{tail}", file=sys.stderr)
    hash_results(chain, run_dir)
    check_results(chain, run_dir)
    return chain


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_results(chain: Chain, run_dir: Path) -> None:
    lines = {}
    if run_dir.is_dir():
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            rel = path.relative_to(run_dir).as_posix()
            if path.name in UNHASHED:
                continue
            line = f"{rel} {sha256_file(path)}\n"
            if path.name in PINNED:
                lines.setdefault(PINNED[path.name], []).append(line)
            else:
                chain.unpinned[rel] = line.split()[1]
    chain.digests = {stage: _digest(lines.get(stage, [])) for stage in sorted(set(PINNED.values()))}
    chain.result_digest = _digest(sorted(line for group in lines.values() for line in group))


def _digest(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _count_lines(path: Path, prefix: str) -> int:
    with open(path) as f:
        return sum(1 for line in f if line.startswith(prefix))


def check_results(chain: Chain, run_dir: Path) -> None:
    """Mark stages whose outputs are empty where the inputs were not, or whose eval report is incomplete."""
    for scene in sorted((run_dir / "dataset").glob("scene_*")):
        dets, ests = scene / "detections.txt", scene / "estimates.txt"
        if dets.is_file() and _count_lines(dets, "det ") > 0 and (not ests.is_file() or _count_lines(ests, "est ") == 0):
            print(f"estimate left no estimates for {scene.name}", file=sys.stderr)
            chain.failed.add("estimate")
    for stage, name in (("eval", "eval.json"), ("eval-icp", "eval_icp.json")):
        try:
            methods = json.loads((run_dir / name).read_text())["methods"]
            complete = all(not methods[m]["empty"] and methods[m]["n_estimates"] for m in SORT_METHODS)
        except (OSError, ValueError, KeyError, TypeError):
            complete = False
        if complete:
            chain.ar_depth[stage] = methods["depth_error"]["ar"]
        else:
            print(f"{name} lacks a non-empty report for every sort method", file=sys.stderr)
            chain.failed.add(stage)


def check_digests(chain: Chain, expected: dict | None) -> None:
    """Mark every stage whose result artifacts differ from the pinned digests (all of them if none are pinned)."""
    for stage, digest in chain.digests.items():
        if expected is None or expected["stages"].get(stage) != digest:
            chain.failed.add(stage)
    if expected is not None and expected["result"] != chain.result_digest:
        print(f"result digest {chain.result_digest} != pinned {expected['result']}", file=sys.stderr)


# ---------------------------------------------------------------------------
# traced chains

def layer_metrics(chain: Chain) -> dict:
    """Per-layer self time, calls and counts summed over a traced chain's stages."""
    totals = {name: 0.0 for name in per_layer_units() if name != "trace.overhead_s"}
    for stage, path in chain.spans.items():
        if stage in chain.failed and not path.is_file():
            continue  # already counted as a failed operation
        doc = json.loads(path.read_text())
        if doc["stage"] != stage:
            raise RuntimeError(f"{path}: spans of stage {doc['stage']}, expected {stage}")
        names, spans = doc["names"], doc["spans"]
        child_s = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        roots = [s for s in spans if s[1] < 0]
        if len(roots) != 1 or names[roots[0][0]] != traced_cli.ROOT_SPAN:
            raise RuntimeError(f"{path}: expected one {traced_cli.ROOT_SPAN} root span")
        stage_s = roots[0][3] - roots[0][2]
        self_sum = 0.0
        for i, (name_index, _, start, end) in enumerate(spans):
            name = names[name_index]
            self_s = (end - start) - child_s[i]
            self_sum += self_s
            if name == traced_cli.ROOT_SPAN:
                totals["cli.self_s"] += self_s
            else:
                totals[f"{name}.self_s"] += self_s
                totals[f"{name}.calls"] += 1
        if abs(self_sum - stage_s) > 1e-6 * max(1.0, stage_s):
            raise RuntimeError(f"{path}: layer self times sum to {self_sum} s, stage took {stage_s} s")
        totals[f"stage.{stage}.s"] = stage_s
        totals["cli.import_s"] += doc["import_s"]
        for name, value in doc["counts"].items():
            totals[name] += value
    return totals


# ---------------------------------------------------------------------------
# one run

def load_reference(workload: str, codebook_seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(codebook_seed))


def measure(wl: Workload, codebook_seed: int, seconds: float, trace: bool, expected: dict | None,
            work: Path) -> tuple:
    """Run rounds of chains until `seconds` have passed, at least one; returns (result dict, chains)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    write_inputs(work, wl, codebook_seed)
    setup, chains, traced_chains = [], [], []
    start, round_s = time.monotonic(), 0.0
    while not chains or (time.monotonic() - start < seconds and time.monotonic() + round_s < deadline):
        round_start = time.monotonic()
        if not trace:
            setup += measure_setup(work, env, deadline)
        chains.append(run_chain(work, wl, env, False, deadline))
        if trace:
            traced_chains.append(run_chain(work, wl, env, True, deadline))
        round_s = time.monotonic() - round_start
    for chain in chains + traced_chains:
        check_digests(chain, expected)
        print(json.dumps({"traced": bool(chain.spans), "result_digest": chain.result_digest,
                          "stage_digests": chain.digests, "unpinned": chain.unpinned,
                          "stage_s": {n: round(s.wall_s, 4) for n, s in chain.stages.items()}}))
    attempted = sum(len(c.stages) for c in chains + traced_chains)
    failed = sum(len(c.failed) for c in chains + traced_chains)
    if trace:
        metrics = {name: [] for name in per_layer_units()}
        for chain in traced_chains:
            for name, value in layer_metrics(chain).items():
                metrics[name].append(value)
        metrics["trace.overhead_s"] = [
            statistics.median(c.wall_s for c in traced_chains) - statistics.median(c.wall_s for c in chains)
        ]
        units = per_layer_units()
    else:
        metrics = {
            "pipeline_s": [c.wall_s for c in chains],
            "setup_s": setup,
            "codebook_s": [c.stages["codebook"].wall_s for c in chains],
            "pick_s_per_scene": [
                sum(c.stages[s].wall_s for s in ("estimate", "refine", "select-icp")) / wl.scenes for c in chains
            ],
            "eval_s": [c.stages["eval"].wall_s + c.stages["eval-icp"].wall_s for c in chains],
            "peak_rss_mb": [max(s.maxrss_mb for s in c.stages.values()) for c in chains],
            "ar_depth": [c.ar_depth.get("eval", 0.0) for c in chains],
            "ar_depth_icp": [c.ar_depth.get("eval-icp", 0.0) for c in chains],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return result, chains + traced_chains


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so that the running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "binpick" / "cli.py").is_file():
        print(f"no binpick sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    codebook_seed = args.seed % SEED_POOL
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        print(json.dumps({"environment": environment(), "workload": args.workload, "codebook_seed": codebook_seed}))
        result, _ = measure(WORKLOADS[args.workload], codebook_seed, args.seconds, bool(args.trace),
                            load_reference(args.workload, codebook_seed), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
