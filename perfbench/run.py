"""kanmark benchmark: one command runs a workload, checks its outputs and
prints its metrics.

    python3 perfbench/run.py --workload glyph-pipeline --seed 1 --seconds 50 --trace 0

Run it from the root of a kanmark checkout; it imports kanmark from
``src/`` and the brute-force oracles from ``tests/oracles.py``, and writes
only under ``.perfbench-work/``. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from a
traced run (see perfbench/README.md). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread: the process stays single-threaded, so timings do not
# depend on how many cores a shared machine can spare.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import importlib.util
import json
import math
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
MIN_ROUNDS = 4

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def code_hash() -> str:
    """Digest of the library and benchmark sources: runs with the same
    digest and seed must produce byte-identical checkpoints."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_kanmark():
    """Import kanmark afresh, so each set-up repeat pays the import."""
    for name in [m for m in sys.modules if m == "kanmark" or m.startswith("kanmark.")]:
        del sys.modules[name]
    import kanmark
    import kanmark.cli  # noqa: F401  (the CLI module is part of the set-up)
    return kanmark


def load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def set_up(bench, repeat: int) -> dict:
    """One set-up repeat in s, scaled to the nominal host speed by the
    calibration bursts on either side, and unscaled under ``wall``."""
    before = calibration.burst()
    start = time.perf_counter()
    import_kanmark()
    bench.setup(repeat)
    wall = time.perf_counter() - start
    return {"setup": wall * calibration.speed(before, calibration.burst()),
            "wall": {"setup": wall}}


def run_rounds(bench, seconds: float, min_rounds: int, first: int = 0):
    """Repeat rounds until ``seconds`` have passed and ``min_rounds`` ran."""
    results, start, index = [], time.perf_counter(), first
    while len(results) < min_rounds or time.perf_counter() - start < seconds:
        if bench.cli.tracer:
            bench.cli.tracer.run = index
        times = bench.round(index)
        bench.after_round(index, times)
        results.append(times)
        index += 1
    return results


def main(argv=None) -> int:
    import metrics as M
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be >= 0")
    if not (ROOT / "src" / "kanmark" / "__init__.py").is_file():
        return fail(f"no kanmark sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return fail(f"no oracles at {ROOT / 'tests' / 'oracles.py'}")
    sys.path.insert(0, str(ROOT / "src"))

    WORK.mkdir(exist_ok=True)
    state_path = WORK / "digests.json"
    digest_key = code_hash()
    stored = json.loads(state_path.read_text()) if state_path.exists() else {}
    state = stored.get(digest_key, {})
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    os.chdir(run_dir)

    oracle = load_oracle()
    bench = workloads.WORKLOADS[args.workload](args.seed, oracle, state)
    # Half the set-up repeats run before the measured rounds and half after,
    # so the set-up figures sample both ends of the run.
    before = (bench.setup_repeats + 1) // 2
    setups = [set_up(bench, i) for i in range(before)]
    bench.prepare()

    env = environment()
    if args.trace:
        result = M.traced(bench, args.seconds, run_rounds,
                          WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        wall = {}
        units = M.PER_LAYER
    else:
        # Every sub-seed runs, so the quality metrics do not depend on speed.
        rounds = run_rounds(bench, args.seconds, max(MIN_ROUNDS, bench.subseeds))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [set_up(bench, i) for i in range(before, bench.setup_repeats)]
        result, wall = M.end_to_end(bench, rounds, setups, peak_rss_mb)
        units = M.END_TO_END
    values = {name: value for name, (value, _) in result.items()}
    for name, value in values.items():
        bench.gate.check(value is not None and math.isfinite(value),
                         f"metric {name} is not finite: {value}")

    os.chdir(ROOT)
    stored = {digest_key: state}
    state_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "code": digest_key,
              "metrics": {n: {"value": v, "unit": units[n], "samples": s, "wall": wall.get(n)}
                          for n, (v, s) in result.items()},
              "attempted": bench.gate.attempted, "failed": bench.gate.failed,
              "failures": bench.gate.notes}
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{'metric':<34} {'value':>14}  {'unit':<12} {'samples':>7}  wall (unscaled)")
    for name, (value, samples) in result.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        raw = f"{wall[name]:.6g}" if name in wall else ""
        print(f"{name:<34} {shown:>14}  {units[name]:<12} {samples:>7}  {raw}")
    print(json.dumps({
        "correct": bench.gate.failed == 0,
        "attempted": bench.gate.attempted,
        "failed": bench.gate.failed,
        "metrics": {n: {"value": v if v is not None and math.isfinite(v) else None,
                        "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
