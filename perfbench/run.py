"""Run one specsense benchmark workload and print its metrics.

    python3 perfbench/run.py --workload deep-tail --seed 1 --seconds 30 --trace 0

Run from the repository root; specsense is imported from ``src/``.  Set-up
time is measured in fresh interpreters.  The workload then repeats timed
passes until ``--seconds`` have elapsed (at least one pass), checks the
outputs outside the timed region, and prints the metrics, an environment
record, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced pass, then traced
passes, and reports the per-layer metrics (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("figures-analytic", "mc-fixed", "deep-tail")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _setup_seconds(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(WORKDIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _timed_passes(workload, state, seconds: float):
    """Repeat passes until ``seconds`` have elapsed; (wall_s, PassResult) per pass.

    Only the first pass keeps its outputs for the checks; later passes keep
    their fingerprint, so memory does not grow with the number of passes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = workload.run_pass(state)
        passes.append((time.perf_counter() - t0, result))
        if len(passes) > 1:
            result.outputs = None
        if time.perf_counter() - start >= seconds:
            return passes


def _best_pass_seconds(chunk_s_per_pass) -> float:
    """Sum over a pass's chunks of each chunk's fastest time in the run.

    On a shared machine other tenants can slow a thread by up to half for
    seconds to minutes at a time; a chunk's fastest repeat is the one least
    disturbed, so this estimate moves with the program rather than with its
    neighbours.
    """
    return sum(min(times) for times in zip(*chunk_s_per_pass))


def _check_passes(workload, state, passes):
    """Failed and off-spec operations over all passes, and the first pass's details.

    Same inputs and seed must give bit-identical outputs: a pass whose
    fingerprint matches the first repeats the first pass's check results, and
    a pass whose fingerprint differs fails as a whole.  Off-spec operations
    are the failed ones plus the known defects that stayed within their cap.
    """
    first = passes[0][1]
    check_failed, check_off_spec, details = workload.check(state, first)
    failed = off_spec = 0
    for _, result in passes:
        if result.fingerprint == first.fingerprint:
            failed += result.raised + check_failed
            off_spec += result.raised + check_off_spec
        else:
            failed += result.ops
            off_spec += result.ops
            details = dict(details, fingerprint_mismatch=[first.fingerprint, result.fingerprint])
    return failed, off_spec, details


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "specsense" / "__init__.py").is_file():
        print(f"error: no specsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    WORKDIR.mkdir(parents=True, exist_ok=True)

    load_before = os.getloadavg()
    from perfbench.layers import TARGETS, layer_metrics
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_times = [] if args.trace else _setup_seconds(args.workload, args.seed)
    state = workload.setup(args.seed, WORKDIR)

    if args.trace:
        untraced = _timed_passes(workload, state, 0.0)
        with Tracer(TARGETS) as tracer:
            traced = _timed_passes(workload, state, args.seconds - untraced[0][0])
        passes = untraced + traced
    else:
        passes = _timed_passes(workload, state, args.seconds)
    load_after = os.getloadavg()

    failed, off_spec, details = _check_passes(workload, state, passes)
    attempted = sum(result.ops for _, result in passes)

    notes = {}
    if args.trace:
        overhead = (statistics.median(wall for wall, _ in traced)
                    - statistics.median(wall for wall, _ in untraced))
        metrics, notes = layer_metrics(tracer, len(traced), traced[0][1].counts, overhead)
    else:
        pass_s = _best_pass_seconds([result.chunk_s for _, result in passes])
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (pass_s, "s"),
            "work_per_s": (passes[0][1].work / pass_s, "1/s"),
            "ok_share": (1.0 - off_spec / attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    record = dict(_environment(args.seed), workload=args.workload, trace=args.trace,
                  loadavg_before=load_before, loadavg_after=load_after,
                  setup_probes_s=setup_times, passes=len(passes),
                  pass_walls_s=[wall for wall, _ in passes],
                  pass_s_median_parts=sum(statistics.median(t)
                                          for t in zip(*(r.chunk_s for _, r in passes))),
                  fingerprint=passes[0][1].fingerprint, checks=details, notes=notes)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
        if name in workload.aliases:
            alias, alias_unit = workload.aliases[name]
            print(f"{args.workload} {alias} = {value:.6g} {alias_unit}")
    print(f"{args.workload} failed_share = {off_spec / attempted:.6g} fraction")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
