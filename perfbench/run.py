"""szegocap benchmark: three seeded workloads driven through the public CLI.

    python3 perfbench/run.py --workload operator-sweep --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports the package from
the checkout's `src`.  `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.

Each run starts fresh worker processes: a few set-up probes (import of
szegocap.cli plus the first BLAS call) and one worker that makes the
workload's configs from the seed, warms up, and then runs whole passes over
the workload's commands for about --seconds seconds.  A traced run makes
exactly one plain pass and one traced pass instead, and no set-up probes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 4          # fresh processes timed for set-up, besides the worker
DEADLINE_S = 170.0        # a run must end within 180 s

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def _worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(res: dict, setups: list[float], workload: str) -> dict:
    kinds = {int(k): v for k, v in res["kind_times"].items()}
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(res["pass_times"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    for k in (0, 1, 2):
        metrics[f"cmd{k + 1}_s"] = {"value": statistics.median(kinds[k]), "unit": "s"}
    print(f"# {len(res['pass_times'])} measured passes; setup samples {len(setups)}")
    for k, name in enumerate(workloads.KIND_NAMES[workload]):
        samples = kinds[k]
        line = f"# cmd{k + 1}_s = {name}: median {statistics.median(samples):.6g} s"
        if len(samples) >= 100:
            line += f", p90 {_percentile(samples, 90):.6g} s"
        print(line + f" over {len(samples)} samples")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "szegocap", "cli.py")):
        print(f"no szegocap sources under {ROOT}/src", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(["--setup-probe"], env, 60.0)["setup_s"])
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--workdir", workdir]
        res = _worker(worker_args, env, DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# provenance " + json.dumps(res["provenance"], sort_keys=True))
    failures = list(res["failures"])
    if args.trace:
        metrics = res["per_layer"]
        if res["absent"]:
            print("# absent spans: " + ", ".join(res["absent"]))
        failures += [f"trace counter hook: {e}" for e in res["hook_errors"]]
        if res["root_balance"] > 1e-9:
            failures.append(f"self times do not sum to the command span "
                            f"(relative gap {res['root_balance']:.3g})")
    else:
        metrics = _end_to_end(res, setups + [res["setup_s"]], args.workload)
    for failure in failures:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
