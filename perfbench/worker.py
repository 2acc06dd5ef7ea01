"""Benchmark worker: one fresh process that drives `szegocap.cli.main` as a
closed loop with one client, each command starting after the previous one
has finished.

    python3 perfbench/worker.py --setup-probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR

The parent (run.py) sets PYTHONPATH to the checkout's `src` and the BLAS
thread count in the environment.  The worker prints one JSON object as the
last line of its standard output.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_seed0.json")


def setup() -> float:
    """Import szegocap.cli and make the first BLAS call; seconds since start."""
    import numpy as np
    import szegocap.cli  # noqa: F401
    a = np.full((64, 64), 0.5)
    float((a @ a).sum())
    return time.perf_counter() - _T0


def _blas_threads(np) -> int | None:
    """The thread count of the OpenBLAS bundled in the numpy wheel, read
    through ctypes; None for another BLAS."""
    import ctypes
    import glob
    wheel_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(wheel_libs, "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "szegocap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def provenance() -> dict:
    import platform
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "src_sha256_16": _source_digest(),
    }


class Client:
    """Runs commands through the CLI and checks each report."""

    def __init__(self, cli, workloads, reference: dict | None):
        self.cli = cli
        self.wl = workloads
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, cmd) -> float:
        """Latency of one command; the report is checked after the clock stops."""
        if os.path.exists(cmd.report_path):
            os.remove(cmd.report_path)
        out = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = self.cli.main(list(cmd.argv))
        dt = time.perf_counter() - t
        self.attempted += 1
        errs = self._check(cmd, rc, out.getvalue())
        if errs:
            self.failures.append(f"{cmd.label}: " + "; ".join(errs[:3]))
        return dt

    def warm_up(self, cmd) -> None:
        """Run the command at small alphas, unchecked and untimed."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.cli.main(list(cmd.warm_argv))

    def _check(self, cmd, rc: int, output: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}: {output.strip()[-300:]}"]
        with open(cmd.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        errs = self.wl.check_report(report, cmd.expect)
        if self.reference is not None:
            ref = self.reference.get(cmd.label)
            if ref is None:
                errs.append("no reference values recorded for this command")
            else:
                errs += self.wl.compare_reference(self.wl.reference_values(report), ref)
        return errs


def run_pass(client, cmds, kind_times: dict[int, list[float]]) -> float:
    """One pass over cmds; its time is the sum of its command latencies, so
    the report checks between commands are not in it."""
    total = 0.0
    for cmd in cmds:
        dt = client.run(cmd)
        kind_times[cmd.kind].append(dt)
        total += dt
    return total


def run_passes(client, cmds, budget: float) -> tuple[list[float], dict[int, list[float]]]:
    """Whole passes over cmds for about budget seconds: as many as the first
    pass's wall time fits into budget, rounded, and at least one."""
    kind_times: dict[int, list[float]] = {0: [], 1: [], 2: []}
    t = time.perf_counter()
    pass_times = [run_pass(client, cmds, kind_times)]
    passes = max(1, round(budget / (time.perf_counter() - t)))
    while len(pass_times) < passes:
        pass_times.append(run_pass(client, cmds, kind_times))
    return pass_times, kind_times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    args = ap.parse_args()

    setup_s = setup()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import szegocap
    import szegocap.cli as cli
    import workloads as wl
    if not os.path.abspath(szegocap.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"szegocap imported from {szegocap.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    reference = None
    if args.seed == wl.DEFAULT_SEED:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    cmds = wl.build(args.workload, args.seed, args.workdir)
    client = Client(cli, wl, reference)

    # warm-up: one command of each kind, at small alphas (lazy imports, BLAS
    # threads, allocator), unchecked and untimed
    for kind in (0, 1, 2):
        client.warm_up(next(c for c in cmds if c.kind == kind))

    result = {"provenance": provenance(), "setup_s": setup_s}
    if args.trace:
        import layers
        from tracer import Tracer
        # exactly one plain and one traced pass, so the per-layer totals are
        # those of one pass however long a pass takes
        kind_times: dict[int, list[float]] = {0: [], 1: [], 2: []}
        plain = run_pass(client, cmds, kind_times)
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        try:
            traced = run_pass(client, cmds, kind_times)
        finally:
            tracer.uninstall()
        result["per_layer"] = layers.per_layer_metrics(tracer, plain, traced)
        result["absent"] = tracer.absent
        result["hook_errors"] = tracer.hook_errors
        result["root_balance"] = tracer.root_balance()
    else:
        pass_times, kind_times = run_passes(client, cmds, args.seconds)
        result["pass_times"] = pass_times
        result["kind_times"] = kind_times

    result["attempted"] = client.attempted
    result["failures"] = client.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
