"""zfpoly benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload corpus-n7 --seed 1 --seconds 10 --trace 0

Run from the repository root.  Standard library only, and this process never
imports zfpoly: set-up is timed in fresh worker processes (the median of
several is ``setup_s``), then one more fresh worker runs the workload, so
peak RSS and the library's per-process caches never carry across workloads.
With ``--trace 0`` the worker measures the end-to-end metrics; with
``--trace 1`` it records spans and reports the per-layer metrics.

The next-to-last stdout line is the full record (seed, parameters, Python
version, CPU, git SHA and every metric with its unit, ``error_rate``
included); the last line is the result object whose metric names are those
BENCHMARK.json lists for the chosen trace mode.  Records and spans are also
written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from hostspeed import CAL_REF_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # fresh processes whose set-up is timed, the measuring one included
RUN_LIMIT_S = 170  # every run must end within 180 s


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker in its own process group and wait for it.

    Returns the worker's set-up time and its last stdout line.  Set-up runs
    from just before the start until the inputs are ready, scaled to the
    reference host by the calibration loop timed just before the start and
    just after the inputs are ready (see hostspeed.py).  On time-out the whole group
    (Pool children too) is killed.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    cal = calibrate()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker exceeded the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    res = json.loads(lines[-1])
    return (res["ready"] - t0) * 2 * CAL_REF_S / (cal + res["cal"]), res


def git_sha() -> str | None:
    """HEAD's commit read straight from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's reduced inputs")
    parser.add_argument("--plant-error", action="store_true",
                        help="corrupt one expected value, to show that the output gate fires")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zfpoly" / "__init__.py").is_file():
        print(f"no zfpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    if args.plant_error:
        common.append("--plant-error")
    deadline = perf_counter() + RUN_LIMIT_S

    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_worker(common + ["--setup-only"], deadline)[0])
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans-out", str(OUT / f"{tag}-spans.json")]
        setup_s, res = run_worker(run_args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    if not args.trace:
        setup.append(setup_s)
        metrics["setup_s"] = {"value": median(setup), "unit": "s"}
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "params": res["params"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(), "git_sha": git_sha(),
        "setup_samples_s": setup, "calls": res["calls"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
