"""The mpradon benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout (it needs ``src/mpradon``); it
builds nothing, because the package is pure Python.  The workload itself
runs in a fresh child process (bench.py).  With ``--trace 0`` the run
also starts a few set-up-only children, so that ``setup_s`` is the median
of several fresh set-ups.  With ``--trace 1`` the child alternates untraced
and traced passes and reports the per-layer metrics.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the full record (metadata, sample counts, fail_frac, failure reasons),
which is also written to ``.perfbench_out/`` together with the spans of a
traced run.  Generated inputs live in ``.perfbench_work/`` while the run
lasts and are removed after it.

Exit codes: 0 with a result line (``correct`` says whether every job
passed its output check), 1 when the run itself broke, 2 when the
directory is not a source checkout.  No result line is printed unless
the exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("decide", "norm-growth", "kernels")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5  # fresh set-ups per untraced run, the child's own included
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SPANS_FILE = "spans.jsonl"  # bench.py writes a traced run's spans here, in its work directory


def src_line_counts() -> dict[str, int]:
    base = ROOT / "src"
    return {
        str(p.relative_to(base)): sum(1 for _ in p.open())
        for p in sorted(base.rglob("*.py"))
    }


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("ratio", "ratio"), ("coverage", "ratio"), ("bytes", "bytes")):
        if metric.endswith(suffix):
            return name
    return "count"


def spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    """Run bench.py in a fresh process and return its JSON record."""
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--t0-ns", str(time.monotonic_ns()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the workload process started")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="mpradon benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "mpradon" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: {ROOT} has no src/mpradon; run it from a source checkout\n")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, work, deadline, True)["setup_s"])
        record = spawn(args, work, deadline, False)
        if args.trace:
            (work / SPANS_FILE).replace(out_dir / f"spans-{tag}.jsonl")
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = record.pop("metrics")
    if not args.trace:
        setups.append(record["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        record["samples"]["setup_s"] = len(setups)
        record["setup_samples_s"] = setups
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit(name)} for name, value in sorted(metrics.items())
        },
    }
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        src_lines=src_line_counts(), result=result,
    )
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
