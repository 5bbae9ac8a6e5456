"""Show that the output checks count wrong outputs in fail_frac.

    python3 perfbench/selftest.py

Runs a few real jobs of each workload through the same set-up, check and
failure accounting as a benchmark run, then alters one output the way a
broken engine would and shows that the failure count goes up by one:

  * decide: a verdict flipped between bounded and unbounded (exit code
    flipped with it, so only the content check can notice), once with the
    default seed's pins and once with a seed that has none; and a bounded
    H^1 certificate with one sector of its sweep deleted, which leaves the
    outcome (and so the pins) unchanged;
  * norm-growth: one norm of the kitty table raised by 2%;
  * kernels: a cancelling kernel reported as failing (passed false, exit 2).

Exits 0 when every alteration is caught and the unaltered outputs pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import bench
from run import DEFAULT_SEED

REFS = json.loads((Path(__file__).parent / "refs.json").read_text())


def fail_count(wl, results) -> int:
    return sum(w is not None for w in bench.failures(results, wl.check(results)))


def run_first(wl, count: int):
    from mpradon.cli import main

    return [bench.run_job(main, job) for job in wl.jobs[:count]]


def flip_verdict(result):
    report = json.loads(result.out)
    verdict = report["verdict"]
    verdict["outcome"] = "bounded" if verdict["outcome"] == "unbounded" else "unbounded"
    return replace(result, out=json.dumps(report), rc=2 if result.rc == 0 else 0)


def drop_sector(result):
    report = json.loads(result.out)
    sectors = next(c["sectors"] for c in report["verdict"]["certificates"] if len(c["sectors"]) > 1)
    del sectors[len(sectors) // 2]
    return replace(result, out=json.dumps(report))


def multi_sector(result) -> bool:
    verdict = json.loads(result.out)["verdict"]
    return any(len(c["sectors"]) > 1 for c in verdict["certificates"])


def raise_norm(result):
    table = json.loads(result.out)
    table["rows"][4]["norm"] *= 1.02
    return replace(result, out=json.dumps(table))


def report_failing(result):
    payload = json.loads(result.out)
    payload["cancellation"]["passed"] = False
    return replace(result, out=json.dumps(payload), rc=2)


def case(label: str, wl, results, index: int, alter) -> bool:
    before = fail_count(wl, results)
    altered = list(results)
    altered[index] = alter(results[index])
    after = fail_count(wl, altered)
    ok = before == 0 and after == 1
    print(
        f"SELFTEST {'PASS' if ok else 'FAIL'} {label} ({wl.jobs[index].name}): "
        f"fail_frac {before}/{len(results)} -> {after}/{len(results)}"
    )
    return ok


def main() -> int:
    from mpradon.cli import main as cli_main

    ok = True
    scratch = bench.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
            wl = bench.setup_decide(seed, Path(tmp), REFS)
            results = run_first(wl, 6)
            for rc in (0, 2):
                i = next(k for k, r in enumerate(results) if r.rc == rc)
                ok &= case(f"decide seed {seed}: flipped verdict", wl, results, i, flip_verdict)
            while not multi_sector(results[-1]):
                results.append(bench.run_job(cli_main, wl.jobs[len(results)]))
            ok &= case(f"decide seed {seed}: sector deleted", wl, results, len(results) - 1, drop_sector)
        wl = bench.setup_norm_growth(DEFAULT_SEED, Path(tmp), REFS)
        ok &= case("norm-growth: norm raised by 2%", wl, run_first(wl, 1), 0, raise_norm)
        wl = bench.setup_kernels(DEFAULT_SEED, Path(tmp), REFS)
        ok &= case("kernels: cancelling kernel reported failing", wl, run_first(wl, 2), 0, report_failing)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
