"""Regenerate perfbench/refs.json: reference norms and the decide pins.

    python3 perfbench/make_refs.py     # several minutes

Reference norms come from an independent oracle: the largest singular value
of the dense matrix ``DiscretizedOperator.as_matrix()`` on the n = 2048 grid,
for every operator of the norm-growth tables (kitty M 0..8, know L 10/15/20
M 0..8, billy M 0..12).  The n = 8192 kitty table is checked against the
same n = 2048 references.

The decide pins are the outcomes of the default seed's specs.  Before they
are written, each H^1 outcome is cross-checked against the brute-force
normal-grid oracle of tests/test_criteria.py, each outcome of a
line-curve spec against the benchmark's own Newton-line and polyhedron
checks, and each outcome fixed by construction against that construction.
Run from the root of a source checkout.
"""

from __future__ import annotations

import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import checks  # noqa: E402
import inputs  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def reference_norms() -> dict[str, float]:
    import numpy as np

    from mpradon.harness import Grid1D, build_operator, case_polynomial, dyadic_scales, square_scales

    out = {}
    for case, level, m_max in (("kitty", None, 8), ("know", 10, 8), ("know", 15, 8), ("know", 20, 8), ("billy", None, 12)):
        p = case_polynomial(case, level)
        family = square_scales if case == "billy" else dyadic_scales
        for m in range(m_max + 1):
            op = build_operator(p, family(m), Grid1D())
            out[checks.ref_key(case, level, m)] = float(np.linalg.svd(op.as_matrix(), compute_uv=False)[0])
            print(f"{case} L={level} M={m}: {out[checks.ref_key(case, level, m)]!r}", flush=True)
    return out


def decide_pins(seed: int) -> dict[str, str]:
    from mpradon.cli import main, parse_problem_spec
    from tests.test_criteria import _brute_force_all_normals

    pins = {}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, kind, text, expect in inputs.decide_specs(seed):
            path = Path(tmp) / name
            path.write_text(text)
            job = inputs.Job(name, kind, ("analyze",), expect)
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = main(["analyze", "--spec", str(path), "--format", "json", "--no-timestamp"])
            reason = checks.check_decide(job, rc, buf.getvalue(), None)
            if reason is not None:
                raise SystemExit(f"{name}: the output check rejects the report: {reason}")
            outcome = json.loads(buf.getvalue())["verdict"]["outcome"]
            if kind == "h1":
                brute = _brute_force_all_normals(parse_problem_spec(text).gamma)
                if brute != (outcome == "bounded"):
                    raise SystemExit(f"{name}: engine says {outcome}, the brute-force oracle disagrees")
            pins[name] = outcome
            print(f"{name}: {outcome}", flush=True)
    return pins


def main() -> int:
    refs = {
        "decide_pins": {
            "seed": DEFAULT_SEED,
            "cross_checked": "H^1 outcomes agree with tests/test_criteria.py::_brute_force_all_normals (grid 1000)",
            "outcomes": decide_pins(DEFAULT_SEED),
        },
        "norms_method": "largest singular value of DiscretizedOperator.as_matrix(), grid n=2048 on [-4, 4]",
        "norms": reference_norms(),
    }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
