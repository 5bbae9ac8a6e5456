import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpradon import cli, criteria
from mpradon.cli import (
    EXIT_BOUNDED,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_UNBOUNDED,
    ExperimentConfig,
    SpecFileError,
    analyze_report,
    main,
    parse_problem_spec,
)
from mpradon.symbolic import Polynomial
from mpradon.symbolic import gamma as gamma_module
from oracles import gamma_from_input_echo

KNOW_SPEC = """
[problem]
family = translation_line
p = s^3 + t^3 + s*t
"""

BILLY_SPEC = """
[problem]
family = translation_line
p = s + s*t
"""

HEIS_SPEC = """
[problem]
family = heisenberg
P1 = s
P2 = t
P3 = s*t
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def kernel_file(tmp_path, tensor):
    from mpradon.kernels import regroup_to_dyadic, save_kernel_sequence

    path = tmp_path / "kernel.json"
    save_kernel_sequence(regroup_to_dyadic(tensor, (700.0, 900.0), (1.0, -1.0), 3), path)
    return str(path)


def test_parse_problem_spec_translation():
    spec = parse_problem_spec(KNOW_SPEC)
    assert spec.gamma.family == "translation_line"
    assert spec.gamma.polynomials == (Polynomial.parse("s^3 + t^3 + s*t", ("s", "t")),)
    assert spec.experiment is None


def test_parse_problem_spec_with_scheme_and_experiment():
    text = KNOW_SPEC + "\n[scheme]\ne = 1 0 ; 0 1\n[experiment]\ncase = know\nM = 0..3\nL = 12\n"
    spec = parse_problem_spec(text)
    assert spec.experiment.case == "know"
    assert spec.experiment.m_list == (0, 1, 2, 3)
    assert spec.experiment.level == 12


def test_parse_rejects_unknown_keys():
    with pytest.raises(SpecFileError):
        parse_problem_spec(KNOW_SPEC + "\nwhut = 1\n")
    with pytest.raises(SpecFileError):
        parse_problem_spec(KNOW_SPEC + "\n[bogus]\nx = 1\n")
    with pytest.raises(SpecFileError):
        parse_problem_spec("[problem]\nfamily = parabola\np = s\n")
    with pytest.raises(SpecFileError):
        parse_problem_spec("[problem]\nfamily = translation_line\np = s +\n")


def test_analyze_exit_codes(tmp_path, capsys):
    assert main(["analyze", "--spec", write(tmp_path, "a.spec", KNOW_SPEC)]) == EXIT_UNBOUNDED
    assert main(["analyze", "--spec", write(tmp_path, "b.spec", BILLY_SPEC)]) == EXIT_BOUNDED
    assert main(["analyze", "--spec", write(tmp_path, "c.spec", HEIS_SPEC)]) == EXIT_BOUNDED
    capsys.readouterr()


def test_analyze_reports_witness_and_certificate(tmp_path, capsys):
    main(["analyze", "--spec", write(tmp_path, "a.spec", KNOW_SPEC)])
    out = capsys.readouterr().out
    assert "UNBOUNDED" in out
    assert "alpha0 = (1, 1)" in out
    main(["analyze", "--spec", write(tmp_path, "c.spec", HEIS_SPEC)])
    out = capsys.readouterr().out
    assert "BOUNDED" in out
    assert "[Xhat_(1, 0), Xhat_(0, 1)]" in out


def test_analyze_json_deterministic(tmp_path, capsys):
    path = write(tmp_path, "a.spec", HEIS_SPEC)
    main(["analyze", "--spec", path, "--format", "json", "--no-timestamp"])
    first = capsys.readouterr().out
    main(["analyze", "--spec", path, "--format", "json", "--no-timestamp"])
    second = capsys.readouterr().out
    assert first == second
    assert "timestamp" not in first
    report = json.loads(first)
    assert report["verdict"]["outcome"] == "bounded"


def assert_compact_json(out: str) -> None:
    """A JSON report is one line: the stdlib encoder's compact text, keys sorted."""
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# `analyze --no-timestamp` reports pinned byte for byte, with their exit codes.
# Each <name>.json / <name>.txt in tests/data/golden was written by
# `mpradon analyze --spec <name>.spec --format json|text --no-timestamp`;
# dense_h1_6.spec is _dense_h1_text(6) of tests/test_criteria.py.
GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_EXITS = {
    "readme": EXIT_UNBOUNDED,
    "h1_basic": EXIT_BOUNDED,
    "line_e10_11": EXIT_BOUNDED,
    "nu3_bounded": EXIT_BOUNDED,
    "nu3_unbounded": EXIT_UNBOUNDED,
    "dense_h1_6": EXIT_BOUNDED,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXITS))
@pytest.mark.parametrize("fmt, suffix", [("json", ".json"), ("text", ".txt")])
def test_analyze_reports_match_golden_bytes(name, fmt, suffix, capsys):
    argv = ["analyze", "--spec", str(GOLDEN / f"{name}.spec"), "--format", fmt, "--no-timestamp"]
    assert main(argv) == GOLDEN_EXITS[name]
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{name}{suffix}").read_text()
    if fmt == "json":
        assert_compact_json(out)


def _json_oracle(value):
    """What the report's JSON holds for a value of ``dataclasses.asdict(verdict)``."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _json_oracle(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_oracle(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _decide_specs(seed: int) -> list[tuple[str, str]]:
    """(name, spec text) of the benchmark's decide workload for one seed."""
    path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
    loader = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = sys.modules[loader.name] = importlib.util.module_from_spec(loader)  # its dataclass looks itself up
    loader.loader.exec_module(inputs)
    return [(name, text) for name, _, text, _ in inputs.decide_specs(seed)]


def test_analyze_verdict_block_is_the_verdict_dataclass(tmp_path, capsys):
    # the report renders the Verdict through one json hook; an attribute that
    # is not a dataclass field, or a field rendered another way, shows here
    specs = [(p.stem, p.read_text()) for p in sorted(GOLDEN.glob("*.spec"))] + _decide_specs(1)
    assert len(specs) > 100
    for name, text in specs:
        path = write(tmp_path, "v.spec", text)
        main(["analyze", "--spec", path, "--format", "json", "--no-timestamp"])
        block = json.loads(capsys.readouterr().out)["verdict"]
        verdict = cli.analyze_gamma(parse_problem_spec(text).gamma)
        assert block == _json_oracle(dataclasses.asdict(verdict)), name


def test_analyze_timestamp_present_by_default():
    report = analyze_report(parse_problem_spec(HEIS_SPEC).gamma)
    assert "timestamp" in report


def test_report_input_round_trip():
    for text in (KNOW_SPEC, BILLY_SPEC, HEIS_SPEC):
        gamma = parse_problem_spec(text).gamma
        report = analyze_report(gamma, timestamp=False)
        assert gamma_from_input_echo(report["input"]) == gamma


def test_analyze_missing_file_is_error(capsys):
    assert main(["analyze", "--spec", "/nonexistent.spec"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--spec", "{dir}"],
        ["kernel-check", "--kernel", "{dir}"],
        ["norm-growth", "--spec", "{dir}"],
    ],
)
def test_directory_argument_is_one_line_error(argv, tmp_path, capsys):
    code = main([a.format(dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_unreadable_spec_is_one_line_error(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "locked.spec", KNOW_SPEC)

    def denied(file, *args, **kwargs):
        raise PermissionError(13, "Permission denied", file)

    monkeypatch.setattr("mpradon.cli.open", denied, raising=False)
    assert main(["analyze", "--spec", path]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: [Errno 13] Permission denied: '{path}'\n"


def test_analyze_nonproduct_scheme_uses_scalar_control(tmp_path, capsys):
    text = """
[problem]
family = translation_line
p = s
[scheme]
e = 1 1 ; 0 1
"""
    assert main(["analyze", "--spec", write(tmp_path, "s.spec", text)]) == EXIT_UNBOUNDED
    out = capsys.readouterr().out
    assert "Newton polyhedron" in out or "span" in out


def test_inconclusive_exit_code(tmp_path, capsys):
    # a three-parameter heisenberg scheme is outside the line criterion
    text = """
[problem]
family = heisenberg
P1 = s1
P2 = s2
P3 = s3
[scheme]
e = 1 0 0 ; 0 1 0 ; 0 0 1
"""
    assert main(["analyze", "--spec", write(tmp_path, "i.spec", text)]) == EXIT_INCONCLUSIVE
    capsys.readouterr()


def test_bump_command(tmp_path, capsys):
    out_path = tmp_path / "bump.json"
    code = main(["bump", "--a", "1.0", "--a1", "1", "--out", str(out_path)])
    assert code == EXIT_BOUNDED
    text = capsys.readouterr().out
    assert "PASS" in text
    data = json.loads(out_path.read_text())
    assert len(data["atoms"]) == 2


def test_bump_command_with_exclusions(capsys):
    code = main(["bump", "--a", "1.0", "--a1", "2", "--excluded", "1,3", "--format", "json"])
    assert code == EXIT_BOUNDED
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert len(report["atoms"]) == 4


def test_bump_rejects_conflicting_exponents(capsys):
    assert main(["bump", "--a", "1.0", "--a1", "2", "--excluded", "2"]) == EXIT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize(
    "excluded, message",
    [
        ("0..100000000000", "exponent range 0..100000000000 must lie in [1, 64]"),
        ("3..100000000000", "exponent range 3..100000000000 must lie in [1, 64]"),
        ("-100000000000..3", "exponent range -100000000000..3 must lie in [1, 64]"),
        ("2..65", "exponent range 2..65 must lie in [1, 64]"),
    ],
)
def test_bump_exponent_range_is_checked_before_it_is_spelled_out(excluded, message, capsys):
    import tracemalloc

    # a first run builds the parser and loads numpy's modules, untraced
    assert main(["bump", "--a", "1", "--a1", "1", "--excluded", "2..3"]) == EXIT_BOUNDED
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["bump", "--a", "1", "--a1", "1", f"--excluded={excluded}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    # a tuple of 10^11 ints would take terabytes
    assert peak < 2**16, peak


def test_bump_exponent_range_within_the_cap_is_spelled_out(capsys):
    argv = ["bump", "--a", "1.0", "--a1", "1", "--format", "json", "--excluded"]
    assert main([*argv, "2..4"]) == EXIT_BOUNDED
    by_range = json.loads(capsys.readouterr().out)
    assert by_range["excluded_exponents"] == [2, 3, 4]
    assert main([*argv, "2,3,4"]) == EXIT_BOUNDED
    assert json.loads(capsys.readouterr().out) == by_range


def test_kernel_check_command(tmp_path, capsys, mean_zero_tensor):
    assert main(["kernel-check", "--kernel", kernel_file(tmp_path, mean_zero_tensor)]) == EXIT_BOUNDED
    out = capsys.readouterr().out
    assert "PASS" in out


def test_kernel_check_detects_violation(tmp_path, capsys, mean_zero_bump, mean_one_bump):
    from mpradon.dilations import ExponentScheme
    from mpradon.kernels import (
        DyadicKernelSeq,
        KernelEntry,
        ScaledAtom,
        save_kernel_sequence,
    )
    from mpradon.bumps import TensorBump

    scheme = ExponentScheme.product(2)
    seq = DyadicKernelSeq(
        scheme,
        0.75,
        {
            (1, 0): KernelEntry(
                scheme,
                [ScaledAtom(1.0, TensorBump((mean_one_bump, mean_zero_bump)), (1.0, 1.0))],
            )
        },
    )
    path = tmp_path / "bad.json"
    save_kernel_sequence(seq, path)
    assert main(["kernel-check", "--kernel", str(path)]) == EXIT_UNBOUNDED
    out = capsys.readouterr().out
    assert "FAIL" in out and "mu=0" in out


def test_norm_growth_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code = main(
        [
            "norm-growth",
            "--case",
            "kitty",
            "--M",
            "0..2",
            "--grid-n",
            "256",
            "--format",
            "csv",
            "--out",
            str(out_path),
        ]
    )
    assert code == EXIT_BOUNDED
    lines = out_path.read_text().strip().splitlines()
    assert lines[1] == "M,L,norm,ratio,iterations,converged"
    assert all(line.endswith(",true") for line in lines[2:])
    ratios = [float(line.split(",")[3]) for line in lines[2:]]
    assert ratios == pytest.approx([1.0, 2.0, 3.0], rel=1e-12)


def test_norm_growth_json(capsys):
    code = main(["norm-growth", "--case", "billy", "--M", "0 1", "--grid-n", "256", "--format", "json"])
    assert code == EXIT_BOUNDED
    data = json.loads(capsys.readouterr().out)
    assert data["case"] == "billy"
    assert len(data["rows"]) == 2


def test_norm_growth_from_spec_file(tmp_path, capsys):
    text = (
        KNOW_SPEC
        + "\n[experiment]\ncase = kitty\nM = 0..2\ngrid_n = 256\n"
    )
    code = main(["norm-growth", "--spec", write(tmp_path, "e.spec", text), "--format", "json"])
    assert code == EXIT_BOUNDED
    data = json.loads(capsys.readouterr().out)
    assert data["grid"]["n"] == 256
    assert [r["ratio"] for r in data["rows"]] == pytest.approx([1.0, 2.0, 3.0], rel=1e-12)


def test_norm_growth_flags_and_experiment_keys_share_defaults(tmp_path, capsys):
    # every key left out of either input takes ExperimentConfig's default
    argv = ["norm-growth", "--case", "billy", "--M", "0 1", "--grid-n", "256", "--format", "json"]
    assert main(argv) == EXIT_BOUNDED
    from_flags = capsys.readouterr().out
    text = BILLY_SPEC + "\n[experiment]\ncase = billy\nM = 0 1\ngrid_n = 256\n"
    assert main(["norm-growth", "--spec", write(tmp_path, "b.spec", text), "--format", "json"]) == EXIT_BOUNDED
    assert capsys.readouterr().out == from_flags


def test_norm_growth_flags_override_the_spec_experiment(tmp_path, capsys):
    # the spec says n = 256 and M = 0 1; the flags given replace those two values only
    text = KNOW_SPEC + "\n[experiment]\ncase = know\nL = 10\nM = 0 1\ngrid_n = 256\n"
    spec = write(tmp_path, "k.spec", text)
    assert main(["norm-growth", "--spec", spec, "--grid-n", "64", "--M", "0..3", "--format", "json"]) == EXIT_BOUNDED
    from_spec = json.loads(capsys.readouterr().out)
    assert from_spec["grid"]["n"] == 64
    assert [r["M"] for r in from_spec["rows"]] == [0, 1, 2, 3]
    assert [r["L"] for r in from_spec["rows"]] == [10] * 4
    argv = ["norm-growth", "--case", "know", "--L", "10", "--grid-n", "64", "--M", "0..3", "--format", "json"]
    assert main(argv) == EXIT_BOUNDED
    assert json.loads(capsys.readouterr().out) == from_spec
    # a flag also overrides the case, and keys the spec leaves out keep their defaults
    assert main(["norm-growth", "--spec", spec, "--case", "kitty", "--format", "json"]) == EXIT_BOUNDED
    kitty = json.loads(capsys.readouterr().out)
    assert kitty["case"] == "kitty" and kitty["grid"]["xmin"] == ExperimentConfig("kitty").grid_xmin
    assert [r["M"] for r in kitty["rows"]] == [0, 1] and [r["L"] for r in kitty["rows"]] == [None, None]


def test_norm_growth_flag_override_is_checked_like_the_spec_value(tmp_path, capsys):
    text = KNOW_SPEC + "\n[experiment]\ncase = kitty\nM = 0 1\ngrid_n = 64\n"
    spec = write(tmp_path, "k.spec", text)
    assert main(["norm-growth", "--spec", spec, "--M", "0..1100"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncation M = 1100 must lie in [0, 1023] (2^M must be a finite float)\n"


def test_norm_growth_reads_its_spec_once(tmp_path, capsys, monkeypatch):
    # the spec was split into sections twice and its [experiment] values parsed twice
    splits, truncations = [], []
    split, (field, parse) = cli._split_sections, cli._EXPERIMENT_KEYS["m"]
    monkeypatch.setattr(cli, "_split_sections", lambda text: splits.append(text) or split(text))
    monkeypatch.setitem(cli._EXPERIMENT_KEYS, "m", (field, lambda text: truncations.append(text) or parse(text)))
    spec = write(tmp_path, "k.spec", KNOW_SPEC + "\n[experiment]\ncase = kitty\nM = 0 1\ngrid_n = 64\n")
    assert main(["norm-growth", "--spec", spec, "--grid-n", "32", "--format", "json"]) == EXIT_BOUNDED
    table = json.loads(capsys.readouterr().out)
    assert table["grid"]["n"] == 32 and [r["M"] for r in table["rows"]] == [0, 1]
    assert len(splits) == 1 and truncations == ["0 1"]


def test_experiment_section_with_only_a_case_takes_the_defaults():
    assert parse_problem_spec(KNOW_SPEC + "\n[experiment]\ncase = kitty\n").experiment == ExperimentConfig("kitty")


def test_norm_growth_requires_case_or_spec(capsys):
    assert main(["norm-growth", "--M", "0"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--case", "kitty", "--M", "-1"],
        ["--case", "kitty", "--M", ""],
        ["--case", "billy", "--M", "0..-2"],
        ["--case", "know", "--M", "0 1", "--L", "-3"],
    ],
)
def test_norm_growth_rejects_nonsense_truncations_and_levels(argv, capsys):
    assert main(["norm-growth", *argv, "--grid-n", "256"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "window",
    [
        ["--grid-xmin", "nan"],
        ["--grid-xmax", "inf"],
        ["--grid-xmin=-inf"],
        ["--grid-xmin=-1e308", "--grid-xmax", "1e308"],
    ],
)
def test_norm_growth_rejects_a_grid_window_that_is_not_finite(window, capsys):
    argv = ["norm-growth", "--case", "kitty", "--M", "0 1", "--grid-n", "64", *window, "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid window [") and captured.err.count("\n") == 1


def test_experiment_grid_window_that_is_not_finite_exits_one(tmp_path, capsys):
    text = KNOW_SPEC + "\n[experiment]\ncase = kitty\nM = 0 1\ngrid_n = 64\ngrid_xmin = nan\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["norm-growth", "--spec", write(tmp_path, "nan.spec", text), "--format", "json"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid window [nan, 4.0] and its width must be finite\n"


def test_norm_growth_with_a_zero_base_norm_exits_one(capsys):
    # every tap of a window 1e-12 wide leaves the grid, so the M = 0 norm is exactly 0
    window = ["--grid-xmin", "0", "--grid-xmax", "1e-12"]
    argv = ["norm-growth", "--case", "kitty", "--M", "0 1", "--grid-n", "64", *window, "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the M = 0 norm is 0") and captured.err.count("\n") == 1


@pytest.mark.parametrize("case, xmax", [("billy", "1e-300"), ("kitty", "1e-310")])
def test_norm_growth_on_a_window_of_far_displacements_prints_one_line(case, xmax, capsys):
    # at 1e-300 the displacements in grid steps passed the int64 range and the
    # cast printed a RuntimeWarning; at 1e-310 the division by h overflowed too
    argv = ["norm-growth", "--case", case, "--M", "0..1", "--grid-n", "64", "--grid-xmin", "0", "--grid-xmax", xmax]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the M = 0 norm is 0 on the grid window [0.0, {xmax}]: no growth ratio is defined\n"
    # a window whose step h underflows to 0 divided the displacements by zero
    argv[argv.index(xmax)] = "5e-324"
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == "error: grid window [0.0, 5e-324] is too narrow: its step h underflows to 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--case", "kitty", "--M", "1100"], "truncation M = 1100 must lie in [0, 1023]"),
        (["--case", "know", "--L", "10", "--M", "0..1100"], "truncation M = 1100 must lie in [0, 1023]"),
        (["--case", "billy", "--M", "1100"], "truncation M = 1100 must lie in [0, 1023]"),
        (["--case", "kitty", "--M=0..100000000000"], "truncation M = 100000000000 must lie in [0, 1023]"),
        (["--case", "kitty", "--M=-100000000000..0"], "truncation M = -100000000000 must lie in [0, 1023]"),
        (["--case", "kitty", "--grid-n", "100000000000"], "grid n = 100000000000 is beyond the cap of 262144"),
        (["--case", "billy", "--quad-order", "100000"], "quadrature order 100000 must lie in [1, 128]"),
        (["--case", "know", "--L", "100000000000", "--M", "0"], "the scale parameter L = 100000000000 must lie in [0, 1074]"),
        (["--case", "know", "--L", "1075", "--M", "0"], "the scale parameter L = 1075 must lie in [0, 1074]"),
    ],
)
def test_norm_growth_caps_exit_one_before_allocating(argv, message, capsys):
    import tracemalloc

    # a first small run builds the parser and loads numpy's modules, untraced
    assert main(["norm-growth", "--case", "kitty", "--M", "0", "--grid-n", "64"]) == EXIT_BOUNDED
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["norm-growth", *argv, "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    # a grid function of that n, that rule or the scale family up to M = 1024 is far larger
    assert peak < 2**16, peak


def test_experiment_level_beyond_the_cap_exits_one(tmp_path, capsys):
    text = KNOW_SPEC + "\n[experiment]\ncase = know\nM = 0\nL = 100000000000\ngrid_n = 64\n"
    assert main(["norm-growth", "--spec", write(tmp_path, "L.spec", text)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the scale parameter L = 100000000000 must lie in [0, 1074]")
    assert captured.err.count("\n") == 1


def test_norm_growth_level_at_the_cap_runs(capsys):
    # 2^-1074 is the least positive float: the cubic terms are kept, if negligible
    argv = ["norm-growth", "--case", "know", "--L", "1074", "--M", "0 1", "--grid-n", "64", "--format", "json"]
    assert main(argv) == EXIT_BOUNDED
    at_cap = json.loads(capsys.readouterr().out)["rows"]
    assert [r["L"] for r in at_cap] == [1074, 1074]
    assert all(r["converged"] for r in at_cap)


def test_norm_growth_row_order_does_not_change_the_rows(capsys):
    tables = []
    for m in ("8 0 4", "0 4 8"):
        argv = ["norm-growth", "--case", "know", "--L", "10", "--M", m, "--grid-n", "256", "--format", "json"]
        assert main(argv) == EXIT_BOUNDED
        tables.append(json.loads(capsys.readouterr().out)["rows"])
    assert sorted(tables[0], key=lambda r: r["M"]) == tables[1]


def test_norm_growth_know_level_passthrough(capsys):
    code = main(
        ["norm-growth", "--case", "know", "--M", "0..2", "--L", "10", "--grid-n", "512", "--format", "json"]
    )
    assert code == EXIT_BOUNDED
    data = json.loads(capsys.readouterr().out)
    assert [r["L"] for r in data["rows"]] == [10, 10, 10]
    assert data["rows"][2]["ratio"] == pytest.approx(3.0, rel=1e-2)


def test_experiment_section_rejects_unknown_case():
    with pytest.raises(SpecFileError):
        parse_problem_spec(KNOW_SPEC + "\n[experiment]\ncase = doggy\n")


# -- usage and input errors ------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze"],
        ["bogus"],
        ["analyze", "--spec", "x.spec", "--format", "xml"],
        ["analyze", "--spec", "x.spec", "stray"],
        ["kernel-check", "--kernel", "k.txt", "--M", "abc"],
        ["bump", "--a", "1.0"],
        ["norm-growth", "--case", "doggy"],
    ],
)
def test_usage_errors_exit_one_with_one_line(argv, capsys):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mpradon") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"], ["norm-growth", "-h"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(("usage: mpradon", "mpradon ")) and captured.err == ""


def test_zero_denominator_in_scheme_is_one_line_error(tmp_path, capsys):
    text = KNOW_SPEC + "\n[scheme]\ne = 1/0 0 ; 0 1\n"
    assert main(["analyze", "--spec", write(tmp_path, "z.spec", text)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: bad scheme: ") and err.count("\n") == 1


def test_huge_decimal_exponent_in_scheme_text_exits_at_once(tmp_path):
    # Fraction expands '1e99999999' exactly, and the parsers hung on it; each
    # command runs in a child process so that a hang ends at the timeout
    big = "1e99999999 0 ; 0 1"
    spec = write(tmp_path, "big.spec", f"[problem]\nfamily = translation_line\np = s + t\n[scheme]\ne = {big}\n")
    rows = json.dumps(big.split(" ; "))
    kernel = write(tmp_path, "big.json", f'{{"a": 1.0, "atoms": [], "entries": [], "scheme_rows": {rows}}}')
    timed_main = (
        "import sys, time\nfrom mpradon.cli import main\n"
        "start = time.perf_counter()\ncode = main(sys.argv[1:])\nprint(code, time.perf_counter() - start)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    message = "scheme exponent '1e99999999': the decimal exponent must lie in [-300, 300]"
    runs = (["analyze", "--spec", spec], "bad scheme: "), (["kernel-check", "--kernel", kernel], "kernel file: ")
    for argv, prefix in runs:
        cmd = [sys.executable, "-c", timed_main, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
        code, seconds = proc.stdout.split()
        assert int(code) == EXIT_ERROR and float(seconds) < 1.0
        assert proc.stderr == f"error: {prefix}{message}\n"


# a fresh interpreter runs main(argv), then reports its exit code and the
# numpy and mpradon modules it loaded on stderr
_FRESH_MAIN = (
    "import json, sys\nfrom mpradon.cli import main\ncode = main(sys.argv[1:])\n"
    "json.dump([code, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'mpradon'))], sys.stderr)\n"
)
NUMERIC_MODULES = {"mpradon.bumps", "mpradon.harness", "mpradon.kernels", "mpradon.quadrature"}


def run_fresh(argv) -> tuple[int, str, list[str]]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    cmd = [sys.executable, "-c", _FRESH_MAIN, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    code, modules = json.loads(proc.stderr)
    return code, proc.stdout, modules


@pytest.mark.parametrize("fmt, suffix", [("json", ".json"), ("text", ".txt")])
def test_analyze_in_a_fresh_interpreter_loads_no_numpy(fmt, suffix):
    argv = ["analyze", "--spec", str(GOLDEN / "h1_basic.spec"), "--format", fmt, "--no-timestamp"]
    code, out, modules = run_fresh(argv)
    assert code == GOLDEN_EXITS["h1_basic"]
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    assert NUMERIC_MODULES.isdisjoint(modules)
    assert out == (GOLDEN / f"h1_basic{suffix}").read_text()


# in a fresh interpreter, wrap cli.verify_cancellation before any command runs (the
# wrapped function taken from cli itself, as perfbench's tracer does, or from its home
# module), run kernel-check, and report what the seam did on stderr
_FRESH_SEAM = """
import json, sys
import mpradon.cli as cli
from mpradon import kernels
real = cli.verify_cancellation if sys.argv[1] == "cli" else kernels.verify_cancellation
calls = []
def counting(seq):
    calls.append(seq)
    return real(seq)
cli.verify_cancellation = counting
code = cli.main(sys.argv[2:])
import mpradon.harness
json.dump({
    "code": code,
    "calls": len(calls),
    "real_is_home": real is kernels.verify_cancellation,
    "growth_is_home": cli.growth_experiment is mpradon.harness.growth_experiment,
    "unknown_name": hasattr(cli, "no_such_name"),
}, sys.stderr)
"""


@pytest.mark.parametrize("taken_from", ["cli", "home"])
def test_numeric_names_bound_on_cli_keep_a_wrapper_set_before_the_first_command(taken_from, tmp_path, mean_zero_tensor):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = ["kernel-check", "--kernel", kernel_file(tmp_path, mean_zero_tensor), "--format", "json"]
    cmd = [sys.executable, "-c", _FRESH_SEAM, taken_from, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert json.loads(proc.stderr) == {
        "code": EXIT_BOUNDED,
        "calls": 1,
        "real_is_home": True,
        "growth_is_home": True,
        "unknown_name": False,
    }
    assert json.loads(proc.stdout)["cancellation"]["passed"] is True


def test_numeric_commands_in_a_fresh_interpreter_print_as_in_process(tmp_path, capsys, mean_zero_tensor):
    # in a fresh interpreter numpy first loads inside the command
    runs = [
        ["bump", "--a", "1.0", "--a1", "2", "--excluded", "1,3", "--format", "json"],
        ["kernel-check", "--kernel", kernel_file(tmp_path, mean_zero_tensor), "--format", "json"],
        ["norm-growth", "--case", "billy", "--M", "0 1", "--grid-n", "256", "--format", "json"],
    ]
    for argv in runs:
        in_process_code = main(argv)
        in_process = capsys.readouterr()
        assert in_process.err == ""
        code, out, modules = run_fresh(argv)
        assert (code, out) == (in_process_code, in_process.out)
        assert "numpy" in modules
        assert_compact_json(out)


def test_warm_started_norm_growth_is_byte_identical_across_fresh_interpreters():
    # each row starts from the previous row's Ritz vectors, so any
    # run-to-run difference in one row would carry into the next
    argv = ["norm-growth", "--case", "know", "--L", "10", "--M", "0..8", "--grid-n", "512", "--format", "json"]
    first, second = run_fresh(argv), run_fresh(argv)
    assert first[0] == EXIT_BOUNDED
    assert first[1].encode() == second[1].encode()


@pytest.mark.parametrize("a", ["nan", "inf", "-0.5", "0"])
def test_bump_rejects_nonpositive_or_nonfinite_support(a, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bump", f"--a={a}", "--a1", "1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: support length") and captured.err.count("\n") == 1


@pytest.mark.parametrize("a, a1", [("1e78", "4"), ("1e155", "2")])
def test_bump_moment_beyond_float_range_is_one_line_error(a, a1, capsys):
    # both ended in an OverflowError traceback from the closed-form moment
    assert main(["bump", "--a", a, "--a1", a1]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: support length a = {float(a)!r}: the t^{a1} moment is beyond float range\n"
    assert main(["bump", "--a", "1e77", "--a1", "4", "--format", "json"]) == EXIT_BOUNDED
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bump_determinant_beyond_float_range_is_one_line_error(fmt, capsys):
    # both determinants overflowed with two numpy RuntimeWarnings, and the
    # JSON report read "determinant": -Infinity, which is not JSON, with exit 0
    argv = ["bump", "--a", "1e100", "--a1", "2", "--excluded", "1,3", "--format", fmt]
    assert main(argv) == EXIT_ERROR
    message = "support length a = 1e+100: the determinant of the moment system is beyond float range"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    argv[2] = "1e30"  # a determinant near -7.1e176
    assert main(argv) == EXIT_BOUNDED
    assert capsys.readouterr().err == ""


def test_bump_moment_that_underflows_is_one_line_error(capsys):
    # the unit atom's t^3 moment read 0.0 and the solve ended in "error: Singular matrix"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bump", "--a", "1e-300", "--a1", "3"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: support length a = 1e-300: the t^3 moment underflows below float range\n"
        # a subnormal t^3 moment made the coefficients overflow, with a RuntimeWarning
        assert main(["bump", "--a", "1.5e-103", "--a1", "3"]) == EXIT_ERROR
        assert capsys.readouterr().err.endswith("the t^3 moment underflows below float range\n")
        assert main(["bump", "--a", "1e-102", "--a1", "3", "--format", "json"]) == EXIT_BOUNDED
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_kernel_check_rejects_negative_truncation(tmp_path, capsys, mean_zero_tensor):
    # the error names the flag given, not the truncations derived from it
    path = kernel_file(tmp_path, mean_zero_tensor)
    for fmt in ("text", "json"):
        assert main(["kernel-check", "--kernel", path, "--M", "-3", "--format", fmt]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kernel-check: --M must be a nonnegative depth, got -3\n"
    assert main(["kernel-check", "--kernel", path, "--M", "0", "--format", "json"]) == EXIT_BOUNDED
    rows = json.loads(capsys.readouterr().out)["product_bounds"]
    assert [r["M"] for r in rows] == [0]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_kernel_check_alphas_without_depth_is_one_line_error(tmp_path, capsys, mean_zero_tensor, fmt):
    # the product bounds are sampled only to a depth --M, so --alphas alone has nothing to name
    path = kernel_file(tmp_path, mean_zero_tensor)
    assert main(["kernel-check", "--kernel", path, "--alphas", "1,0", "--format", fmt]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kernel-check: --alphas needs --M, the depth the product bounds are sampled to\n"


@pytest.mark.parametrize("depth, sampled", [(1, [0, 1]), (2, [0, 1, 2]), (3, [0, 1, 3]), (8, [0, 4, 8])])
def test_kernel_check_samples_product_bounds_at_zero_half_and_full_depth(depth, sampled, tmp_path, capsys, mean_zero_tensor):
    argv = ["kernel-check", "--kernel", kernel_file(tmp_path, mean_zero_tensor), "--M", str(depth), "--format", "json"]
    assert main(argv) == EXIT_BOUNDED
    assert [e["M"] for e in json.loads(capsys.readouterr().out)["product_bounds"]] == sampled


# -- one parser per process, one W and one Xhat per spec ---------------------


def _run(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_in_process_calls_match_the_first(tmp_path, capsys, mean_zero_tensor):
    kernel = kernel_file(tmp_path, mean_zero_tensor)
    nonproduct = KNOW_SPEC.replace("s^3 + t^3 + s*t", "s + s*t^2") + "[scheme]\ne = 1 1 ; 0 1\n"
    argvs = [
        ["analyze", "--spec", write(tmp_path, "h.spec", HEIS_SPEC), "--format", "json", "--no-timestamp"],
        ["analyze", "--spec", write(tmp_path, "k.spec", KNOW_SPEC)],
        ["analyze", "--spec", write(tmp_path, "n.spec", nonproduct), "--no-timestamp"],
        ["bump", "--a", "1.0", "--a1", "2", "--excluded", "1", "--format", "json"],
        ["kernel-check", "--kernel", kernel, "--M", "4", "--format", "json"],
        ["norm-growth", "--case", "kitty", "--M", "0 1", "--grid-n", "256", "--format", "csv"],
        ["analyze", "--help"],
        ["--version"],
        ["analyze", "--spec", "x.spec", "--format", "xml"],
        ["kernel-check", "--kernel", kernel, "--M", "-1"],
    ]
    cli._parser.cache_clear()
    first = [_run(argv, capsys) for argv in argvs]
    assert [code for code, _, _ in first] == [
        EXIT_BOUNDED, EXIT_UNBOUNDED, EXIT_UNBOUNDED, EXIT_BOUNDED, EXIT_BOUNDED, EXIT_BOUNDED,
        "SystemExit(0)", "SystemExit(0)", EXIT_ERROR, EXIT_ERROR,
    ]
    assert cli._parser.cache_info().currsize == 1
    order = [i for pair in zip(range(len(argvs)), reversed(range(len(argvs)))) for i in pair]
    for i in order:
        assert _run(argvs[i], capsys) == first[i], argvs[i]
    assert cli._parser.cache_info().misses == 1


def test_analyze_builds_w_and_xhat_once(tmp_path, capsys, monkeypatch):
    built, closed, printed = [], [], []
    expand, close, payload = (
        gamma_module._poly_coefficient_expansion, criteria.pure_closure_heisenberg, cli._expansion_payload
    )
    monkeypatch.setattr(
        gamma_module, "_poly_coefficient_expansion", lambda *args: built.append(expand(*args)) or built[-1]
    )
    monkeypatch.setattr(criteria, "pure_closure_heisenberg", lambda xhat: closed.append(xhat) or close(xhat))
    monkeypatch.setattr(cli, "_expansion_payload", lambda exp: printed.append(exp) or payload(exp))

    text = HEIS_SPEC.replace("P3 = s*t", "P3 = s*t + s^2*t^3")
    assert main(["analyze", "--spec", write(tmp_path, "h.spec", text), "--format", "json"]) == EXIT_BOUNDED
    capsys.readouterr()
    xhat, w = printed  # the report lays out Xhat first, then W
    assert w.basis == xhat.basis == ("X", "Y", "T") and w != xhat
    # the verdict builds Xhat, the report builds W, and the report prints the Xhat the verdict closed
    assert len(built) == 2 and built[0] is xhat and built[1] is w
    assert len(closed) == 1 and closed[0] is xhat


def test_analyze_checks_each_multi_index_once(tmp_path, capsys, monkeypatch):
    # the spec grades the multi-indices of W and Xhat once, from its polynomials'
    # valid exponents, without validating them again; the report reads those
    # degrees, so only the supporting-line test validates a multi-index
    import mpradon.dilations as dilations

    calls = []
    check = dilations.check_multi_index
    monkeypatch.setattr(dilations, "check_multi_index", lambda *args: calls.append(args[0]) or check(*args))
    text = HEIS_SPEC.replace("P3 = s*t", "P3 = s*t + s^2*t^3")
    assert main(["analyze", "--spec", write(tmp_path, "h.spec", text), "--format", "json"]) == EXIT_BOUNDED
    report = json.loads(capsys.readouterr().out)
    # what remains: one supporting-line call per nonpure Xhat index
    assert len(report["w_expansion"]) == len(report["xhat_expansion"]) == 4
    assert report["nonpure"] == [[1, 1], [2, 3]]
    assert len(calls) == 2


@pytest.mark.parametrize(
    "p, diagnostics",
    [("s^2 + t^3", "all degrees are pure"), ("0", "zero expansion")],
)
def test_scalar_control_bounded_without_a_nonpure_degree(p, diagnostics, tmp_path, capsys):
    # a non-product scheme sends the line to scalar control; these verdicts end
    # before any sector is tested
    path = write(tmp_path, "s.spec", f"[problem]\nfamily = translation_line\np = {p}\n[scheme]\ne = 1 0 ; 0 2\n")
    assert main(["analyze", "--spec", path, "--format", "json"]) == EXIT_BOUNDED
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict == {"outcome": "bounded", "witness": None, "certificates": [], "diagnostics": diagnostics}
    assert main(["analyze", "--spec", path]) == EXIT_BOUNDED
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:5] == ["verdict: BOUNDED", f"  note: {diagnostics}"]


@pytest.mark.parametrize(
    "argv, spec, message",
    [
        (["norm-growth", "--case", "kitty", "--M", "0..2..4"], None, "range '0..2..4'"),
        (["norm-growth", "--case", "kitty", "--M", "0..x"], None, "range '0..x'"),
        (["analyze"], "0..2..4", "bad [experiment] value: range '0..2..4'"),
        (["norm-growth"], "0..2..4", "bad [experiment] value: range '0..2..4'"),
        (["bump", "--a", "1", "--a1", "1", "--excluded", "1..2..3"], None, "range '1..2..3'"),
    ],
)
def test_malformed_range_is_one_line_error_naming_it(argv, spec, message, tmp_path, capsys):
    # 'lo..hi..x' ended with "too many values to unpack (expected 2)"
    if spec is not None:
        text = KNOW_SPEC + f"[experiment]\ncase = kitty\nM = {spec}\n"
        argv = [*argv, "--spec", write(tmp_path, "r.spec", text)]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} must read lo..hi with integer ends\n"


@pytest.mark.parametrize(
    "argv, spec, prefix",
    [
        (["bump", "--a", "0.5", "--a1", "5", "--excluded", "3..1"], None, ""),
        (["norm-growth", "--case", "kitty", "--M", "3..1"], None, ""),
        (["analyze"], "3..1", "bad [experiment] value: "),
        (["norm-growth"], "3..1", "bad [experiment] value: "),
    ],
)
def test_reversed_range_is_one_line_error_naming_it(argv, spec, prefix, tmp_path, capsys):
    # '--excluded 3..1' excluded nothing and passed; '--M 3..1' ended in
    # "norm-growth needs at least one truncation M"
    if spec is not None:
        text = KNOW_SPEC + f"[experiment]\ncase = kitty\nM = {spec}\n"
        argv = [*argv, "--spec", write(tmp_path, "r.spec", text)]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {prefix}range '3..1' is reversed: its low end 3 exceeds its high end 1\n"


@pytest.mark.parametrize("a", ["1", "1e-10", "1e-20"])
def test_bump_thresholds_do_not_depend_on_the_unit_of_length(a, capsys):
    # with absolute thresholds a = 1e-10 failed on its mass, -1.6e88, and
    # a = 1e-20 on its excluded moments, up to 5.9e166
    argv = ["bump", "--a", a, "--a1", "10", "--excluded", "1..4", "--format", "json"]
    assert main(argv) == EXIT_BOUNDED
    assert json.loads(capsys.readouterr().out)["passed"] is True


# Spec files from a small alphabet: section headers, known and unknown keys,
# and values made of digits, variable names, ';', '^' and '/0'.  Most draws
# keep the section layout, so that the values reach the parsers and the
# criteria, not only the section splitter.
_FACTORS = ("s", "t") * 4 + ("s^2", "t^3", "s^12", "t^2", "2", "3", "1/2", "/0", "^", "s1", "x", "")
_EXPONENTS = ("0", "1") * 2 + ("2", "3", "1/2", "2/3", "1/0", "x", "")
_FAMILY_KEYS = {"translation_line": ("p",), "heisenberg": ("p1", "P2", "p3"), "parabola": ("p",), "": ()}
_EXTRA_KEYS = ("",) * 3 + (
    "variables = s t", "variables = s1 s2", "variables = s s", "variables = s t u", "whut = 1", "p3 = s"
)
_SECTIONS = ("",) * 2 + ("[scheme]\ne = {}",) * 3 + (
    "[scheme]\nf = 1", "[experiment]\ncase = know\nM = 0 1 2\nL = 12", "[bogus]\nx = 1", "x = 1", "[problem]"
)


def _joined(elements, sep, max_size):
    return st.lists(elements, min_size=1, max_size=max_size).map(sep.join)


_poly_text = _joined(_joined(st.sampled_from(_FACTORS), "*", 3), "+", 4)
_scheme_text = _joined(_joined(st.sampled_from(_EXPONENTS), " ", 3), " ; ", 3)


@st.composite
def _spec_text(draw):
    family = draw(st.sampled_from(("translation_line",) * 4 + ("heisenberg",) * 4 + ("parabola", "")))
    problem = ["[problem]", f"family = {family}"]
    problem += [f"{key} = {draw(_poly_text)}" for key in _FAMILY_KEYS[family]]
    problem.append(draw(st.sampled_from(_EXTRA_KEYS)))
    other = draw(st.sampled_from(_SECTIONS)).format(draw(_scheme_text))
    return "\n".join([other, *problem] if draw(st.booleans()) else [*problem, other])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_spec_text())
def test_fuzzed_spec_files_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.spec")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--spec", path, "--no-timestamp"])
    assert code in (EXIT_BOUNDED, EXIT_ERROR, EXIT_UNBOUNDED, EXIT_INCONCLUSIVE)
    if code == EXIT_ERROR:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert err.getvalue() == "" and out.getvalue().startswith("mpradon ")
