import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
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

    path = tmp_path / "kernel.txt"
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
    path = tmp_path / "bad.txt"
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
    assert lines[1] == "M,L,norm,ratio"
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
    big = "e = 1e99999999 0 ; 0 1"
    spec = write(tmp_path, "big.spec", f"[problem]\nfamily = translation_line\np = s + t\n[scheme]\n{big}\n")
    kernel = write(tmp_path, "big.kernel", f"[kernel]\nN = 2\nnu = 2\n{big}\na = 1.0\n")
    timed_main = (
        "import sys, time\nfrom mpradon.cli import main\n"
        "start = time.perf_counter()\ncode = main(sys.argv[1:])\nprint(code, time.perf_counter() - start)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    message = "scheme exponent '1e99999999': the decimal exponent must lie in [-300, 300]"
    runs = (["analyze", "--spec", spec], "bad scheme: "), (["kernel-check", "--kernel", kernel], "kernel file line 4: ")
    for argv, prefix in runs:
        cmd = [sys.executable, "-c", timed_main, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
        code, seconds = proc.stdout.split()
        assert int(code) == EXIT_ERROR and float(seconds) < 1.0
        assert proc.stderr == f"error: {prefix}{message}\n"


# a fresh interpreter runs main(argv), then reports its exit code and the
# numpy submodules it loaded on stderr
_FRESH_MAIN = (
    "import json, sys\nfrom mpradon.cli import main\ncode = main(sys.argv[1:])\n"
    "json.dump([code, sorted(m for m in sys.modules if m.startswith('numpy.'))], sys.stderr)\n"
)


def run_fresh(argv) -> tuple[int, str, list[str]]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    cmd = [sys.executable, "-c", _FRESH_MAIN, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    code, numpy_modules = json.loads(proc.stderr)
    return code, proc.stdout, numpy_modules


@pytest.mark.parametrize("fmt, suffix", [("json", ".json"), ("text", ".txt")])
def test_analyze_in_a_fresh_interpreter_loads_no_numpy(fmt, suffix):
    argv = ["analyze", "--spec", str(GOLDEN / "h1_basic.spec"), "--format", fmt, "--no-timestamp"]
    code, out, numpy_modules = run_fresh(argv)
    assert code == GOLDEN_EXITS["h1_basic"]
    assert numpy_modules == []
    assert out == (GOLDEN / f"h1_basic{suffix}").read_text()


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
        code, out, numpy_modules = run_fresh(argv)
        assert (code, out) == (in_process_code, in_process.out)
        assert numpy_modules != []


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


def test_kernel_check_rejects_negative_truncation(tmp_path, capsys, mean_zero_tensor):
    path = kernel_file(tmp_path, mean_zero_tensor)
    assert main(["kernel-check", "--kernel", path, "--M", "-3"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: truncations") and captured.err.count("\n") == 1
    assert main(["kernel-check", "--kernel", path, "--M", "0", "--format", "json"]) == EXIT_BOUNDED
    rows = json.loads(capsys.readouterr().out)["product_bounds"]
    assert [r["M"] for r in rows] == [0, 1]


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
