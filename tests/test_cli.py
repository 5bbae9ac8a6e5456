import json

import pytest

from mpradon.cli import (
    EXIT_BOUNDED,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_UNBOUNDED,
    SpecFileError,
    analyze_report,
    gamma_from_input_echo,
    main,
    parse_problem_spec,
)
from mpradon.symbolic import Polynomial

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


def test_parse_problem_spec_translation():
    spec = parse_problem_spec(KNOW_SPEC)
    assert spec.gamma.family == "translation_line"
    assert spec.gamma.p == Polynomial.parse("s^3 + t^3 + s*t", ("s", "t"))
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
    from mpradon.kernels import regroup_to_dyadic, save_kernel_sequence

    seq = regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 3)
    path = tmp_path / "kernel.txt"
    save_kernel_sequence(seq, path)
    assert main(["kernel-check", "--kernel", str(path)]) == EXIT_BOUNDED
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
