"""CLI contract: parsing, output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diskgeom
from diskgeom import bounds, cli, functionals
from diskgeom import (
    AnnulusCover,
    Moebius,
    Polynomial,
    PowerSeries,
    DiskGeomError,
    DomainError,
    spec_to_json,
)
from diskgeom.cli import main, parse_spec

SEED_ARGS = ["--seed", "3"]


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of main(argv); an argument error exits
    as the console script does."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_spec_shorthands():
    assert parse_spec("poly[0,0,1]") == Polynomial((0.0, 0.0, 1.0))
    assert parse_spec("series[0,1,0.25j]") == PowerSeries((0.0, 1.0, 0.25j))
    assert parse_spec("moebius(0,0.5,1)") == Moebius(0.0, 0.5, 1.0)
    assert parse_spec("annulus(0.7)") == AnnulusCover(0.7)


def test_parse_spec_inline_json_and_file(tmp_path):
    blob = json.dumps(spec_to_json(Moebius(0.1j, 0.3, 1.0)))
    assert parse_spec(blob) == Moebius(0.1j, 0.3, 1.0)
    path = tmp_path / "spec.json"
    path.write_text(blob)
    assert parse_spec(str(path)) == Moebius(0.1j, 0.3, 1.0)


def test_parse_spec_rejects_garbage():
    with pytest.raises(DiskGeomError):
        parse_spec("poly[0,1")
    with pytest.raises(DiskGeomError):
        parse_spec("annulus(1,2)")
    with pytest.raises(DiskGeomError):
        parse_spec("no-such-file.json")


@pytest.mark.parametrize("text", [
    "poly[0,nan]",
    "series[inf]",
    "moebius(0,nan,1)",
    "annulus(inf)",
    '{"kind": "polynomial", "coeffs": [[0, 0], [NaN, 0]]}',
    '{"kind": "moebius", "a": [0, 0], "b": [0.5, 0], "c": [Infinity, 0]}',
    '{"kind": "annulus_cover", "c": Infinity}',
])
def test_parse_spec_rejects_non_finite_parameters(text):
    with pytest.raises(DomainError):
        parse_spec(text)


def test_non_finite_spec_exits_2_with_json_error(capsys):
    for argv in (
        ["eval", "--spec", "poly[0,nan]", "--kind", "rad"],
        ["eval", "--spec", "annulus(inf)", "--kind", "area"],
        ["check", "all", "--spec", "moebius(0,nan,1)"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ["counterexample", "--c", "0"],
    ["counterexample", "--c", "-1"],
    ["counterexample", "--c", "inf"],
    ["counterexample", "--c", "nan"],
    ["eval", "--spec", "poly[0,1]", "--kind", "area", "--area-method", "raster",
     "--resolution", "0"],
    ["eval", "--spec", "poly[0,1]", "--kind", "area", "--area-method", "raster",
     "--resolution", "-3"],
    ["check", "density", "--spec", "moebius(0,0.5,1)", "--resolution", "0"],
    ["eval", "--spec", "poly[0,1]", "--kind", "area", "--area-method", "auto", "--r", "1.5"],
    ["eval", "--spec", "poly[0,1]", "--kind", "area", "--area-method", "auto", "--r", "-0.5"],
    ["eval", "--spec", "poly[0,1]", "--kind", "area", "--area-method", "auto", "--r", "nan"],
    ["check", "don", "--spec", "moebius(0,0.5,1)", "--z", "nan"],
    ["check", "don-symmetric", "--spec", "moebius(0,0.5,1)", "--z", "nan", "--w", "0.1"],
    ["counterexample", "--c", "0.5", "--points", "5", "--tol", "0"],
    ["counterexample", "--c", "0.5", "--points", "5", "--tol", "-1"],
    ["counterexample", "--c", "0.5", "--points", "5", "--tol", "nan"],
    ["identities", "--n-max", "0"],
    ["identities", "--n-max", "1"],
    ["identities", "--tuples", "0"],
    ["check", "don", "--spec", "moebius(0,0.5,1)", "--tol", "-1"],
    ["check", "don", "--spec", "moebius(0,0.5,1)", "--tol", "nan"],
    ["check", "don", "--spec", "moebius(0,0.5,1)", "--tol", "inf"],
    ["check", "isoperimetric", "--spec", "poly[0,1,0.2]", "--tol", "-1"],
    ["fekete", "--spec", "poly[0,1]", "--tol", "-1"],
    ["eval", "--spec", "poly[0,1]", "--kind", "ndiam", "--n", "5000"],
    ["sweep", "--spec", "poly[0,1]", "--kind", "ndiam", "--n", "5000", "--points", "3"],
])
def test_out_of_domain_number_exits_2_with_json_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    # The default is "auto": f is injective on 0.4 D, so it sums the
    # contour, which overflows, and then reads the raster, which does too.
    *(["eval", "--spec", "poly[0,1e200,1e200]", "--kind", "area", "--r", "0.4", *method]
      for method in (["--area-method", "raster"], [], ["--area-method", "auto"])),
    *(["eval", "--spec", "poly[0,1e160,3e159]", "--kind", kind, "--r", "0.5"]
      for kind in ("cap", "diam", "rad")),
    *(["eval", "--spec", "poly[0,1e308,1e308,1e308]", "--kind", kind, "--r", "0.9"]
      for kind in ("rad", "diam", "ndiam", "area", "cap")),
])
def test_overflowing_estimate_exits_2_with_json_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ResourceError"


def test_overflowing_perimeter_exits_2_with_one_json_error(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--spec", "poly[0,1e308,1e308,1e308]", "--kind", "perim", "--r", "0.9",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "error" in json.loads(err)


def test_eval_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--spec", "poly[0,2]", "--kind", "rad", "--r", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "rad"
    assert payload["value"] == pytest.approx(1.0, abs=1e-8)
    assert payload["seed"] == 0
    assert len(payload["spec"]) == 12
    # z^2 is not injective, so "auto" takes the raster at the default
    # resolution 1024; the image is the disk of radius r^2.
    code, out, _ = run_cli(
        capsys, "eval", "--spec", "poly[0,0,1]", "--kind", "area", "--r", "0.7",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - np.pi * 0.7**4) <= 3.0 * payload["abs_error"]


@pytest.mark.parametrize("spec, r, expected", [
    # Both maps are injective on r D, so "auto" reads the contour sum.  It
    # samples f - f(0), so f(0) = 1e20 costs no digits, where the raster
    # reads the image as a point.
    ("poly[1e20,1,0.3]", "0.9", np.pi * (0.81 + 2.0 * 0.09 * 0.9**4)),
    # It exited 2 while only coefficient-backed specs had a series area.
    ("moebius(0,0.5,1)", "0.5", np.pi * 0.4**2),
])
def test_series_area_is_exact_on_every_variant(capsys, spec, r, expected):
    code, out, _ = run_cli(
        capsys, "eval", "--spec", spec, "--kind", "area", "--r", r, "--area-method", "auto",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - expected) <= payload["abs_error"] <= 1e-12 * expected


def test_area_method_series_is_config_error(capsys):
    # The contour sum counts multiplicity on a map that is not injective:
    # forced onto z^2 at 0.7 it read 2 pi 0.7^4, twice the set area.
    code, out, err = run_cli(
        capsys, "eval", "--spec", "poly[0,0,1]", "--kind", "area", "--r", "0.7",
        "--area-method", "series",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("kind", ["area", "cap"])
def test_growth_check_of_the_identity_is_equality_to_rounding(capsys, kind):
    # "auto" reads the contour sum of the injective identity, on the unit
    # circle and at r, so the bar leaves the tolerance at --tol.
    code, out, _ = run_cli(capsys, "check", "growth", "--spec", "poly[0,1]", "--kind", kind)
    assert code == 0
    report = json.loads(out)
    assert report["equality"] and report["passed"]
    assert report["context"]["tol"] == 1e-9
    assert abs(report["lhs"] - report["rhs"]) <= 1e-13


def test_sweep_flags_the_area_method_it_was_given(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", "poly[0,1,0.2]", "--kind", "area", "--points", "3",
        "--resolution", "64", "--area-method", "raster", "--format", "json",
    )
    assert code == 0
    assert "area_method=raster" in json.loads(out)["flags"]


def test_auto_area_past_the_contour_budget_prints_the_raster(capsys):
    # The contour sum of annulus(0.1) at 0.9999 needs more than 2^17 points.
    argv = ["eval", "--spec", "annulus(0.1)", "--kind", "area", "--r", "0.9999"]
    auto = run_cli(capsys, *argv)
    assert auto == run_cli(capsys, *argv, "--area-method", "raster")
    assert auto[0] == 0
    payload = json.loads(auto[1])
    assert (payload["value"], payload["abs_error"]) == (0.5875144070359085, 0.0028380439718240285)


def test_eval_csv_row(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--spec", "poly[0,2]", "--kind", "rad", "--r", "0.5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,r,value,abs_error,spec,seed"
    fields = lines[1].split(",")
    assert fields[0] == "rad"
    assert float(fields[2]) == pytest.approx(1.0, abs=1e-8)


def test_sweep_csv_structure_and_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", "poly[0,0,1]", "--kind", "rad",
        "--points", "5", "--r-min", "0.1", "--r-max", "0.9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# kind=rad,")
    assert lines[1] == "r,phi,abs_error,spec,seed"
    data = [line.split(",") for line in lines[2:7]]
    # phi = r for the square map.
    for row in data:
        assert float(row[1]) == pytest.approx(float(row[0]), abs=1e-6)
    footers = [line for line in lines if line.startswith("# verdict ")]
    assert any("monotone" in f and "ok=True" in f for f in footers)
    assert any("log_convex" in f and "ok=True" in f for f in footers)


def test_sweep_deterministic_output(capsys):
    args = (
        "sweep", "--spec", "poly[0,1,0.2]", "--kind", "ndiam", "--n", "3",
        "--points", "5", "--r-min", "0.2", "--r-max", "0.8", *SEED_ARGS,
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert ",3\n" in out1  # the seed is echoed on data rows


def test_sweep_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", "poly[0,1]", "--kind", "diam",
        "--points", "4", "--r-min", "0.2", "--r-max", "0.8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "diam"
    assert len(payload["r"]) == 4
    assert payload["verdicts"]["monotone"]["ok"]


def test_check_don_equality_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "check", "don", "--spec", "moebius(0,0.5,1)", "--z", "0.8",
        "--tol", "1e-6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "Don"
    assert payload["passed"] is True
    assert payload["equality"] is True


def test_check_fail_exits_one(capsys):
    # A slightly inflated automorphism passes the one-percent diameter
    # precondition yet genuinely violates the two-point bound at z = 0.8.
    b, s = 0.5, 1.005
    coeffs = [-b * s] + [s * (1.0 - b * b) * b ** (k - 1) for k in range(1, 24)]
    blob = json.dumps(spec_to_json(Polynomial(tuple(coeffs))))
    code, out, _ = run_cli(capsys, "check", "don", "--spec", blob, "--z", "0.8")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["slack"] < -1e-3


def test_check_all_moebius(capsys):
    code, out, _ = run_cli(
        capsys, "check", "all", "--spec", "moebius(0,0.5,1)", "--z", "0.8",
        "--r", "0.5", "--tol", "1e-6", "--resolution", "256",
    )
    assert code == 0
    lines = out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    names = {p.get("name") for p in payloads}
    assert {"Don", "Poukka", "Isoperimetric", "Polya", "AreaDn", "DensityLower"} <= names
    # The Schur precondition fails for this map, so it is skipped, not failed.
    assert any("skipped" in p and p["name"] == "schur" for p in payloads)


def test_check_all_estimates_the_disk_diameter_once(capsys, monkeypatch):
    # Don and Poukka read one 8,192-sample estimate of Diam f(D).
    kinds, original = [], bounds.disk_functional_estimate

    def counting(spec, kind, n=4):
        kinds.append(kind)
        return original(spec, kind, n=n)

    monkeypatch.setattr(bounds, "disk_functional_estimate", counting)
    monkeypatch.setattr(cli, "disk_functional_estimate", counting)
    code, out, _ = run_cli(capsys, "check", "all", "--spec", "moebius(0,0.5,1)")
    assert code == 0
    assert kinds.count("diam") == 1
    reports = {p["name"]: p for p in map(json.loads, out.splitlines()) if "skipped" not in p}
    assert reports["Don"]["context"]["diam_estimate"] == 2.0 * reports["Poukka"]["rhs"]


@pytest.mark.parametrize("argv, refinements, same_curve, verdicts, sums", [
    (["check", "all", "--spec", "poly[0,1,0.2]", "--r", "0.5"], 3, 2, 2, 2),
    (["check", "all", "--spec", "annulus(3)", "--r", "0.9"], 5, 4, 2, 0),
    (["eval", "--kind", "area", "--spec", "annulus(3)", "--r", "0.9"], 2, 2, 1, 0),
], ids=["check-all-poly", "check-all-annulus", "eval-area-annulus"])
def test_repeated_boundary_work_stays_within_its_counts(
    capsys, monkeypatch, argv, refinements, same_curve, verdicts, sums
):
    # Upper bounds on the work that one command repeats: isoperimetry and
    # Polya each test univalence and compute the area, and the area of a
    # map that is not univalent refines the curve that its verdict refined.
    curves, calls = [], {"is_univalent_sampled": 0, "area_univalent_series": 0}
    refine = functionals._refine_circle

    def refining(spec, r, angles, values, step):
        curves.append((spec, r, step))
        return refine(spec, r, angles, values, step)

    def counting(name, original):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(functionals, "_refine_circle", refining)
    for name in calls:
        monkeypatch.setattr(functionals, name, counting(name, getattr(functionals, name)))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(curves) <= refinements
    assert max(map(curves.count, curves)) <= same_curve
    assert calls["is_univalent_sampled"] <= verdicts
    assert calls["area_univalent_series"] <= sums


def test_check_density_honours_tol(capsys):
    code, out, _ = run_cli(
        capsys, "check", "density", "--spec", "poly[0,1]", "--tol", "0.5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["context"]["tol"] == 0.5


def test_check_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "check", "poukka", "--spec", "poly[0,0,0,1]", "--n", "3",
        "--tol", "1e-6", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,lhs,rhs,slack,equality,passed,tol,spec,seed"
    assert lines[1].startswith("Poukka,1,")


def test_counterexample_csv(capsys):
    code, out, _ = run_cli(
        capsys, "counterexample", "--c", "1", "--x-min", "0.5", "--x-max", "1.5",
        "--points", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "r,A,logA_second_diff,regime,spec,seed"
    rows = [line.split(",") for line in lines[2:9]]
    assert len(rows) == 7
    regimes = {row[3] for row in rows}
    assert regimes == {"univalent", "formula"}
    # End rows leave the centered second difference empty.
    assert rows[0][2] == "" and rows[-1][2] == ""
    assert rows[1][2] != ""
    assert lines[-1].startswith("# has_negative_second_diff=")


def test_counterexample_json(capsys):
    code, out, _ = run_cli(
        capsys, "counterexample", "--c", "0.1", "--x-min", "0.5", "--x-max", "1.5",
        "--points", "9", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["has_negative_second_diff"] is True
    assert len(payload["r"]) == 9
    assert len(payload["logA_second_diff"]) == 7


def test_fekete_roots_of_unity(capsys):
    code, out, _ = run_cli(
        capsys, "fekete", "--spec", "poly[0,1]", "--n", "5", "--r", "0.9",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_rotated_roots"] is True
    assert len(payload["points"]) == 5
    mags = [abs(complex(x, y)) for x, y in payload["points"]]
    assert max(abs(m - 0.9) for m in mags) <= 1e-6


def test_identities_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "identities", "--n-max", "16", "--tuples", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma_ok"] and payload["vandermonde_ok"]
    assert payload["seed"] == 20260815


def test_config_error_writes_json_to_stderr(capsys):
    code, out, err = run_cli(capsys, "eval", "--spec", "poly[0,1", "--kind", "rad")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert "spec" in payload["message"]


def test_bad_grid_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--spec", "poly[0,1]", "--kind", "rad",
        "--r-min", "0.9", "--r-max", "0.1",
    )
    assert code == 2
    assert json.loads(err)["error"] == "DomainError"


def test_unknown_flag_is_config_error(capsys):
    # sweep evaluates its points in order and has no --jobs flag.
    for argv in (
        ["eval", "--nope", "1"],
        ["sweep", "--spec", "poly[0,1]", "--kind", "rad", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("series, codes", [
    ([["eval", "--nope", "1"], ["eval", "--spec", "poly[0,1,0.2]", "--kind", "rad"]], [2, 0]),
    ([["check", "schur", "--spec", "poly[0,0.5,0.3]", "--r", "0.3"],
      ["check", "schur", "--spec", "poly[0,0.5,0.3]"]], [0, 0]),
    ([["eval", "--spec", "poly[0,1,0.2]", "--kind", "rad", "--seed", "3"],
      ["identities", "--n-max", "8", "--tuples", "20"]], [0, 0]),
], ids=["error-then-valid", "option-then-default", "seed-then-own-default"])
def test_shared_parser_carries_nothing_between_calls(capsys, monkeypatch, series, codes):
    # main builds its parser once per process; each call of a series must
    # print and exit as it does with a parser of its own.
    assert cli.build_parser() is cli.build_parser()
    shared = [run_cli(capsys, *argv) for argv in series]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert shared == [run_cli(capsys, *argv) for argv in series]
    assert [code for code, _, _ in shared] == codes
    for argv, (code, out, err) in zip(series, shared):
        if code == 2:
            assert json.loads(err)["error"] == "ConfigError"
        if argv[0] == "identities":
            assert json.loads(out)["seed"] == 20260815


# Runs in a fresh interpreter, since this session may have SciPy loaded:
# builds the parser, runs each argv given as JSON through main() and prints
# which SciPy modules are loaded after each step.
STARTUP_PROBE = """
import json, sys
import diskgeom, diskgeom.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
diskgeom.cli.build_parser()
steps = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    diskgeom.cli.main(argv)
    steps.append(scipy_modules())
print(json.dumps(steps))
"""


def test_no_command_imports_scipy():
    argvs = [
        ["eval", "--spec", "poly[0,1,0.3]", "--kind", "rad"],
        ["eval", "--spec", "poly[0,1,0.3]", "--kind", "area", "--area-method", "raster"],
        ["check", "schur", "--spec", "poly[0,0.5,0.3]"],
        ["identities", "--n-max", "16"],
        ["eval", "--spec", "poly[0,1,0.3]", "--kind", "diam"],
        ["eval", "--spec", "poly[0,1,0.3]", "--kind", "ndiam"],
        ["check", "poukka", "--spec", "poly[0,0,0,1]", "--n", "3"],
        ["fekete", "--spec", "poly[0,1]"],
        ["eval", "--spec", "poly[0,1,0.3]", "--kind", "perim"],
        ["counterexample", "--c", "0.5", "--points", "9"],
        # These test univalence.
        ["eval", "--spec", "poly[0,1,0.3]", "--kind", "area"],
        ["eval", "--spec", "poly[0,1,0.3]", "--kind", "cap"],
        ["check", "all", "--spec", "poly[0,1,0.2]"],
    ]
    path = [str(Path(diskgeom.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    # -W error: no step may warn either.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", STARTUP_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [[]] * (len(argvs) + 1)
