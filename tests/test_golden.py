"""Golden CLI gate: the exact stdout and exit code of a fixed command set.

Each case runs ``diskgeom.cli.main`` in-process and compares its stdout,
byte for byte, and its exit code with the files under ``tests/golden``.
The files are written once and then only read; to record an intended
change of output, run ``python tests/test_golden.py --write`` and review
the diff; run as a script, the file puts ``src/`` on the path itself.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diskgeom.cli import main  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"
POLY = "poly[0,1,0.2]"
# Not univalent on 0.9 D: f'(z) = 1 + 1.2 z vanishes at z = -0.833.
CRITICAL = "poly[0,1,0.6]"
# Polynomial 0 of the acceptance test AC10's stream, numpy.random.default_rng(20260815).
AC10_POLY0 = (
    "poly[0.25192859815738317-0.68406499195177362j,0.54705643258170855-2.4124487853532783j,"
    "0.069401015516602646+0.17463714547323439j,-0.18322976220469084+0.88955835408099337j,"
    "-0.1657153301845341+1.0558162766139239j,-1.4244484668168733+0.91476230782625456j]"
)

CASES = {
    **{
        f"eval_{kind}": ["eval", "--spec", POLY, "--kind", kind, "--r", "0.5"]
        for kind in ("rad", "diam", "ndiam", "cap", "area", "perim")
    },
    "eval_area_annulus_raster": [
        "eval", "--spec", "annulus(1)", "--kind", "area", "--area-method", "raster",
    ],
    "eval_cap_moebius": ["eval", "--spec", "moebius(0,0.5,1)", "--kind", "cap"],
    "eval_rad_csv": ["eval", "--spec", POLY, "--kind", "rad", "--r", "0.5", "--format", "csv"],
    **{
        f"sweep_{kind}": ["sweep", "--spec", POLY, "--kind", kind, "--points", "5"]
        for kind in ("rad", "diam", "ndiam", "perim")
    },
    "sweep_diam_annulus": ["sweep", "--spec", "annulus(1)", "--kind", "diam", "--points", "5"],
    "sweep_ndiam_annulus_n6": [
        "sweep", "--spec", "annulus(1)", "--kind", "ndiam", "--n", "6", "--points", "5",
    ],
    # The default 17-point grid at full JSON precision.
    "sweep_ndiam_ac10poly0": ["sweep", "--spec", AC10_POLY0, "--kind", "ndiam", "--format", "json"],
    "sweep_diam_moebius": ["sweep", "--spec", "moebius(0,0.5,1)", "--kind", "diam", "--format", "json"],
    "eval_ndiam_moebius_n3": [
        "eval", "--spec", "moebius(0,0.5,1)", "--kind", "ndiam", "--n", "3", "--r", "0.9",
    ],
    "sweep_cap": [
        "sweep", "--spec", POLY, "--kind", "cap", "--points", "5", "--resolution", "256",
    ],
    "sweep_area": [
        "sweep", "--spec", POLY, "--kind", "area", "--points", "5", "--resolution", "256",
    ],
    "sweep_area_raster": [
        "sweep", "--spec", POLY, "--kind", "area", "--points", "5", "--resolution", "256",
        "--area-method", "raster",
    ],
    "sweep_cap_moebius": [
        "sweep", "--spec", "moebius(0,0.5,1)", "--kind", "cap", "--points", "5",
        "--resolution", "256", "--format", "json",
    ],
    # f' vanishes at -0.833 inside 0.9 D, so "auto" picks the raster area.
    "eval_area_critical": ["eval", "--spec", CRITICAL, "--kind", "area", "--r", "0.9"],
    "check_polya_critical": ["check", "polya", "--spec", CRITICAL, "--r", "0.9"],
    "sweep_area_critical_json": [
        "sweep", "--spec", CRITICAL, "--kind", "area", "--points", "5", "--resolution", "256",
        "--format", "json",
    ],
    # A constant map: f' vanishes everywhere.
    "check_all_constant": ["check", "all", "--spec", "poly[2]"],
    "check_all_csv": ["check", "all", "--spec", POLY, "--format", "csv"],
    "check_all_json": ["check", "all", "--spec", "moebius(0,0.5,1)", "--format", "json"],
    "check_all_annulus": ["check", "all", "--spec", "annulus(1)", "--format", "csv"],
    **{
        f"check_growth_{kind}": ["check", "growth", "--spec", "poly[0,1]", "--kind", kind]
        for kind in ("rad", "diam", "ndiam", "cap", "area", "perim")
    },
    "check_growth_unnormalized": ["check", "growth", "--spec", "poly[0,3]", "--kind", "rad"],
    "check_don_symmetric": [
        "check", "don-symmetric", "--spec", "moebius(0,0.5,1)", "--z", "0.3", "--w=-0.2j",
    ],
    "check_poukka": ["check", "poukka", "--spec", "poly[0,0,0,1]", "--n", "3"],
    "counterexample": ["counterexample", "--c", "0.5", "--points", "9"],
    "counterexample_json": [
        "counterexample", "--c", "0.5", "--points", "9", "--format", "json",
    ],
    "fekete": ["fekete", "--spec", "poly[0,1]"],
    "fekete_json": ["fekete", "--spec", "poly[0,1]", "--format", "json"],
    "identities": ["identities", "--n-max", "16"],
    "identities_default": ["identities"],
    "identities_seed7": ["identities", "--n-max", "40", "--tuples", "1000", "--seed", "7"],
    "identities_csv": ["identities", "--n-max", "16", "--format", "csv"],
}


def run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = run(CASES[name])
    assert code == exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


# Runs every case in a fresh interpreter in which SciPy cannot be imported,
# and prints the names of the cases whose exit code or stdout differ.
NO_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None
import test_golden
codes = test_golden.exit_codes()
print(json.dumps([
    name for name, argv in sorted(test_golden.CASES.items())
    if test_golden.run(argv) != (codes[name], (test_golden.GOLDEN / f"{name}.out").read_text())
]))
"""


def test_cli_output_matches_golden_without_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(Path(__file__).parent), str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", NO_SCIPY_PROBE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], out = run(CASES[name])
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print("usage: python tests/test_golden.py --write", file=sys.stderr)
        sys.exit(2)
    write_golden()
