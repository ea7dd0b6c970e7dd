"""Golden CLI gate: the exact stdout and exit code of a fixed command set.

Each case runs ``diskgeom.cli.main`` in-process and compares its stdout,
byte for byte, and its exit code with the files under ``tests/golden``.
The files are written once and then only read; to record an intended
change of output, run ``python tests/test_golden.py --write`` with the
package on the path and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from diskgeom.cli import main

GOLDEN = Path(__file__).parent / "golden"
POLY = "poly[0,1,0.2]"

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
    "sweep_cap_moebius_jobs2": [
        "sweep", "--spec", "moebius(0,0.5,1)", "--kind", "cap", "--points", "5",
        "--resolution", "256", "--jobs", "2", "--format", "json",
    ],
    "check_all_csv": ["check", "all", "--spec", POLY, "--format", "csv"],
    "check_all_json": ["check", "all", "--spec", "moebius(0,0.5,1)", "--format", "json"],
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


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], out = run(CASES[name])
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write_golden()
