"""Task lists of the three workloads and the checks applied after each task.

Every task is a call a user makes: ``diskgeom.cli.main(argv)`` with stdout
and stderr captured where the CLI exposes the parameters, the library API
otherwise.  Package functions are looked up on their modules at call time,
so a tracer installed later sees the calls.

Inputs come from the workload seed: it draws a pre-rotation ``a`` and a
post-rotation ``b`` that every map is conjugated with, ``e^(ib) f(e^(ia) z)``
(the annulus cover has no rotation parameter and stays as it is).  Rotations
leave every functional, verdict and critical radius unchanged, so the
oracles and the known truths hold for every seed while the sample points,
coefficients and code paths' inputs differ.  The degree-5 polynomials are
positions in the stream ``numpy.random.default_rng(20260815)`` that the
acceptance test AC10 draws from.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import oracles

AC10_SEED = 20260815
SWEEP_KINDS = ("rad", "diam", "ndiam", "perim")
SWEEP_POINTS = 17
COUNTEREXAMPLE_POINTS = 33
# Grid positions of the counterexample study checked against mpmath.
COUNTEREXAMPLE_PROBES = (0, 16, 32)
N_DIAM = 4


def ac10_polynomial(index: int) -> np.ndarray:
    """Coefficients of polynomial ``index`` (0-based) of AC10's stream."""
    rng = np.random.default_rng(AC10_SEED)
    for _ in range(index):
        rng.standard_normal(6)
        rng.standard_normal(6)
    return rng.standard_normal(6) + 1j * rng.standard_normal(6)


def _c(w: complex) -> str:
    w = complex(w)
    return f"{w.real:.17g}{w.imag:+.17g}j"


@dataclass(frozen=True)
class Map:
    """One input map, as CLI shorthand plus what the oracles need."""

    text: str
    kind: str  # "poly", "moebius" or "annulus"
    params: Any  # coefficients, (a, b, c) or the cover parameter
    pre: complex = 1.0  # e^(ia): the preimage of a point z is z / pre

    @property
    def abs_b(self) -> Optional[float]:
        """|b| when the map is a disk automorphism (a linear map counts, b = 0)."""
        if self.kind == "moebius":
            return abs(self.params[1])
        if self.kind == "poly" and len(self.params) == 2 and abs(abs(self.params[1]) - 1.0) < 1e-12:
            return 0.0
        return None

    def spec(self, diskgeom):
        if self.kind == "poly":
            return diskgeom.Polynomial(tuple(self.params))
        if self.kind == "moebius":
            return diskgeom.Moebius(*self.params)
        return diskgeom.AnnulusCover(self.params)


class Rotation:
    def __init__(self, seed: int):
        a, b = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 2)
        self.pre = complex(np.exp(1j * a))
        self.post = complex(np.exp(1j * b))

    def poly(self, coeffs) -> Map:
        c = tuple(self.post * self.pre**k * complex(a) for k, a in enumerate(coeffs))
        return Map("poly[" + ",".join(_c(a) for a in c) + "]", "poly", c, self.pre)

    def moebius(self, a, b, c) -> Map:
        # e^(ib) f(e^(ia) z) = Moebius(e^(ib) a, b e^(-ia), e^(ib) e^(ia) c).
        p = (self.post * a, b / self.pre, self.post * self.pre * c)
        return Map("moebius(" + ",".join(_c(x) for x in p) + ")", "moebius", p, self.pre)

    @staticmethod
    def annulus(c: float) -> Map:
        return Map(f"annulus({c:.17g})", "annulus", float(c))


# ---- task plumbing ----


class Record:
    """What the checks found for one run of one task."""

    def __init__(self):
        self.failures = []  # the task failed: raised, exit != 0, or a wrong verdict
        self.malformed = []  # the output is not what the interface promises
        self.values = []  # (label, estimate, oracle, error bar or None)

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def bad(self, why: str) -> None:
        self.malformed.append(why)

    def compare(self, label, estimate, oracle, bar=None) -> None:
        self.values.append((label, float(estimate), float(oracle), None if bar is None else float(bar)))


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Record], None]


def _cli(diskgeom, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = diskgeom.cli.main(argv)
        except SystemExit as exc:  # argument errors exit like the console script
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def cli_task(diskgeom, name, argv, check) -> Task:
    """A CLI call whose check gets the parsed JSON lines of a clean exit."""

    def checked(result, rec):
        rc, out, err = result
        if rc not in (0, 1):
            rec.fail(f"exit {rc}: {err.strip()[:200]}")
            return
        try:
            lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        except json.JSONDecodeError as exc:
            rec.bad(f"stdout is not JSON lines: {exc}")
            return
        if not lines:
            rec.bad("no output")
            return
        if rc == 1:
            rec.fail("exit 1: a check reported FAIL")
        check(lines, rec)

    return Task(name, lambda: _cli(diskgeom, argv), checked)


# ---- curves ----


def _normalizer(kind: str, r: float) -> float:
    return {
        "rad": r,
        "diam": 2.0 * r,
        "ndiam": N_DIAM ** (1.0 / (N_DIAM - 1)) * r,
        "perim": 2.0 * math.pi * r,
    }[kind]


def _functional_oracle(kind: str, m: Map):
    """r -> reference value of one boundary functional, or None."""
    if m.abs_b is not None:
        return lambda r: oracles.moebius_functional(kind, m.abs_b, r, N_DIAM)
    if kind == "perim":
        fprime = oracles.derivative_for(m.kind, m.params)
        return lambda r: oracles.circle_length(fprime, r)
    if kind == "rad" and m.kind == "poly" and len(m.params) == 3:
        return lambda r: oracles.quadratic_radius(m.params, r)
    return None


def sweep_task(diskgeom, kind: str, label: str, m: Map) -> Task:
    oracle = _functional_oracle(kind, m)
    refs = {}  # r -> reference phi, filled on first use and outside timing

    def check(lines, rec):
        p = lines[0]
        rs, phi, errs = p["r"], p["phi"], p["abs_error"]
        if not (len(rs) == len(phi) == len(errs) == SWEEP_POINTS):
            rec.bad(f"expected {SWEEP_POINTS} grid points")
            return
        verdicts = p["verdicts"]
        if not verdicts["monotone"]["ok"]:
            rec.fail("monotone verdict is false; phi is non-decreasing for every analytic map")
        if kind in ("rad", "ndiam") and not verdicts.get("log_convex", {}).get("ok"):
            rec.fail("log_convex verdict is false; phi is log-convex for this kind")
        if oracle is None:
            return
        for r, value, err in zip(rs, phi, errs):
            if r not in refs:
                refs[r] = oracle(r) / _normalizer(kind, r)
            rec.compare(f"{kind} {label} r={r:.4g}", value, refs[r], err)

    argv = ["sweep", "--spec", m.text, "--kind", kind, "--format", "json", "--n", str(N_DIAM)]
    return cli_task(diskgeom, f"sweep-{kind}-{label}", argv, check)


def counterexample_task(diskgeom, c: float) -> Task:
    xs = np.linspace(0.125, 4.125, COUNTEREXAMPLE_POINTS)[::-1]  # increasing r
    refs = {}

    def check(lines, rec):
        p = lines[0]
        areas = p["A"]
        if len(areas) != COUNTEREXAMPLE_POINTS or len(p["logA_second_diff"]) != COUNTEREXAMPLE_POINTS - 2:
            rec.bad(f"expected {COUNTEREXAMPLE_POINTS} grid points")
            return
        if c < 1.0 and not p["has_negative_second_diff"]:
            rec.fail("no negative second difference of log A; the area curve is not log-convex")
        for i in COUNTEREXAMPLE_PROBES:
            if i not in refs:
                refs[i] = oracles.counterexample_area(c, float(xs[i]))
            rec.compare(f"counterexample c={c} A[{i}]", areas[i], refs[i])

    argv = ["counterexample", "--c", f"{c:g}", "--format", "json"]
    return cli_task(diskgeom, f"counterexample-c{c:g}", argv, check)


def curves(diskgeom, rot: Rotation) -> list:
    maps = {
        "identity": rot.poly((0, 1)),
        "quadratic": rot.poly((0, 1, 0.3)),
        "moebius": rot.moebius(0, 0.5, 1),
        "annulus1": rot.annulus(1.0),
        "ac10poly0": rot.poly(ac10_polynomial(0)),
    }
    tasks = [sweep_task(diskgeom, kind, label, m) for kind in SWEEP_KINDS for label, m in maps.items()]
    return tasks + [counterexample_task(diskgeom, c) for c in (0.1, 1.0, 3.0)]


# ---- checks ----


def chain_task(diskgeom, label: str, m: Map, r: float) -> Task:
    """AC10's call: the Polya chain, raster area, circle length, isoperimetry."""
    coeffs = m.params
    spec = m.spec(diskgeom)

    def run():
        polya, areadn = diskgeom.check_polya_chain(
            spec, r, n=4, tol=0.0, m=1024, resolution=256, seed=AC10_SEED
        )
        a = diskgeom.area(spec, r, resolution=256)
        length = diskgeom.circle_image_length(spec, r)
        iso_tol = 3.0 * (4.0 * math.pi * a.abs_error + 2.0 * length.value * length.abs_error)
        iso = diskgeom.check_isoperimetric(a.value, length.value, tol=iso_tol)
        return polya, areadn, a, length, iso

    crit = oracles.critical_radius(coeffs)
    univalent = oracles.certified_univalent(coeffs, r)
    refs = {}

    def check(result, rec):
        polya, areadn, a, length, iso = result
        for rep in (polya, areadn, iso):
            if not rep.passed:
                rec.fail(f"{rep.name} FAIL on a true inequality")
        method = polya.context["area_method"]
        if crit < r and method == "series":
            rec.fail(f"false univalent: area_method=series with f'(z) = 0 at |z| = {crit:.4f} < r")
        if not refs:
            refs["length"] = oracles.circle_length(oracles.derivative_for("poly", coeffs), r)
            refs["area"] = oracles.series_area(coeffs, r)
        rec.compare(f"length {label} r={r}", length.value, refs["length"], length.abs_error)
        if univalent:
            rec.compare(f"raster area {label} r={r}", a.value, refs["area"], a.abs_error)
            rec.compare(f"chain area {label} r={r}", polya.lhs, refs["area"], polya.context["area_error"])

    return Task(f"chain-{label}-r{r}", run, check)


def checks(diskgeom, rot: Rotation, seed: int) -> list:
    p0 = rot.poly(ac10_polynomial(0))
    tasks = [chain_task(diskgeom, "ac10poly0", p0, r) for r in (0.3, 0.6, 0.9)]
    # Known false "univalent" verdicts: critical points at |z| = 0.2995 and 0.581.
    tasks.append(chain_task(diskgeom, "ac10poly8", rot.poly(ac10_polynomial(8)), 0.3))
    tasks.append(chain_task(diskgeom, "ac10poly11", rot.poly(ac10_polynomial(11)), 0.6))

    # Don: equality exactly at z = 2b / (1 + |b|^2) for a disk automorphism.
    mob = rot.moebius(0, 0.5, 1)
    b = mob.params[1]
    z_eq = 2.0 * b / (1.0 + abs(b) ** 2)

    def check_don(lines, rec):
        rep = lines[0]
        if not rep["equality"]:
            rec.fail("no equality flag at the extremal point of Don's bound")
        rec.compare("don lhs", rep["lhs"], abs(z_eq) * (1 - abs(b) ** 2) / abs(1 - np.conj(b) * z_eq))
        rec.compare("don rhs", rep["rhs"], 2 * abs(z_eq) / (1 + math.sqrt(1 - abs(z_eq) ** 2)))
        rec.compare("don diameter", rep["context"]["diam_estimate"], 2.0)

    cube = rot.poly((0, 0, 0, 1))

    def check_poukka(lines, rec):
        rep = lines[0]
        if not rep["equality"]:
            rec.fail("no equality flag for the monomial z^3 in Poukka's bound")
        rec.compare("poukka lhs", rep["lhs"], 1.0)
        rec.compare("poukka rhs", rep["rhs"], 1.0, 0.5 * rep["context"]["diam_error"])

    square = rot.poly((0, 0, 1))

    def check_schur(lines, rec):
        rep = lines[0]
        if not rep["equality"]:
            rec.fail("no equality flag for z^2 in Schur's bound")
        rec.compare("schur lhs", rep["lhs"], 0.25, rep["context"]["lhs_error"])
        rec.compare("schur rhs", rep["rhs"], 0.25)

    def check_identities(lines, rec):
        p = lines[0]
        for key in ("lemma_ok", "second_sum_ok", "vandermonde_ok", "hadamard_ok"):
            if not p[key]:
                rec.fail(f"identities: {key} is false")

    return tasks + [
        cli_task(diskgeom, "check-don", ["check", "don", "--spec", mob.text, f"--z={_c(z_eq)}"], check_don),
        cli_task(diskgeom, "check-poukka", ["check", "poukka", "--spec", cube.text, "--n", "3"], check_poukka),
        cli_task(diskgeom, "check-schur", ["check", "schur", "--spec", square.text, "--r", "0.5"], check_schur),
        cli_task(diskgeom, "identities", ["identities", "--seed", str(seed)], check_identities),
    ]


# ---- area ----


def _area_oracle(m: Map, r: float) -> float:
    if m.abs_b is not None:
        return oracles.moebius_functional("area", m.abs_b, r)
    if m.kind == "annulus":
        return oracles.annulus_area(m.params, r)
    c = m.params
    if oracles.certified_univalent(c, r):
        return oracles.series_area(c, r)
    # A monomial c z^k covers the disk of radius |c| r^k.
    k = len(c) - 1
    return math.pi * abs(c[k]) ** 2 * r ** (2 * k)


def area_task(diskgeom, label: str, m: Map, r: float) -> Task:
    refs = {}

    def check(lines, rec):
        p = lines[0]
        if "value" not in refs:
            refs["value"] = _area_oracle(m, r)
        rec.compare(f"area {label} r={r}", p["value"], refs["value"], p["abs_error"])

    argv = ["eval", "--spec", m.text, "--kind", "area", "--area-method", "raster", "--r", str(r)]
    return cli_task(diskgeom, f"area-{label}-r{r}", argv, check)


def density_task(diskgeom, label: str, m: Map, z: complex, density: float) -> Task:
    """``check density`` at the point that the rotated map sends where the original sends z."""
    z_pre = z / m.pre
    refs = {}

    def check(lines, rec):
        rep = lines[0]
        if not refs:
            refs["area"] = _area_oracle(m, 0.999)
        ctx = rep["context"]
        rec.compare(f"density {label} lhs", rep["lhs"], density)
        rec.compare(f"density {label} rhs", rep["rhs"], math.sqrt(math.pi / refs["area"]), ctx["rhs_error"])
        rec.compare(f"density {label} area", ctx["area"], refs["area"], ctx["area_error"])

    argv = ["check", "density", "--spec", m.text, f"--z={_c(z_pre)}"]
    return cli_task(diskgeom, f"density-{label}", argv, check)


def area(diskgeom, rot: Rotation) -> list:
    square = rot.poly((0, 0, 1))
    cases = [
        ("square", square, 0.5),
        ("square", square, 0.7),
        ("identity", rot.poly((0, 1)), 0.9),
        ("quadratic", rot.poly((0, 1, 0.3)), 0.9),
        ("moebius", rot.moebius(0, 0.5, 1), 0.9),
        ("annulus1", rot.annulus(1.0), 0.5),
        ("annulus1", rot.annulus(1.0), 0.8),
        ("annulus3", rot.annulus(3.0), 0.9),
    ]
    tasks = [area_task(diskgeom, label, m, r) for label, m, r in cases]

    # Densities at f(z) of the unrotated maps: 1 / (2c) for the annulus
    # cover at z = 0, and the Moebius closed form at z = 0.3 with b = 0.5.
    tasks.append(density_task(diskgeom, "annulus1", rot.annulus(1.0), 0.0, 0.5))
    tasks.append(density_task(
        diskgeom, "moebius", rot.moebius(0, 0.5, 1), 0.3, oracles.moebius_density(0.5, 0.15, 0.3)
    ))

    identity = rot.poly((0, 1))

    def run_distance():
        return diskgeom.dist_to_boundary(identity.spec(diskgeom), 0.0)

    def check_distance(result, rec):
        dist, diag = result
        rec.compare("distance to the boundary of 0.999 D", dist, 0.999, diag)

    tasks.append(Task("dist-to-boundary-identity", run_distance, check_distance))
    return tasks


WORKLOADS = ("curves", "checks", "area")


def build(name: str, diskgeom, seed: int) -> list:
    rot = Rotation(seed)
    if name == "curves":
        return curves(diskgeom, rot)
    if name == "checks":
        return checks(diskgeom, rot, seed)
    if name == "area":
        return area(diskgeom, rot)
    raise ValueError(f"unknown workload {name!r}")
