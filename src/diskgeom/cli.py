"""Command-line front door: evaluate functionals, sweep growth curves,
run inequality checks, and emit the annulus-cover study as CSV or JSON.

Output contract: identical arguments and seed produce byte-identical
output.  Floats are printed with 17 significant digits in CSV; every
data row carries the spec hash and the seed.  Exit status is 2 on
configuration errors (with a JSON error object on stderr), 1 when any
check FAILs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

from .analytic import SPEC_KINDS, AnnulusCover, FunctionSpec, _c2j, spec_from_json, spec_hash
from .bounds import (
    check_don,
    check_don_symmetric,
    check_growth,
    check_isoperimetric,
    check_polya_chain,
    check_poukka,
    check_schur,
    report_to_json,
)
from .counterexample import check_not_log_convex
from .errors import DiskGeomError, DomainError, NormalizationError
from .functionals import (
    DEFAULT_RESOLUTION,
    KINDS,
    FunctionalValue,
    _area_by_method,
    circle_image_length,
    n_diameter,
)
from .growth import default_grid, phi_curve
from .hyperbolic import check_density_lower_bound
from .identities import fekete_witness_is_roots, identity_suite

def _g(x: float) -> str:
    return format(float(x), ".17g")


def _write_json(out, payload: dict) -> None:
    """One JSON object per line with sorted keys, on stdout and stderr alike."""
    out.write(json.dumps(payload, sort_keys=True) + "\n")


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise DiskGeomError(f"{flag} expects a complex literal, got {text!r}") from exc


def parse_spec(text: str) -> FunctionSpec:
    """Function spec from inline JSON, a JSON file path, or shorthand.

    Shorthand forms: poly[c0,c1,...], series[c0,c1,...], moebius(a,b,c),
    annulus(c).  Entries are complex literals like 0.5, 1j, or 0.3+0.4j.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            return spec_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise DiskGeomError(f"spec JSON does not parse: {exc}") from exc
    for cls in SPEC_KINDS.values():
        name, brackets = cls.shorthand
        if text.startswith(name + brackets[0]) and text.endswith(brackets[1]):
            parts = [p for p in text[len(name) + 1 : -1].split(",") if p.strip()]
            return cls.from_args([_parse_complex(p, name) for p in parts])
    try:
        with open(text) as handle:
            return spec_from_json(json.load(handle))
    except OSError as exc:
        raise DiskGeomError(
            f"spec {text!r} is not JSON, a known shorthand, or a readable file"
        ) from exc
    except json.JSONDecodeError as exc:
        raise DiskGeomError(f"spec file {text!r} does not parse: {exc}") from exc


def _functional_payload(fv: FunctionalValue, spec_h: str, seed: int, r: float) -> dict:
    return {
        "command": "eval",
        "kind": fv.kind,
        "r": r,
        "value": fv.value,
        "abs_error": fv.abs_error,
        "interval": list(fv.interval) if fv.interval is not None else None,
        "n": fv.n,
        "flags": list(fv.flags),
        "witness": [_c2j(w) for w in fv.witness] if fv.witness is not None else None,
        "spec": spec_h,
        "seed": seed,
    }


def _cmd_eval(args, out) -> int:
    spec = parse_spec(args.spec)
    h = spec_hash(spec)
    fv = KINDS[args.kind].estimate(
        spec, args.r, args.n, resolution=args.resolution, seed=args.seed,
        area_method=args.area_method,
    )
    if args.format == "json":
        _write_json(out, _functional_payload(fv, h, args.seed, args.r))
    else:
        out.write("kind,r,value,abs_error,spec,seed\n")
        out.write(
            f"{fv.kind},{_g(args.r)},{_g(fv.value)},{_g(fv.abs_error)},{h},{args.seed}\n"
        )
    return 0


def _cmd_sweep(args, out) -> int:
    spec = parse_spec(args.spec)
    grid = default_grid(args.points, args.r_min, args.r_max)
    curve = phi_curve(
        spec, args.kind, grid, n=args.n, resolution=args.resolution,
        seed=args.seed, area_method=args.area_method,
    )
    if args.format == "json":
        payload = {
            "command": "sweep",
            "kind": curve.kind,
            "normalization": curve.normalization,
            "r": list(curve.r_grid),
            "phi": list(curve.phi),
            "abs_error": list(curve.abs_errors),
            "n": curve.n,
            "flags": list(curve.flags),
            "verdicts": curve.verdicts,
            "spec": curve.spec_hash,
            "seed": args.seed,
        }
        _write_json(out, payload)
        return 0
    out.write(
        f"# kind={curve.kind},normalization={curve.normalization},"
        f"spec={curve.spec_hash},seed={args.seed}\n"
    )
    out.write("r,phi,abs_error,spec,seed\n")
    for r, p, e in zip(curve.r_grid, curve.phi, curve.abs_errors):
        out.write(f"{_g(r)},{_g(p)},{_g(e)},{curve.spec_hash},{args.seed}\n")
    for name, verdict in curve.verdicts.items():
        fields = ",".join(
            f"{k}={_g(v) if isinstance(v, float) else v}" for k, v in verdict.items()
        )
        out.write(f"# verdict {name}: {fields}\n")
    return 0


def _check_don_symmetric(spec: FunctionSpec, args) -> list:
    if args.w is None:
        raise DiskGeomError("check don-symmetric needs --w")
    return [check_don_symmetric(spec, args.z, args.w, tol=args.tol)]


def _check_isoperimetric(spec: FunctionSpec, args) -> list:
    a = _area_by_method(spec, args.r, args.area_method, args.resolution)
    length = circle_image_length(spec, args.r)
    # Propagate estimator errors through both sides: lhs = 4 pi A, rhs = L^2.
    slack_err = 4.0 * math.pi * a.abs_error + 2.0 * length.value * length.abs_error
    return [check_isoperimetric(a.value, length.value, tol=max(args.tol, 3.0 * slack_err))]


# Check name -> runner(spec, args) returning its reports, in the order of
# the CLI's choices and of `check all`.
CHECKS = {
    "growth": lambda spec, args: [
        check_growth(spec, args.r, args.kind, tol=args.tol, n=args.n)
    ],
    "don": lambda spec, args: [check_don(spec, args.z, tol=args.tol)],
    "don-symmetric": _check_don_symmetric,
    "poukka": lambda spec, args: [check_poukka(spec, args.n, tol=args.tol)],
    "schur": lambda spec, args: [check_schur(spec, args.r, tol=args.tol)],
    "isoperimetric": _check_isoperimetric,
    "polya": lambda spec, args: check_polya_chain(
        spec, args.r, n=args.n, tol=args.tol, resolution=args.resolution,
        seed=args.seed, area_method=args.area_method,
    ),
    "density": lambda spec, args: [
        check_density_lower_bound(spec, args.z, resolution=args.resolution, tol=args.tol)
    ],
}
# `check all` skips growth, which needs a spec normalized per functional
# kind, and don-symmetric, which needs a second probe point.
NOT_IN_ALL = ("growth", "don-symmetric")


def _cmd_check(args, out) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise DomainError("--tol must be finite and non-negative")
    spec = parse_spec(args.spec)
    h = spec_hash(spec)
    names = [c for c in CHECKS if c not in NOT_IN_ALL] if args.name == "all" else [args.name]
    reports = []
    skipped = []
    for name in names:
        try:
            reports.extend(CHECKS[name](spec, args))
        except NormalizationError as exc:
            if args.name != "all":
                raise
            skipped.append((name, str(exc)))
    if args.format == "csv":
        out.write("name,lhs,rhs,slack,equality,passed,tol,spec,seed\n")
        for rep in reports:
            out.write(
                f"{rep.name},{_g(rep.lhs)},{_g(rep.rhs)},{_g(rep.slack)},"
                f"{rep.equality},{rep.passed},{_g(rep.tol)},{h},{args.seed}\n"
            )
        for name, reason in skipped:
            out.write(f"# skipped {name}: {reason}\n")
    else:
        for rep in reports:
            payload = json.loads(report_to_json(rep))
            payload.update(passed=rep.passed, spec=h, seed=args.seed)
            _write_json(out, payload)
        for name, reason in skipped:
            _write_json(out, {"name": name, "skipped": reason, "spec": h, "seed": args.seed})
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_counterexample(args, out) -> int:
    run = check_not_log_convex(
        args.c, x_min=args.x_min, x_max=args.x_max, points=args.points,
        quad_tol=args.tol,
    )
    h = spec_hash(AnnulusCover(args.c))
    if args.format == "json":
        payload = {
            "command": "counterexample",
            "c": run.c,
            "threshold": run.threshold,
            "r": list(run.r_grid),
            "A": list(run.A_values),
            "logA_second_diff": list(run.second_diffs),
            "regime": list(run.regimes),
            "has_negative_second_diff": run.has_negative_second_diff,
            "quad_tol": run.quad_tol,
            "spec": h,
            "seed": args.seed,
        }
        _write_json(out, payload)
        return 0
    out.write(
        f"# c={_g(run.c)},threshold={_g(run.threshold)},"
        f"quad_tol={_g(run.quad_tol)},spec={h},seed={args.seed}\n"
    )
    out.write("r,A,logA_second_diff,regime,spec,seed\n")
    m = len(run.r_grid)
    for i in range(m):
        # Second differences are centered; the end rows leave the column empty.
        sd = _g(run.second_diffs[i - 1]) if 0 < i < m - 1 else ""
        out.write(
            f"{_g(run.r_grid[i])},{_g(run.A_values[i])},{sd},"
            f"{run.regimes[i]},{h},{args.seed}\n"
        )
    out.write(
        f"# has_negative_second_diff={run.has_negative_second_diff},"
        f"min_second_diff={_g(min(run.second_diffs))}\n"
    )
    return 0


def _cmd_fekete(args, out) -> int:
    spec = parse_spec(args.spec)
    h = spec_hash(spec)
    fv = n_diameter(spec, args.r, args.n, seed=args.seed)
    witness = fv.witness or ()
    matches = fekete_witness_is_roots(witness, tol=args.tol)
    if args.format == "json":
        payload = {
            "command": "fekete",
            "n": args.n,
            "r": args.r,
            "value": fv.value,
            "abs_error": fv.abs_error,
            "points": [_c2j(w) for w in witness],
            "matches_rotated_roots": matches,
            "spec": h,
            "seed": args.seed,
        }
        _write_json(out, payload)
        return 0
    out.write(
        f"# n={args.n},r={_g(args.r)},value={_g(fv.value)},"
        f"abs_error={_g(fv.abs_error)},matches_rotated_roots={matches},"
        f"spec={h},seed={args.seed}\n"
    )
    out.write("index,re,im,spec,seed\n")
    for i, w in enumerate(witness):
        w = complex(w)
        out.write(f"{i},{_g(w.real)},{_g(w.imag)},{h},{args.seed}\n")
    return 0


def _cmd_identities(args, out) -> int:
    result = identity_suite(n_max=args.n_max, tuple_count=args.tuples, seed=args.seed)
    payload = dict(result, command="identities", n_max=args.n_max, seed=args.seed)
    ok = all(bool(v) for k, v in result.items() if k.endswith("_ok"))
    if args.format == "json":
        _write_json(out, payload)
    else:
        out.write("key,value,seed\n")
        for key in sorted(payload):
            if key in ("command",):
                continue
            value = payload[key]
            text = _g(value) if isinstance(value, float) else value
            out.write(f"{key},{text},{args.seed}\n")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _write_json(sys.stderr, {"error": "ConfigError", "message": message})
        raise SystemExit(2)


def _add_common(sub, *, spec=True, fmt_default="json"):
    if spec:
        sub.add_argument("--spec", required=True, help="function spec: JSON, file, or shorthand")
    sub.add_argument("--seed", type=int, default=0, help="seed for optimizer restarts")
    sub.add_argument("--format", choices=("csv", "json"), default=fmt_default)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args starts every call
    from a fresh namespace, so one call leaves nothing for the next."""
    parser = _Parser(prog="diskgeom", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p_eval = commands.add_parser("eval", help="one functional of the image f(r D)")
    _add_common(p_eval)
    p_eval.add_argument("--kind", choices=KINDS, required=True)
    p_eval.add_argument("--r", type=float, default=0.5)
    p_eval.add_argument("--n", type=int, default=4)
    p_eval.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p_eval.add_argument("--area-method", choices=("auto", "raster", "series"), default="auto")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = commands.add_parser("sweep", help="growth curve over a geometric radius grid")
    _add_common(p_sweep, fmt_default="csv")
    p_sweep.add_argument("--kind", choices=KINDS, required=True)
    p_sweep.add_argument("--r-min", type=float, default=0.05)
    p_sweep.add_argument("--r-max", type=float, default=0.95)
    p_sweep.add_argument("--points", type=int, default=17)
    p_sweep.add_argument("--n", type=int, default=4)
    p_sweep.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p_sweep.add_argument("--area-method", choices=("auto", "raster", "series"), default="auto")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = commands.add_parser("check", help="named inequality reports, exit 1 on FAIL")
    p_check.add_argument("name", choices=(*CHECKS, "all"))
    _add_common(p_check)
    p_check.add_argument("--kind", choices=KINDS, default="rad", help="growth check only")
    p_check.add_argument("--r", type=float, default=0.5)
    p_check.add_argument("--z", type=lambda s: _parse_complex(s, "--z"), default=0.5 + 0.0j)
    p_check.add_argument("--w", type=lambda s: _parse_complex(s, "--w"), default=None)
    p_check.add_argument("--n", type=int, default=4)
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p_check.add_argument("--area-method", choices=("auto", "raster", "series"), default="auto")
    p_check.set_defaults(func=_cmd_check)

    p_cx = commands.add_parser(
        "counterexample", help="annulus-cover area study across the univalence threshold"
    )
    _add_common(p_cx, spec=False, fmt_default="csv")
    p_cx.add_argument("--c", type=float, required=True, help="cover parameter, c > 0")
    p_cx.add_argument("--x-min", type=float, default=0.125)
    p_cx.add_argument("--x-max", type=float, default=4.125)
    p_cx.add_argument("--points", type=int, default=33)
    p_cx.add_argument("--tol", type=float, default=1e-8, help="quadrature tolerance")
    p_cx.set_defaults(func=_cmd_counterexample)

    p_fek = commands.add_parser("fekete", help="maximizing n-tuple for the n-diameter")
    _add_common(p_fek, fmt_default="csv")
    p_fek.add_argument("--n", type=int, default=4)
    p_fek.add_argument("--r", type=float, default=0.999)
    p_fek.add_argument("--tol", type=float, default=5e-3,
                       help="angle tolerance for the rotated-roots comparison")
    p_fek.set_defaults(func=_cmd_fekete)

    p_id = commands.add_parser("identities", help="exact root-of-unity and Vandermonde suite")
    _add_common(p_id, spec=False)
    p_id.add_argument("--n-max", type=int, default=64)
    p_id.add_argument("--tuples", type=int, default=200)
    p_id.set_defaults(func=_cmd_identities)
    p_id.set_defaults(seed=20260815)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except DiskGeomError as exc:
        _write_json(sys.stderr, {"error": type(exc).__name__, "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
