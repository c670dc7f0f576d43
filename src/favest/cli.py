"""Command line surface: quadrature generation and checks, transforms, and
the roundtrip/repeat/bench/stability experiment tables as CSV.

Exit codes: 0 on success (and on passing checks), 1 when a numerical check
fails, 2 for usage or file errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields

import numpy as np

from . import io as fio
from .core import TangentFieldSamples
from .diagnostics import BenchRecord, StabilityReport, bench, stability_ratios
from .fields import TANGENT_FIELDS, get_field
from .quadrature import gen_gl_tensor, load_design, verify_exactness
from .transforms import (
    adjoint_favest,
    forward_favest,
    repeat_transform_errors,
    roundtrip,
)


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    return [int(tok) for tok in tokens]


def _default_exactness(args, lmax: int) -> int:
    # lossless regime for a degree-lmax transform (scalar stage runs at lmax+1)
    return args.exactness if args.exactness is not None else 2 * (lmax + 1)


def _resolve_rule(args, lmax: int):
    """Build the rule named by --rule {gl | design FILE} for one degree."""
    spec = args.rule
    t = _default_exactness(args, lmax)
    if spec[0] == "gl":
        if len(spec) != 1:
            raise ValueError("--rule gl takes no file argument")
        return gen_gl_tensor(t)[1], "gl"
    if spec[0] == "design":
        if len(spec) != 2:
            raise ValueError("--rule design requires a point file")
        return load_design(spec[1], t), "design"
    raise ValueError(f"unknown rule kind {spec[0]!r}; use 'gl' or 'design FILE'")


def _field_samples(field_name: str, rule) -> TangentFieldSamples:
    field = get_field(field_name)
    return TangentFieldSamples(rule.points, field(rule.points))


def _random_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    vecs = rng.standard_normal((n, 3))
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0.0] = 1.0
    return vecs / norms[:, None]


def cmd_quad_gen_gl(args) -> int:
    _grid, rule = gen_gl_tensor(args.exactness)
    fio.write_rule_file(args.out, rule)
    print(f"wrote {len(rule)} points (exactness {args.exactness}) to {args.out}")
    return 0


def cmd_quad_check(args) -> int:
    rule = fio.read_rule_file(args.file, args.exactness)
    defect, passed = verify_exactness(rule, args.exactness)
    verdict = "PASS" if passed else "FAIL"
    print(f"exactness {args.exactness}: max defect {defect:.17g} -> {verdict}")
    return 0 if passed else 1


def cmd_fwd(args) -> int:
    lmax = args.degree
    rule = fio.read_rule_file(args.points, _default_exactness(args, lmax))
    if args.field in TANGENT_FIELDS:
        samples = _field_samples(args.field, rule)
    else:
        samples = fio.read_samples(args.field)
    coeffs = forward_favest(samples, rule, lmax)
    fio.write_coefficients(args.out, coeffs)
    print(f"wrote degree-{lmax} coefficients to {args.out}")
    return 0


def cmd_adj(args) -> int:
    coeffs = fio.read_coefficients(args.coeffs)
    rule = fio.read_rule_file(args.points, 0)
    samples = adjoint_favest(coeffs, rule)
    fio.write_samples(args.out, samples)
    print(f"wrote {len(samples)} synthesized samples to {args.out}")
    return 0


def cmd_roundtrip(args) -> int:
    rows = []
    for lmax in args.degrees:
        rule, rule_name = _resolve_rule(args, lmax)
        samples = _field_samples(args.field, rule)
        result = roundtrip(samples, rule, lmax)
        rows.append(
            (args.field, rule_name, lmax, len(rule), result.rel_l2, result.max_abs)
        )
    fio.write_csv(args.out, ("field", "rule", "L", "N", "rel_l2", "max_abs"), rows)
    print(f"wrote {len(rows)} roundtrip rows to {args.out}")
    return 0


def cmd_repeat(args) -> int:
    lmax = args.degree
    rule, rule_name = _resolve_rule(args, lmax)
    samples = _field_samples(args.field, rule)
    errors = repeat_transform_errors(samples, rule, lmax)
    header = ("field", "rule", "L", "N", *errors._fields)
    fio.write_csv(args.out, header, [(args.field, rule_name, lmax, len(rule), *errors)])
    print(
        f"repeat field {args.field} L={lmax}: |T1-T0|={errors.first_vs_input:.6e} "
        f"|T2-T1|={errors.second_vs_first:.6e} drift={errors.coefficient_drift:.6e}"
    )
    return 0


def cmd_bench(args) -> int:
    records = bench(args.degrees, repetitions=args.reps, seed=args.seed)
    rows = [astuple(r) for r in records]
    fio.write_csv(args.out, [f.name for f in fields(BenchRecord)], rows)
    print(f"wrote {len(rows)} bench rows to {args.out}")
    return 0


def cmd_stability(args) -> int:
    rng = np.random.default_rng(args.seed)
    per_point = ("ratio_div_per_point", "ratio_curl_per_point")
    rows = []
    for n in args.n_list:
        if n < 1:
            raise ValueError(f"point counts must be >= 1, got {n}")
        report = stability_ratios(args.degree, _random_sphere(rng, n))
        rows.append((*astuple(report), *(getattr(report, name) for name in per_point)))
    header = (*(f.name for f in fields(StabilityReport)), *per_point)
    fio.write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} stability rows to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="favest",
        description="Fast forward and adjoint vector spherical harmonic transforms.",
    )
    sub = parser.add_subparsers(dest="command")

    quad = sub.add_parser("quad", help="generate and certify quadrature rules")
    quad_sub = quad.add_subparsers(dest="quad_command")
    gen = quad_sub.add_parser("gen-gl", help="write a Gauss-Legendre tensor rule")
    gen.add_argument("--exactness", type=_nonneg_int, required=True, metavar="T")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=cmd_quad_gen_gl)
    check = quad_sub.add_parser("check", help="certify a rule file's exactness")
    check.add_argument("--file", required=True)
    check.add_argument("--exactness", type=_nonneg_int, required=True, metavar="T")
    check.set_defaults(handler=cmd_quad_check)

    fwd = sub.add_parser(
        "fwd", help="forward transform: samples at rule points -> coefficients"
    )
    fwd.add_argument("--points", required=True, help="rule file (x y z [w])")
    fwd.add_argument(
        "--field", required=True, help="field name (a|b|c) or a samples CSV file"
    )
    fwd.add_argument("--degree", type=_nonneg_int, required=True, metavar="L")
    fwd.add_argument("--exactness", type=_nonneg_int, default=None, metavar="T")
    fwd.add_argument("--out", required=True)
    fwd.set_defaults(handler=cmd_fwd)

    adj = sub.add_parser(
        "adj", help="adjoint transform: coefficients -> samples at given points"
    )
    adj.add_argument("--coeffs", required=True)
    adj.add_argument("--points", required=True, help="rule file (weights ignored)")
    adj.add_argument("--out", required=True)
    adj.set_defaults(handler=cmd_adj)

    rt = sub.add_parser(
        "roundtrip", help="forward+adjoint error table over degrees"
    )
    rt.add_argument("--field", choices=sorted(TANGENT_FIELDS), required=True)
    rt.add_argument(
        "--rule", nargs="+", default=["gl"], metavar=("KIND", "FILE"),
        help="'gl' or 'design FILE'",
    )
    rt.add_argument("--degrees", type=_int_list, required=True, metavar="LIST")
    rt.add_argument("--exactness", type=_nonneg_int, default=None, metavar="T")
    rt.add_argument("--out", required=True)
    rt.set_defaults(handler=cmd_roundtrip)

    rp = sub.add_parser(
        "repeat", help="errors of applying the roundtrip twice"
    )
    rp.add_argument("--field", choices=sorted(TANGENT_FIELDS), required=True)
    rp.add_argument(
        "--rule", nargs="+", default=["gl"], metavar=("KIND", "FILE"),
        help="'gl' or 'design FILE'",
    )
    rp.add_argument("--degree", type=_nonneg_int, required=True, metavar="L")
    rp.add_argument("--exactness", type=_nonneg_int, default=None, metavar="T")
    rp.add_argument("--out", required=True)
    rp.set_defaults(handler=cmd_repeat)

    bn = sub.add_parser(
        "bench", help="time forward/adjoint transforms over degrees"
    )
    bn.add_argument("--degrees", type=_int_list, required=True, metavar="LIST")
    bn.add_argument("--reps", type=_nonneg_int, default=5)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", required=True)
    bn.set_defaults(handler=cmd_bench)

    st = sub.add_parser(
        "stability", help="harmonic-to-envelope ratio table over point counts"
    )
    st.add_argument("--degree", type=_nonneg_int, required=True, metavar="L")
    st.add_argument("--n-list", type=_int_list, required=True, metavar="LIST")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", required=True)
    st.set_defaults(handler=cmd_stability)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
