"""File formats for the CLI: rule files, coefficient files, sample files.

All floats are written with 17 significant digits so that write -> read is a
lossless double roundtrip. Readers accept '#' comment lines and blank lines.
Malformed content, a non-finite number included, raises ValueError naming
the file; the CLI maps that to its usage/IO exit code.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .core import (
    ScalarCoefficients,
    TangentFieldSamples,
    VectorCoefficients,
    check_int,
    flat_size,
    from_spherical,
    to_spherical,
)
from .quadrature import QuadratureRule, _parse_row, _read_columns, _renormalize

SAMPLES_HEADER = ("theta", "phi", "t1_re", "t1_im", "t2_re", "t2_im", "t3_re", "t3_im")


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_rule_file(path, rule: QuadratureRule) -> None:
    """Write a 4-column "x y z w" rule file."""
    with open(path, "w") as fh:
        fh.write(f"# quadrature rule: {len(rule.points)} points, exactness {rule.exactness}, kind {rule.kind}\n")
        for p, w in zip(rule.points, rule.weights):
            fh.write(" ".join(format_float(v) for v in (*p, w)) + "\n")


def read_rule_file(path, exactness: int) -> QuadratureRule:
    """Read "x y z" (equal weights, "spherical-design") or "x y z w" ("custom") rule files.

    The file carries no exactness metadata; the caller states the degree the
    rule is claimed to integrate. Use quadrature.verify_exactness to check it.
    A file that lists an iso-latitude tensor grid ring by ring, as
    ``write_rule_file`` writes a Gauss-Legendre rule, gives a rule with its
    ``TensorGrid`` back, as any ring-major rule has, so transforms on it can
    take the fast path.
    """
    data = _read_columns(path)
    if data.shape[1] not in (3, 4):
        raise ValueError(f"{path}: rule files have 3 or 4 columns, got {data.shape[1]}")
    points = _renormalize(data[:, :3], path)
    if data.shape[1] == 3:
        weights = np.full(len(points), 4.0 * np.pi / len(points))
        kind = "spherical-design"
    else:
        weights = data[:, 3].copy()
        kind = "custom"
    return QuadratureRule(points, weights, exactness, kind)


def write_coefficients(path, coeffs: VectorCoefficients) -> None:
    """Write a coefficient file: {"L_max": L, "a": [[re, im], ...], "b": ...}."""
    lmax = coeffs.lmax

    def array_text(values: np.ndarray) -> str:
        pairs = ", ".join(
            f"[{format_float(v.real)}, {format_float(v.imag)}]" for v in values
        )
        return f"[{pairs}]"

    with open(path, "w") as fh:
        fh.write("{\n")
        fh.write(f'  "L_max": {lmax},\n')
        fh.write(f'  "a": {array_text(coeffs.div.values)},\n')
        fh.write(f'  "b": {array_text(coeffs.curl.values)}\n')
        fh.write("}\n")


def read_coefficients(path) -> VectorCoefficients:
    with open(path) as fh:
        try:
            # NaN and +-Infinity, which JSON does not allow, read as their text and fail the number check.
            doc = json.load(fh, parse_constant=str)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid coefficient file: {exc}") from exc
    try:
        lmax = check_int(doc["L_max"], f"{path}: L_max", 1)
        raw_a, raw_b = doc["a"], doc["b"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing L_max/a/b fields") from exc
    size = flat_size(lmax)
    out = []
    for label, raw in (("a", raw_a), ("b", raw_b)):
        if not isinstance(raw, list):
            raise ValueError(f"{path}: array {label!r} is not a list of [re, im] pairs: {raw!r}")
        if len(raw) != size:
            raise ValueError(
                f"{path}: array {label!r} has {len(raw)} entries, expected {size} for L_max={lmax}"
            )
        values = np.empty(size, dtype=np.complex128)
        for k, pair in enumerate(raw):
            try:
                re, im = pair
                if not all(type(part) in (int, float) for part in (re, im)):  # JSON numbers only, not bool
                    raise TypeError
                values[k] = complex(re, im)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path}: array {label!r} entry {k} is not an [re, im] pair: {pair!r}"
                ) from exc
        out.append(ScalarCoefficients(lmax, values))
    return VectorCoefficients(out[0], out[1])


def write_samples(path, samples: TangentFieldSamples) -> None:
    thetas, phis = to_spherical(samples.points)
    values = np.asarray(samples.values, dtype=np.complex128)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SAMPLES_HEADER)
        for k in range(len(samples)):
            row = [thetas[k], phis[k]]
            for c in range(3):
                row.extend((values[k, c].real, values[k, c].imag))
            writer.writerow(format_float(v) for v in row)


def read_samples(path) -> TangentFieldSamples:
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if lineno == 1 and row[0].strip().lower() == "theta":
                continue
            if len(row) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 columns, got {len(row)}")
            rows.append(_parse_row(row, path, lineno))
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    data = np.array(rows)
    points = from_spherical(data[:, 0], data[:, 1])
    values = data[:, 2::2] + 1j * data[:, 3::2]
    return TangentFieldSamples(points, values)


def write_csv(path, header, rows) -> None:
    """Write a CSV table, formatting floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                format_float(v) if isinstance(v, float) else v for v in row
            )
