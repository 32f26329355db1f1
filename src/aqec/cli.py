"""Command line entry points.

Exit codes: 0 on success, 1 on usage errors (bad arguments, malformed config
or grid files), 2 when verification assertions fail.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import fields

from .bounds import (
    BoundInputs,
    delta_eff,
    f_ell,
    p_asymptotic,
    p_exact_quadrature,
    soft_threshold,
    solve_recurrence,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    theorem4_late_slope,
    theorem5_lower,
    toric_perturbative,
)
from .experiments import MANIFEST_NAME, parse_config, run, verify


def _cell(row, key):
    value = row.get(key)
    if value is None or str(value).strip() == "":
        return None
    return float(value)


# ops on the row's BoundInputs and t; the last two take the inputs alone
_INPUT_OPS = {
    "theorem1": theorem1_bound,
    "theorem2": theorem2_bound,
    "theorem3": theorem3_bound,
    "theorem4": theorem4_bound,
    "p_asymptotic": p_asymptotic,
    "p_exact_quadrature": p_exact_quadrature,
    "theorem4_late_slope": lambda inputs, t: theorem4_late_slope(inputs),
    "delta_eff": lambda inputs, t: delta_eff(inputs),
}


def _eval_bounds_row(row):
    """(value, extra) for one grid row; extra carries secondary outputs."""
    op = (row.get("op") or "").strip()
    inputs = BoundInputs(**{f.name: _cell(row, f.name) for f in fields(BoundInputs)})
    t = _cell(row, "t")
    if op in _INPUT_OPS:
        return float(_INPUT_OPS[op](inputs, t)), ""
    if op == "f_ell":
        return f_ell(_cell(row, "ell"), _cell(row, "z")), ""
    if op == "theorem5_lower":
        return theorem5_lower(_cell(row, "a"), _cell(row, "tau_c"),
                              _cell(row, "kappa"), t), ""
    if op == "soft_threshold":
        st = soft_threshold(inputs)
        return st.gamma_min, f"ell_min={st.ell_min}"
    if op == "toric_perturbative":
        dims = (row.get("dims") or "2D").strip() or "2D"
        return toric_perturbative(_cell(row, "side"), _cell(row, "kappa"),
                                  _cell(row, "delta"), dims), ""
    raise ValueError(f"unknown op {op!r}")


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    manifest = run(config)
    for name in sorted(manifest.files):
        print(f"wrote {config.out_dir}/{name}")
    print(f"wrote {config.out_dir}/{MANIFEST_NAME}")
    print(f"experiment {manifest.experiment} done in {manifest.wall_clock_s:.2f}s")
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.manifest)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 2


def _cmd_bounds(args) -> int:
    with open(args.grid, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "op" not in reader.fieldnames:
            raise ValueError("grid CSV needs a header row with an 'op' column")
        fieldnames = list(reader.fieldnames)
        rows = list(reader)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames + ["value", "extra"])
    for row in rows:
        value, extra = _eval_bounds_row(row)
        writer.writerow([row.get(k, "") or "" for k in fieldnames]
                        + [format(float(value), ".12g"), extra])
    sys.stdout.write(out.getvalue())
    return 0


def _cmd_recurrence(args) -> int:
    sol = solve_recurrence(args.h, args.n, args.p1)
    print("v,s,log_s")
    for v, (s, ls) in enumerate(zip(sol.s, sol.log_s)):
        print(f"{v},{format(float(s), '.12g')},{format(float(ls), '.12g')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqec",
        description="Dissipative error-correction experiment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="flat key = value config file")

    p_verify = sub.add_parser("verify", help="check a result manifest")
    p_verify.add_argument("manifest", help="manifest.json produced by run")

    p_bounds = sub.add_parser("bounds", help="evaluate bound expressions on a grid")
    p_bounds.add_argument("--grid", required=True,
                          help="CSV with an 'op' column plus parameter columns")

    p_rec = sub.add_parser("recurrence", help="print first-passage probabilities")
    p_rec.add_argument("--h", type=int, required=True)
    p_rec.add_argument("--n", type=int, required=True)
    p_rec.add_argument("--p1", type=float, required=True)

    return parser


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "recurrence": _cmd_recurrence,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for verify failures
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # JSONDecodeError subclasses ValueError, so malformed manifests land here
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
