"""Command-line entry points.

holovol run --config scenario.json --out report.json [--csv report.csv]
            [--workers N] [--seed S]
holovol constants --n N
holovol check-lemma --n N --trials T [--points P] [--seed S]

Exit codes: 0 all margins nonnegative, 2 violations found, 1 config or
runtime error.  HOLOVOL_LOG={debug,info,warning,error} controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .bergman import kernel_product_bounds, ratio_band
from .errors import HolovolError
from .harness import emit_csv, emit_json, run_scenario
from .normalization import (
    beta_excess,
    c_n,
    lemma_margins,
    random_admissible_A,
)
from .volume_elements import ge_constants, quotient_lower_bound

log = logging.getLogger("holovol")


def _setup_logging() -> None:
    level = os.environ.get("HOLOVOL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config {args.config}: {exc}", file=sys.stderr)
        return 1
    report = run_scenario(config, workers=args.workers, seed=args.seed)
    emit_json(report, args.out)
    if args.csv:
        emit_csv(report, args.csv)
    s = report["summary"]
    print(f"{report['name']}: {s['points']} points, "
          f"{s['failures']} failures, {s['errors']} errors"
          + (", approximate" if s["approximate"] else ""))
    for name, margin in sorted(s["min_margins"].items()):
        if margin is not None:
            print(f"  min margin {name}: {margin:.6g}")
    return 2 if (s["failures"] or s["errors"]) else 0


def _cmd_constants(args) -> int:
    n = args.n
    v_lo_cvx, v_hi = ge_constants("convex", n)
    v_lo_cc, _ = ge_constants("c_convex", n)
    k_lo_cvx, k_hi = kernel_product_bounds("convex", n)
    k_lo_cc, _ = kernel_product_bounds("c_convex", n)
    r_cvx = ratio_band("convex", n)
    r_cc = ratio_band("c_convex", n)
    lines = [
        ("n", n),
        ("c_n", c_n(n)),
        ("mu_n", quotient_lower_bound("convex", n)),
        ("nu_n", quotient_lower_bound("c_convex", n)),
        ("v_pd2_lower_convex", v_lo_cvx),
        ("v_pd2_upper", v_hi),
        ("v_pd2_lower_c_convex", v_lo_cc),
        ("kernel_pd2_lower_convex", k_lo_cvx),
        ("kernel_pd2_upper", k_hi),
        ("kernel_pd2_lower_c_convex", k_lo_cc),
        ("ratio_lower_convex", r_cvx[0]),
        ("ratio_upper_convex", r_cvx[1]),
        ("ratio_lower_c_convex", r_cc[0]),
        ("ratio_upper_c_convex", r_cc[1]),
    ]
    for name, value in lines:
        print(f"{name} = {value!r}")
    return 0


def _cmd_check_lemma(args) -> int:
    n, trials, points = args.n, args.trials, args.points
    rng = np.random.default_rng(args.seed)
    radius = (1.0 - 1e-6) / c_n(n)
    worst_margin = np.inf
    worst_beta = -np.inf
    for _ in range(trials):
        A = random_admissible_A(n, rng)
        g = rng.standard_normal((points, n)) + 1j * rng.standard_normal((points, n))
        W = g / np.linalg.norm(g, axis=1, keepdims=True) * radius
        worst_margin = min(worst_margin, float(lemma_margins(A, W).min()))
        worst_beta = max(worst_beta, beta_excess(A))
    ok = worst_margin >= 0.0 and worst_beta <= 1e-9
    print(f"n={n} trials={trials} points={points}")
    print(f"min_margin = {worst_margin!r}")
    print(f"max_beta_excess = {worst_beta!r}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="holovol",
        description="certified bounds for invariant volume elements and "
                    "Bergman kernels on convex and C-convex domains")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--csv", default=None)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=_cmd_run)

    cst = sub.add_parser("constants", help="print the dimensional constants")
    cst.add_argument("--n", type=int, required=True)
    cst.set_defaults(func=_cmd_constants)

    lem = sub.add_parser("check-lemma",
                         help="property-test the triangular-inverse ball inclusion")
    lem.add_argument("--n", type=int, required=True)
    lem.add_argument("--trials", type=int, required=True)
    lem.add_argument("--points", type=int, default=100)
    lem.add_argument("--seed", type=int, default=0)
    lem.set_defaults(func=_cmd_check_lemma)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HolovolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        log.exception("unexpected failure")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
