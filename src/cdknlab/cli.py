"""Batch front end: build spaces, verify CD, measure distances, run
convergence and omega experiments, and emit deterministic reports.

Exit codes: 0 = computation ran and every mathematical claim checked out,
2 = a violation was found (negative margin beyond tolerance, broken
monotonicity), 1 = usage or IO problem.  Reports are written atomically and
depend only on the config and seed, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from typing import Optional

from . import _thread_count
from . import cdcheck as cdc
from .errors import CdknLabError, InvalidParams
from .ikrw import convergence_experiment, ikrw_series
from .mmspace import (check_level, detect_singular_set, k_cut,
                      space_from_dict, space_summary)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# Largest value of each count flag.  --t-grid sizes (distinct times x
# segments) arrays, a cdcheck report has samples x t-grid x nprime-grid rows
# (capped by MAX_ROWS); every test and benchmark stays at or below 500.
MAX_GRID_COUNT = 1000      # --t-grid, --nprime-grid
MAX_SAMPLES = 10_000       # --samples, --cd-samples
MAX_ROWS = 10**6           # cdcheck samples x t-grid x nprime-grid


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return format(v, ".12g")
    return str(v)


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _render_json(obj) -> str:
    def clean(x):
        if isinstance(x, dict):
            return {str(k): clean(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        if isinstance(x, float) and (math.isinf(x) or math.isnan(x)):
            return _fmt(x)
        return x

    return json.dumps(clean(obj), indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".cdknlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(out: str, fmt: str, header, rows, summary: dict):
    """Tabular report plus a JSON summary sidecar next to it."""
    if fmt == "json":
        _atomic_write(out, _render_json({"rows": [dict(zip(header, r)) for r in rows],
                                         "summary": summary}))
    else:
        _atomic_write(out, _render_csv(header, rows))
        _atomic_write(out + ".summary.json", _render_json(summary))


def _write_summary(out: Optional[str], summary: dict):
    """A JSON summary to `out`, or to stdout when there is none."""
    text = _render_json(summary)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")


def _load_space(path: str):
    try:
        return space_from_dict(_read_json(path))
    except CdknLabError as e:
        raise UsageError(f"bad space descriptor {path}: {e}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_model(args) -> int:
    space = _load_space(args.space)
    summary = space_summary(space)
    if args.detect_singular:
        summary["detected_singular_points"] = list(detect_singular_set(space))
    _write_summary(args.out, summary)
    return EXIT_OK


def _cmd_cdcheck(args) -> int:
    n_rows = args.samples * args.t_grid * args.nprime_grid
    if n_rows > MAX_ROWS:
        raise UsageError(f"samples x t-grid x nprime-grid = {n_rows} rows "
                         f"exceeds the cap {MAX_ROWS}")
    space = _load_space(args.space)
    suite = cdc.cd_suite(space, args.K, args.N, args.samples, args.seed,
                         t_grid=args.t_grid, nprime_grid=args.nprime_grid,
                         tol=args.tol, restrict_to_regular_k=args.restrict_k)
    header = ["sample", "t", "nprime", "s_value", "t_value", "margin", "status"]
    rows = []
    for si, rep in enumerate(suite.reports):
        for r in rep.rows:
            rows.append([si, r.t, r.nprime, r.s_value, r.t_value, r.margin, r.status])
    passed = suite.passes()
    summary = {
        "K": args.K, "N": args.N, "grid_n": suite.grid_n,
        "tolerance": args.tol, "seed": args.seed, "samples": args.samples,
        "min_margin": _fmt(suite.min_margin()), "counts": suite.counts(),
        "passed": passed,
    }
    _write_report(args.out, args.format, header, rows, summary)
    return EXIT_OK if passed else EXIT_VIOLATION


def _cmd_convexity(args) -> int:
    d = _read_json(args.psi)
    try:
        x = [float(v) for v in d["x"]]
        psi = [float(v) for v in d["psi"]]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise UsageError(f"bad psi file: {e}")
    rep = cdc.kn_convexity_check((x, psi), args.K, args.N)
    passed = rep.min_margin >= -args.tol
    summary = {"K": args.K, "N": args.N, "n_triples": rep.n_triples,
               "min_margin": _fmt(rep.min_margin),
               "worst_triple": list(rep.worst) if rep.worst else None,
               "tolerance": args.tol, "passed": passed}
    _write_summary(args.out, summary)
    return EXIT_OK if passed else EXIT_VIOLATION


def _cmd_ikrw(args) -> int:
    if args.k_bar > args.k_max:
        raise UsageError(f"--k-bar {args.k_bar} exceeds --k-max {args.k_max}")
    a = _load_space(args.space_a)
    b = _load_space(args.space_b)
    header = ["k", "fm_value", "log_mass", "base_point", "hausdorff", "wc", "contribution"]
    series, value = ikrw_series(((k, k_cut(a, k), k_cut(b, k))
                                 for k in range(args.k_bar, args.k_max + 1)),
                                c_kind=args.c_kind)
    rows = [[k, fm, terms["log_mass"], terms["base_point"], terms["hausdorff"],
             terms["wc"], contrib] for k, fm, terms, contrib in series]
    summary = {"value": _fmt(value), "tail_bound": _fmt(2.0 ** (-args.k_max)),
               "k_bar": args.k_bar, "k_max": args.k_max, "c_kind": args.c_kind}
    _write_report(args.out, args.format, header, rows, summary)
    return EXIT_OK


def _cmd_converge(args) -> int:
    seq = _read_json(args.seq)
    table, suite = convergence_experiment(
        seq, run_cd=not args.no_cd, cd_samples=args.cd_samples,
        seed=args.seed, tol=args.tol)
    header = ["n", "k", "log_mass_gap", "base_point_gap", "hausdorff_gap",
              "wc_gap", "total"]
    rows = [[r.n, r.k, r.log_mass_gap, r.base_point_gap, r.hausdorff_gap,
             r.wc_gap, r.total] for r in table.rows]
    ks = sorted({r.k for r in table.rows})
    monotone = all(table.decreasing("wc_gap", k) for k in ks)
    summary = {
        "series": {str(n): _fmt(v) for n, v in table.series.items()},
        "monotone_wc": monotone, "seed": args.seed,
    }
    passed = monotone
    if suite is not None:
        summary["cd_min_margin"] = _fmt(suite.min_margin())
        summary["cd_passed"] = suite.passes()
        passed = passed and suite.passes()
    summary["passed"] = passed
    _write_report(args.out, args.format, header, rows, summary)
    return EXIT_OK if passed else EXIT_VIOLATION


def _cmd_omega(args) -> int:
    if args.k > args.h_max:
        raise UsageError(f"--k {args.k} exceeds --h-max {args.h_max}")
    if args.N >= 0:
        raise UsageError(f"--N {args.N} must be negative")
    space = _load_space(args.space)
    header = ["k", "h", "M", "omega", "n_samples", "Omega"]
    hs = list(range(args.k, args.h_max + 1))
    bound = cdc.Omega_bound(args.delta)
    # one sampling pass for both caps; Omega's first, so that its failure is
    # the one reported when both caps fail
    scaled, omegas = cdc.estimate_omega(
        space, args.k, hs, [cdc.Omega_cap(args.M, args.N), args.M],
        n_samples=args.samples, N=args.N, seed=args.seed)
    rows = [[args.k, h, args.M, om, args.samples, bound(om_scaled)]
            for h, om, om_scaled in zip(hs, omegas, scaled)]
    summary = {"k": args.k, "h_max": args.h_max, "M": args.M,
               "delta": args.delta, "N": args.N, "seed": args.seed,
               "samples": args.samples}
    _write_report(args.out, args.format, header, rows, summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _integer(lo: int, hi: float = math.inf):
    """Argument type for an integer flag in [lo, hi]: a count in [1, cap],
    or a seed in [0, inf] (numpy's generators take no negative one)."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(
                f"expected an integer in [{lo}, {hi}], got {text!r}")
        return n

    return parse


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _tolerance(text: str) -> float:
    x = _finite_float(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"expected a tolerance >= 0, got {text!r}")
    return x


def _level(text: str) -> int:
    """A cut level k or h within mmspace.MAX_LEVEL."""
    try:
        return check_level("level", int(text))
    except (ValueError, InvalidParams) as e:
        raise argparse.ArgumentTypeError(str(e))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -1e-3 and -2.5E+1 as values too, not only -123 and -1.5
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cdknlab",
                description="Numerical experiments for curvature-dimension "
                            "bounds with negative generalized dimension.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("model", help="build a space and print its summary")
    sp.add_argument("--space", required=True)
    sp.add_argument("--out")
    sp.add_argument("--detect-singular", action="store_true")
    sp.set_defaults(fn=_cmd_model)

    sp = sub.add_parser("cdcheck", help="verify CD(K, N) on sampled marginal pairs")
    sp.add_argument("--space", required=True)
    sp.add_argument("--K", type=_finite_float, required=True)
    sp.add_argument("--N", type=_finite_float, required=True)
    sp.add_argument("--t-grid", type=_integer(1, MAX_GRID_COUNT), default=11, dest="t_grid")
    sp.add_argument("--nprime-grid", type=_integer(1, MAX_GRID_COUNT), default=9,
                    dest="nprime_grid")
    sp.add_argument("--samples", type=_integer(1, MAX_SAMPLES), default=20)
    sp.add_argument("--seed", type=_integer(0), required=True)
    sp.add_argument("--tol", type=_tolerance, default=cdc.DEFAULT_TOL)
    sp.add_argument("--restrict-k", type=_level, default=None, dest="restrict_k")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=_cmd_cdcheck)

    sp = sub.add_parser("convexity", help="(K, N)-convexity check of a weight on "
                        "the adjacent triples of dyadic subsets of its "
                        "distinct nodes, and at its repeated nodes")
    sp.add_argument("--psi", required=True, help="JSON file with x / psi arrays")
    sp.add_argument("--K", type=_finite_float, required=True)
    sp.add_argument("--N", type=_finite_float, required=True)
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_convexity)

    sp = sub.add_parser("ikrw", help="truncated iKRW series between two spaces")
    sp.add_argument("--space-a", required=True, dest="space_a")
    sp.add_argument("--space-b", required=True, dest="space_b")
    sp.add_argument("--k-bar", type=_level, default=0, dest="k_bar")
    sp.add_argument("--k-max", type=_level, default=12, dest="k_max")
    sp.add_argument("--c-kind", choices=("tanh", "cap1"), default="tanh", dest="c_kind")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=_cmd_ikrw)

    sp = sub.add_parser("converge", help="gap table for a converging family")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--no-cd", action="store_true", dest="no_cd")
    sp.add_argument("--cd-samples", type=_integer(1, MAX_SAMPLES), default=4,
                    dest="cd_samples")
    sp.add_argument("--seed", type=_integer(0), required=True)
    sp.add_argument("--tol", type=_tolerance, default=cdc.DEFAULT_TOL)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=_cmd_converge)

    sp = sub.add_parser("omega", help="estimate geodesic mass escaping the regular sets")
    sp.add_argument("--space", required=True)
    sp.add_argument("--k", type=_level, required=True)
    sp.add_argument("--h-max", type=_level, required=True, dest="h_max")
    sp.add_argument("--M", type=_finite_float, required=True)
    sp.add_argument("--N", type=_finite_float, default=-2.0)
    sp.add_argument("--delta", type=_finite_float, default=0.1)
    sp.add_argument("--samples", type=_integer(1, MAX_SAMPLES), default=20)
    sp.add_argument("--seed", type=_integer(0), required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=_cmd_omega)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args fills a new
    namespace on every call and the parser holds no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command from its argument list (default: sys.argv[1:]) and
    return its exit code."""
    threads = os.environ.get("CDKNLAB_THREADS")
    if threads and _thread_count(threads) is None:
        sys.stderr.write(f"error: CDKNLAB_THREADS={threads!r} is not an "
                         "integer >= 1\n")
        return EXIT_USAGE
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except CdknLabError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return EXIT_USAGE
    except OSError as e:
        sys.stderr.write(f"io error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
