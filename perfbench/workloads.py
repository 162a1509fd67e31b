"""The three workloads, their unit of work, and the correctness oracle.

A run repeats one *unit* per workload in a closed loop (one caller, each call
waits for the previous one).  A workload has INPUTS inputs: input k of a run
with seed s is made from the unit seed `unit_seed(s, k)`, and unit i runs
input i mod INPUTS.  The program only ever sees the inputs made from the
seed.  INPUTS trades the spread of the inputs' cost (more inputs) against
repeats of each input (more of them find a fast phase of a shared host).

Why these workloads (each serves predictions listed in perfbench/README.md):

certify   `cdcheck.richardson_check` on cos_n (K=-2, N=-1) and cauchy
          (alpha=1, domain [-4, 4], K=0, N=-1) at grids 512/1024.  This is
          the verifier's real job; ~85 % of it is `geodesics1d.blocks_cdf`
          (about 1000 segments x 4097 edges per call), the rest mostly
          `distortion`, `cdcheck.t_functional` and `measure`.  cauchy is in
          because ~25 % of its rows are `skipped_entropy_inf`, so a change to
          row statuses shows in `cdcheck.rows_compared_frac`.  The six-model
          run is left out: it takes 112 s, too long to repeat.
converge  `cdknlab converge --no-cd` on truncated_power (N=-2, grid 2048,
          n 1..10, k 0..2) and glued_drift (grid 1024, n 1..6, k 0..3).  ~95 %
          is the HiGHS LP in `transport.optimal_coupling_lp`; `geodesics1d`
          only rebins onto 257 edges and `distortion` is never called.  A
          concave-cost solver shows here, and a change to certify's hot path
          must show no change here.
omega     `cdknlab omega` on glued_cos_n (J=2, grid 512, k=3, h 3..9, M=10).
          Thousands of `blocks_cdf` calls of ~12 points each, plus
          `transport.monotone_map` and the entropy-capped sampler: a block-CDF
          rewrite that only pays off at large sizes must not slow this one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

# library calls go through module attributes, so the tracer's wrappers see them
from cdknlab import cdcheck, cli, mmspace

# cdcheck's row tolerance: the fine-grid suite must pass at it.  The
# acceptance suite's neg_coarse <= 5e-2 does not hold on every seed: cauchy
# breaks it on a rare pair (4 pairs at seed 25199895: 0.107 at grid 512,
# 5e-13 at 1024, verdict ok), so the coarse deficit is only reported.
DEFICIT_TOL = cdcheck.DEFAULT_TOL

SIZES = {
    "full": {
        "certify": {"pairs": 4, "grids": (512, 1024)},
        "converge": {"truncated_power": {"N": -2.0, "grid_n": 2048,
                                         "n_range": [1, 10], "k_range": [0, 2]},
                     "glued_drift": {"K": -2.0, "N": -2.0, "grid_n": 1024,
                                     "n_range": [1, 6], "k_range": [0, 3]}},
        "omega": {"grid_n": 512, "k": 3, "h_max": 9, "M": 10.0, "samples": 20},
    },
    "tiny": {
        "certify": {"pairs": 1, "grids": (256, 512)},
        "converge": {"truncated_power": {"N": -2.0, "grid_n": 256,
                                         "n_range": [1, 3], "k_range": [0, 1]},
                     "glued_drift": {"K": -2.0, "N": -2.0, "grid_n": 128,
                                     "n_range": [1, 2], "k_range": [0, 1]}},
        "omega": {"grid_n": 256, "k": 3, "h_max": 4, "M": 10.0, "samples": 2},
    },
}

T_GRID = 11      # cdcheck defaults: rows per pair and grid = T_GRID * NPRIME_GRID
NPRIME_GRID = 9
OMEGA_T_GRID = 9  # estimate_omega default: slices per sampled pair


def unit_seed(seed: int, i: int) -> int:
    return random.Random(f"{seed}:{i}").randrange(2 ** 31)


class Outcome:
    """What a unit produced: work done, oracle problems (each fails the
    unit), notes (reported only) and the values compared with the reference."""

    def __init__(self, items: int, problems: list, values: dict,
                 report: bytes, notes=()):
        self.items = items
        self.problems = problems
        self.notes = list(notes)
        self.values = values
        self.report_bytes = len(report)
        self.digest = hashlib.sha256(report).hexdigest()


def _nonincreasing(vals, slack=1e-12) -> bool:
    return all(b <= a + slack * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Certify:
    # one pair costs 0.12-0.49 s (cv 0.3), so the inputs' cost spreads more
    # than repeats would save: a new input each unit (~3 s, ~10 in 30 s)
    INPUTS = 10
    MODELS = (
        ("cos_n", {"kind": "cos_n", "K": -2.0, "N": -2.0}, -2.0, -1.0),
        ("cauchy", {"kind": "cauchy", "alpha": 1.0, "domain": (-4.0, 4.0)},
         0.0, -1.0),
    )

    def __init__(self, tmp: str, size: str):
        cfg = SIZES[size]["certify"]
        self.pairs, self.grids = cfg["pairs"], tuple(cfg["grids"])

    def prepare(self, seed: int):
        return seed

    def run(self, seed: int):
        out = {}
        # a seed per model: pairs drawn from one seed cost alike on both
        # models, which would widen the run-to-run spread of the unit time
        for k, (name, kw, K, N) in enumerate(self.MODELS):
            def make(grid_n, _kw=kw):
                return mmspace.build_model_space(mmspace.ModelSpec(grid_n=grid_n, **_kw))
            out[name] = cdcheck.richardson_check(
                make, K, N, n_samples=self.pairs, seed=seed + k, grids=self.grids)
        return out

    def check(self, res) -> Outcome:
        problems, notes, values = [], [], {}
        for name, r in res.items():
            if not r["ok"]:
                problems.append(f"{name}: richardson verdict not ok")
            if not r["neg_fine"] <= DEFICIT_TOL:
                problems.append(f"{name}: neg_fine {r['neg_fine']!r}")
            if not r["neg_coarse"] <= DEFICIT_TOL:
                notes.append(f"{name}: neg_coarse {r['neg_coarse']!r}")
            values[f"{name}.neg_coarse"] = r["neg_coarse"]
            values[f"{name}.neg_fine"] = r["neg_fine"]
        report = json.dumps(res, sort_keys=True).encode()
        rows = len(res) * len(self.grids) * self.pairs * T_GRID * NPRIME_GRID
        return Outcome(rows, problems, values, report, notes)


class Converge:
    INPUTS = 1  # the seed only draws delta; ~5 s a unit, ~6 repeats

    def __init__(self, tmp: str, size: str):
        self.tmp = tmp
        self.families = SIZES[size]["converge"]

    def prepare(self, seed: int):
        """One sequence file per family; the seed only draws glued_drift's delta."""
        delta = random.Random(seed).uniform(0.3, 0.7)
        jobs = []
        for family, spec in self.families.items():
            seq = dict(spec, family=family)
            if family == "glued_drift":
                seq["delta"] = delta
            path = os.path.join(self.tmp, f"{family}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(seq, fh)
            out = os.path.join(self.tmp, f"{family}.csv")
            jobs.append((family, ["converge", "--seq", path, "--no-cd",
                                  "--seed", str(seed), "--out", out], out))
        return jobs

    def run(self, jobs):
        return [(family, cli.main(argv), out) for family, argv, out in jobs]

    def check(self, results) -> Outcome:
        problems, values, report, items = [], {}, b"", 0
        for family, rc, out in results:
            if rc != 0:
                problems.append(f"{family}: exit code {rc}")
                continue
            summary = json.loads(_read(out + ".summary.json"))
            if summary["monotone_wc"] is not True:
                problems.append(f"{family}: monotone_wc is false")
            series = [float(v) for _, v in sorted(summary["series"].items(),
                                                  key=lambda kv: int(kv[0]))]
            if not _nonincreasing(series):
                problems.append(f"{family}: series increases in n: {series}")
            rows = _read_csv(out)
            items += len(rows)
            for r in rows:
                for col in ("log_mass_gap", "base_point_gap", "wc_gap", "total"):
                    values[f"{family}.n{r['n']}.k{r['k']}.{col}"] = float(r[col])
            report += _read(out) + _read(out + ".summary.json")
        return Outcome(items, problems, values, report)


class Omega:
    INPUTS = 2  # 20 sampled pairs a unit, cost cv ~0.05; ~0.25 s, ~60 repeats

    def __init__(self, tmp: str, size: str):
        cfg = SIZES[size]["omega"]
        self.cfg = cfg
        self.space = os.path.join(tmp, "space.json")
        with open(self.space, "w", encoding="utf-8") as fh:
            json.dump({"kind": "glued_cos_n",
                       "params": {"K": -2.0, "N": -2.0, "J": 2},
                       "grid_n": cfg["grid_n"]}, fh)
        self.out = os.path.join(tmp, "omega.csv")

    def prepare(self, seed: int):
        c = self.cfg
        return ["omega", "--space", self.space, "--k", str(c["k"]),
                "--h-max", str(c["h_max"]), "--M", repr(c["M"]),
                "--samples", str(c["samples"]), "--seed", str(seed),
                "--out", self.out]

    def run(self, argv):
        return cli.main(argv)

    def check(self, rc) -> Outcome:
        c = self.cfg
        if rc != 0:
            return Outcome(0, [f"exit code {rc}"], {}, b"")
        rows = _read_csv(self.out)
        problems, values = [], {}
        omegas = [float(r["omega"]) for r in rows]
        if [int(r["h"]) for r in rows] != list(range(c["k"], c["h_max"] + 1)):
            problems.append("rows do not cover h = k..h_max")
        if not _nonincreasing(omegas):
            problems.append(f"omega increases in h: {omegas}")
        for r in rows:
            om, Om = float(r["omega"]), float(r["Omega"])
            if not (0.0 <= om <= 1.0 and math.isfinite(Om) and Om >= om):
                problems.append(f"h={r['h']}: omega={om} Omega={Om}")
            values[f"h{r['h']}.omega"] = om
            values[f"h{r['h']}.Omega"] = Om
        # each h: two estimate_omega calls, each slicing every pair T times
        items = len(rows) * 2 * c["samples"] * OMEGA_T_GRID
        report = _read(self.out) + _read(self.out + ".summary.json")
        return Outcome(items, problems, values, report)


WORKLOADS = {"certify": Certify, "converge": Converge, "omega": Omega}

