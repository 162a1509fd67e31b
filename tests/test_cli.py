"""Command-line front end: exit codes, deterministic reports, atomic
writes, and the report schemas."""

import csv
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import cdknlab
from cdknlab.cdcheck import estimate_Omega, estimate_omega
from cdknlab.cli import (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, MAX_GRID_COUNT,
                         MAX_ROWS, MAX_SAMPLES, _fmt, _load_space,
                         build_parser, main)
from cdknlab.ikrw import ikrw


def _space_file(tmp_path, name="space.json", **kw):
    d = {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": 128}
    d.update(kw)
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


# ---------------------------------------------------------------------------
# model


def test_model_prints_summary(tmp_path, capsys):
    sp = _space_file(tmp_path)
    assert main(["model", "--space", sp]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "cos_n"
    assert summary["grid_n"] == 128
    assert len(summary["singular_points"]) == 2


def test_model_writes_file_and_detects_singular(tmp_path):
    sp = _space_file(tmp_path)
    out = tmp_path / "summary.json"
    rc = main(["model", "--space", sp, "--out", str(out), "--detect-singular"])
    assert rc == EXIT_OK
    summary = json.loads(out.read_text())
    det = summary["detected_singular_points"]
    assert det == pytest.approx(summary["singular_points"], abs=0.1)


@pytest.mark.parametrize("desc, want", [
    # cos^-270 is +inf within 0.84 of each arch end
    ({"kind": "cos_n", "params": {"K": -2.0, "N": -270.0}, "grid_n": 64},
     [-18.2510, 18.2510]),
    # x^-1.5 gains only a factor 2^0.5 of mass per halving of the radius
    ({"kind": "power_n", "params": {"N": -1.5}, "truncation_radius": 3.0,
      "grid_n": 64}, [0.0]),
], ids=["cos_n_N_-270", "power_n_N_-1.5"])
def test_model_detects_exactly_the_declared_blow_ups(tmp_path, desc, want):
    p = tmp_path / "space.json"
    p.write_text(json.dumps(desc))
    out = tmp_path / "summary.json"
    assert main(["model", "--space", str(p), "--out", str(out),
                 "--detect-singular"]) == EXIT_OK
    summary = json.loads(out.read_text())
    assert summary["detected_singular_points"] == pytest.approx(want, abs=5e-5)
    assert summary["detected_singular_points"] == pytest.approx(
        summary["singular_points"], abs=1e-9)


def test_model_divergent_tail_is_inf_and_quiet(tmp_path):
    # the cut-off tail of x^-2 over (0, 0.5) reaches the blow-up point at 0
    p = tmp_path / "power.json"
    p.write_text(json.dumps({"kind": "power_n", "params": {"N": -2},
                             "domain": [0.5, 4], "grid_n": 256}))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cdknlab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "cdknlab.cli", "model",
                           "--space", str(p)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["truncated_tail_mass"] == "inf"
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# cdcheck


def test_cdcheck_report_schema_and_exit(tmp_path):
    sp = _space_file(tmp_path)
    out = tmp_path / "rep.csv"
    rc = main(["cdcheck", "--space", sp, "--K", "-2.0", "--N", "-2.0",
               "--samples", "2", "--seed", "11", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "sample,t,nprime,s_value,t_value,margin,status"
    assert len(lines) > 1
    summary = json.loads((tmp_path / "rep.csv.summary.json").read_text())
    assert summary["passed"] is True
    assert summary["seed"] == 11
    assert set(summary["counts"]) <= {"ok", "violated", "vacuous_inf",
                                      "skipped_entropy_inf"}


def test_cdcheck_reruns_are_byte_identical(tmp_path):
    sp = _space_file(tmp_path)
    argv = ["cdcheck", "--space", sp, "--K", "-2.0", "--N", "-2.0",
            "--samples", "2", "--seed", "11"]
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outs.append((out.read_bytes(),
                     (tmp_path / (name + ".summary.json")).read_bytes()))
    assert outs[0] == outs[1]


def test_cdcheck_violation_exits_2(tmp_path):
    # space built for K = -2 but checked against K = 0
    sp = _space_file(tmp_path, **{"params": {"K": -2.0, "N": -2.0}},
                     grid_n=256)
    out = tmp_path / "rep.csv"
    rc = main(["cdcheck", "--space", sp, "--K", "0.0", "--N", "-2.0",
               "--samples", "5", "--seed", "0", "--out", str(out)])
    assert rc == EXIT_VIOLATION
    summary = json.loads((tmp_path / "rep.csv.summary.json").read_text())
    assert summary["passed"] is False
    assert summary["counts"]["violated"] > 0


def test_cdcheck_json_format_is_single_file(tmp_path):
    sp = _space_file(tmp_path)
    out = tmp_path / "rep.json"
    rc = main(["cdcheck", "--space", sp, "--K", "-2.0", "--N", "-2.0",
               "--samples", "1", "--seed", "3", "--out", str(out),
               "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == {"rows", "summary"}
    assert doc["rows"][0]["status"] in {"ok", "violated", "vacuous_inf",
                                        "skipped_entropy_inf"}
    assert not (tmp_path / "rep.json.summary.json").exists()


# ---------------------------------------------------------------------------
# convexity


def test_convexity_pass_and_fail(tmp_path):
    x = np.linspace(0.0, 1.0, 101)
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"x": list(x), "psi": [0.5] * 101}))
    assert main(["convexity", "--psi", str(flat), "--K", "0.0", "--N", "-2.0",
                 "--out", str(tmp_path / "c.json")]) == EXIT_OK

    xs = np.linspace(0.05, math.pi - 0.05, 101)
    bad = tmp_path / "sin.json"
    bad.write_text(json.dumps({"x": list(xs),
                               "psi": list(2.0 * np.log(np.sin(xs)))}))
    rc = main(["convexity", "--psi", str(bad), "--K", "0.0", "--N", "-2.0",
               "--out", str(tmp_path / "c2.json")])
    assert rc == EXIT_VIOLATION
    doc = json.loads((tmp_path / "c2.json").read_text())
    assert doc["passed"] is False
    assert float(doc["min_margin"]) < -0.01


_BAD_PSI = {
    "psi_missing": ({"x": [0, 1]}, "0"),
    # e^(-psi/N) is NaN or +inf at a node: no inequality can be checked there
    "psi_nan": ({"x": [0.0, 0.5, 1.0], "psi": [0.0, math.nan, 0.0]}, "0"),
    "psi_inf": ({"x": [0.0, 0.5, 1.0], "psi": [0.0, math.inf, 0.0]}, "0"),
    "psi_exp_overflows": ({"x": [0.0, 0.5, 1.0], "psi": [0.0, 2000.0, 0.0]}, "0"),
    "x_nan": ({"x": [0.0, math.nan, 1.0], "psi": [0.0, 0.0, 0.0]}, "0"),
    "x_span_overflows": ({"x": [-1.5e308, 0.0, 1.5e308], "psi": [0.0] * 3}, "0"),
    # beyond the doubles: float() overflows while the file is read
    "x_10_400": ({"x": [0, 10 ** 400, 2 * 10 ** 400], "psi": [0, 0, 0]}, "0"),
    "psi_10_400": ({"x": [0, 1, 2], "psi": [0, 10 ** 400, 0]}, "1"),
}


@pytest.mark.parametrize("name", list(_BAD_PSI))
def test_convexity_bad_psi_file_is_usage_error(tmp_path, name):
    content, K = _BAD_PSI[name]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(content))
    out = tmp_path / "c.json"
    rc = main(["convexity", "--psi", str(p), "--K", K, "--N", "-2.0",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("seed", range(4))
def test_convexity_x_out_of_order_is_usage_error_on_every_seed(tmp_path, seed,
                                                              capsys):
    # the order is checked before any triple, so the exit code does not
    # depend on whether a checked triple straddles the nodes out of order:
    # the seed draws a file and the place of the two swapped nodes
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    x = np.sort(rng.uniform(0.0, 10.0, n))
    i = int(rng.integers(n - 1))
    x[i], x[i + 1] = x[i + 1], x[i]
    p = tmp_path / "unsorted.json"
    p.write_text(json.dumps({"x": list(x), "psi": [0] * n}))
    out = tmp_path / "c.json"
    rc = main(["convexity", "--psi", str(p), "--K", "0", "--N", "-2",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "x must be nondecreasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x, K", [([0.0, 5e299, 1e300], "1"),
                                  ([0.0, 1e150, 1e300], "1"),
                                  ([-1e300, -1e300, 1e300], "1"),
                                  ([0.0, 1.0, 2.0], "1e308")])
def test_convexity_far_nodes_run_quietly(tmp_path, x, K):
    # K theta^2 / N overflows; sigma then takes its limit, without a warning
    p = tmp_path / "far.json"
    p.write_text(json.dumps({"x": x, "psi": [0.0, 0.0, 0.0]}))
    out = tmp_path / "c.json"
    rc = main(["convexity", "--psi", str(p), "--K", K, "--N", "-2.0",
               "--out", str(out)])
    assert rc in (EXIT_OK, EXIT_VIOLATION)
    assert math.isfinite(float(json.loads(out.read_text())["min_margin"]))


@pytest.mark.parametrize("x, K, rc", [
    ([0.0, 5e299, 1e300], "1", EXIT_VIOLATION),
    ([0.0, 1e150, 1e300], "1", EXIT_VIOLATION),
    ([-1e300, -1e150, 0.0], "1", EXIT_VIOLATION),
    ([0.0, 1e150, 1e300], "0", EXIT_OK),
], ids=["middle", "near_start", "near_end", "near_start_K_0"])
def test_convexity_far_interior_node_keeps_its_coefficient(tmp_path, x, K, rc):
    # at K = 1 both coefficients of a far triple are ~0, so the flat weight
    # fails by 1 wherever the interior node is; forming 1 - t rounded the
    # coefficient of the nearer end to 1 and passed the triple
    p = tmp_path / "far.json"
    p.write_text(json.dumps({"x": x, "psi": [0.0, 0.0, 0.0]}))
    out = tmp_path / "c.json"
    assert main(["convexity", "--psi", str(p), "--K", K, "--N", "-2.0",
                 "--out", str(out)]) == rc
    assert json.loads(out.read_text())["min_margin"] == \
        ("-1" if rc == EXIT_VIOLATION else "0")


def test_convexity_bounds_past_the_doubles_pass(tmp_path):
    # e^(psi/2) = e^709.75 is finite, the sum of two coefficients times it
    # is not: every margin is +inf, and there is no worst triple
    p = tmp_path / "over.json"
    p.write_text(json.dumps({"x": [0, 1, 2], "psi": [1419.5] * 3}))
    out = tmp_path / "c.json"
    assert main(["convexity", "--psi", str(p), "--K", "-2", "--N", "-2",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["min_margin"] == "inf"
    assert doc["worst_triple"] is None


@pytest.mark.parametrize("x, psi, margin", [
    ([0, 1, 1, 1, 2], [0, -2, 0, 0, 0], 1 / math.e - 1),
    ([0, 1, 1, 1], [0, 0, 0, -math.inf], -1.0),
], ids=["interior", "right_end"])
def test_convexity_refutes_unequal_values_at_one_node(tmp_path, x, psi, margin):
    # f at a repeated node may not exceed f at an earlier node of its
    # position when a node lies to the right, nor fall below it when one lies
    # to the left: the triple at (1, 1, 2) of the first file has margin
    # e^-1 - 1, the one at (0, 1, 1) of the second 0 - 1
    p = tmp_path / "rep.json"
    p.write_text(json.dumps({"x": x, "psi": psi}))
    out = tmp_path / "c.json"
    assert main(["convexity", "--psi", str(p), "--K", "0", "--N", "-2",
                 "--out", str(out)]) == EXIT_VIOLATION
    assert float(json.loads(out.read_text())["min_margin"]) == \
        pytest.approx(margin, rel=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_convexity_draws_rare_admissible_triples(tmp_path, seed):
    # at K = N = -2 a triple must be shorter than pi: of 1001 nodes 2 apart
    # with two gaps of 1 at a place the seed draws, only the three triples
    # around those gaps are, and the check finds them all
    j = int(np.random.default_rng(seed).integers(1, 998))
    gaps = np.full(1000, 2.0)
    gaps[j:j + 2] = 1.0
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    p = tmp_path / "long.json"
    p.write_text(json.dumps({"x": list(x), "psi": [0.0] * 1001}))
    out = tmp_path / "c.json"
    assert main(["convexity", "--psi", str(p), "--K", "-2", "--N", "-2",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n_triples"] == 3
    assert 0.0 < doc["worst_triple"][2] - doc["worst_triple"][0] < math.pi


@pytest.mark.parametrize("flags", [["--seed", "0"], ["--triples", "5"],
                                   ["--seed", "-1"], ["--triples", "0"]],
                         ids=["seed_0", "triples_5", "seed_neg", "triples_0"])
def test_convexity_takes_no_seed_or_triples(tmp_path, flags):
    # the check draws nothing, so neither flag exists
    p = tmp_path / "psi.json"
    p.write_text(json.dumps({"x": [0.0, 0.5, 1.0], "psi": [0.0, 0.0, 0.0]}))
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit) as e:
        main(["convexity", "--psi", str(p), "--K", "0", "--N", "-2",
              "--out", str(out)] + flags)
    assert e.value.code == EXIT_USAGE
    assert not out.exists()


# ---------------------------------------------------------------------------
# ikrw / converge / omega


def test_ikrw_table(tmp_path):
    a = _space_file(tmp_path, "a.json", params={"K": -2.0, "N": -2.0})
    b = _space_file(tmp_path, "b.json", params={"K": -2.0, "N": -3.0})
    out = tmp_path / "ik.csv"
    rc = main(["ikrw", "--space-a", a, "--space-b", b, "--k-bar", "0",
               "--k-max", "3", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["k", "fm_value"]
    assert len(lines) == 5
    summary = json.loads((tmp_path / "ik.csv.summary.json").read_text())
    assert 0.0 < float(summary["value"]) <= 2.0
    assert float(summary["tail_bound"]) == 2.0 ** -3


def test_ikrw_value_is_the_library_value_and_the_column_sum(tmp_path):
    a = _space_file(tmp_path, "a.json", params={"K": -2.0, "N": -2.0})
    b = _space_file(tmp_path, "b.json", params={"K": -2.0, "N": -3.0})
    out = tmp_path / "ik.json"
    rc = main(["ikrw", "--space-a", a, "--space-b", b, "--k-bar", "1",
               "--k-max", "4", "--c-kind", "cap1", "--format", "json",
               "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    value, _ = ikrw(_load_space(a), _load_space(b), 1, 4, c_kind="cap1")
    assert report["summary"]["value"] == _fmt(value)
    contribs = [r["contribution"] for r in report["rows"]]
    assert [r["k"] for r in report["rows"]] == [1, 2, 3, 4]
    assert sum(contribs) == value


def test_converge_table(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"family": "glued_drift", "K": -2.0, "N": -2.0,
                               "delta": 0.5, "grid_n": 256,
                               "n_range": [1, 2], "k_range": [0, 1]}))
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--seq", str(seq), "--no-cd", "--seed", "0",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 2 n * 2 k
    summary = json.loads((tmp_path / "conv.csv.summary.json").read_text())
    assert summary["monotone_wc"] is True
    assert summary["passed"] is True
    assert set(summary["series"]) == {"1", "2"}


def test_converge_custom_list_needs_no_n_range(tmp_path):
    member = {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": 64}
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"family": "custom_list", "k_range": [0, 1],
                               "spaces": [member, member], "limit": member}))
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--seq", str(seq), "--no-cd", "--seed", "0",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["n"], r["k"]) for r in rows] == [("0", "0"), ("0", "1"),
                                                ("1", "0"), ("1", "1")]


def _psi_space(psi):
    return {"kind": "custom_psi", "domain": [0.0, 1.0], "psi_samples": [psi] * 64}


@pytest.mark.parametrize("psi_a, psi_b", [(700.0, -700.0), (-700.0, 700.0)])
def test_ikrw_log_mass_past_the_double_ratio(tmp_path, psi_a, psi_b):
    # masses e^-700 and e^700: their ratio rounds to 0 or inf
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_psi_space(psi_a)))
    b.write_text(json.dumps(_psi_space(psi_b)))
    out = tmp_path / "ik.csv"
    assert main(["ikrw", "--space-a", str(a), "--space-b", str(b), "--k-bar",
                 "0", "--k-max", "1", "--out", str(out)]) == EXIT_OK
    for r in csv.DictReader(out.read_text().splitlines()):
        assert float(r["log_mass"]) == pytest.approx(1400.0, rel=1e-9)
        assert float(r["fm_value"]) == pytest.approx(1400.0, rel=1e-9)


def test_converge_custom_list_log_mass_past_the_double_ratio(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"family": "custom_list", "k_range": [0, 1],
                               "spaces": [_psi_space(700.0)],
                               "limit": _psi_space(-700.0)}))
    out = tmp_path / "conv.csv"
    assert main(["converge", "--seq", str(seq), "--no-cd", "--seed", "0",
                 "--out", str(out)]) == EXIT_OK
    for r in csv.DictReader(out.read_text().splitlines()):
        assert float(r["log_mass_gap"]) == pytest.approx(1400.0, rel=1e-9)


def test_omega_table(tmp_path):
    sp = _space_file(tmp_path, params={"K": -2.0, "N": -2.0})
    out = tmp_path / "om.csv"
    rc = main(["omega", "--space", sp, "--k", "2", "--h-max", "3",
               "--M", "5.0", "--samples", "5", "--seed", "0",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,h,M,omega,n_samples,Omega"
    assert len(lines) == 3
    last = lines[-1].split(",")
    assert 0.0 <= float(last[3]) <= 1.0
    assert 0.0 <= float(last[5]) <= 1.0


@pytest.mark.parametrize("N", ["-1e-5", "-1e-300"])
def test_omega_with_N_near_0_ends_in_an_exit_code(tmp_path, capsys, N):
    # 2^(1 - 1/N) overflows a double here; Omega's cap is its limit, +inf
    sp = _space_file(tmp_path, kind="glued_cos_n",
                     params={"K": -2.0, "N": -2.0, "J": 2}, grid_n=256)
    out = tmp_path / "om.csv"
    rc = main(["omega", "--space", sp, "--k", "2", "--h-max", "3",
               "--M", "10", "--N", N, "--samples", "4", "--seed", "0",
               "--out", str(out)])
    assert rc in (EXIT_OK, EXIT_USAGE)
    if rc == EXIT_OK:
        assert [r["h"] for r in csv.DictReader(out.open())] == ["2", "3"]
    else:
        assert capsys.readouterr().err.startswith("error: ")


def test_omega_sampler_stays_in_the_regular_region(tmp_path):
    # seed 3 draws a block that charges a cell centred just outside R^0;
    # the default sampler draws that pair again instead of failing the run
    sp = _space_file(tmp_path, grid_n=256)
    out = tmp_path / "om.csv"
    rc = main(["omega", "--space", sp, "--k", "0", "--h-max", "4",
               "--M", "100", "--samples", "8", "--seed", "3", "--out", str(out)])
    assert rc == EXIT_OK
    assert [r["h"] for r in csv.DictReader(out.open())] == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cdcheck_restrict_k_draws_inside_the_regular_region(tmp_path, seed):
    # the pairs are drawn inside R^1, so verify_cd's support check holds
    sp = _space_file(tmp_path, grid_n=256)
    out = tmp_path / "cd.csv"
    rc = main(["cdcheck", "--space", sp, "--K", "-2", "--N", "-2",
               "--samples", "20", "--seed", str(seed), "--restrict-k", "1",
               "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "cd.csv.summary.json").read_text())
    assert summary["passed"] is True and summary["samples"] == 20


def test_omega_cells_equal_one_level_at_a_time(tmp_path):
    sp = _space_file(tmp_path, kind="glued_cos_n",
                     params={"K": -2.0, "N": -2.0, "J": 2}, grid_n=256)
    out = tmp_path / "om.csv"
    assert main(["omega", "--space", sp, "--k", "2", "--h-max", "5",
                 "--M", "10", "--samples", "6", "--seed", "9",
                 "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["h"] for r in rows] == ["2", "3", "4", "5"]
    space = _load_space(sp)
    kw = dict(n_samples=6, N=-2.0, seed=9)
    for r in rows:
        h = int(r["h"])
        assert r["omega"] == _fmt(estimate_omega(space, 2, h, 10.0, **kw))
        assert r["Omega"] == _fmt(estimate_Omega(space, 2, h, 10.0, 0.1, **kw))


def test_omega_draws_one_candidate_stream_for_both_caps(tmp_path, monkeypatch):
    # at M = 1.05 about half the candidates pass, at the scaled cap all do:
    # the table draws as many as the longer of the two one-cap passes
    from cdknlab import cdcheck
    sp = _space_file(tmp_path, kind="glued_cos_n",
                     params={"K": -2.0, "N": -2.0, "J": 2}, grid_n=256)
    space = _load_space(sp)
    calls = []
    one_spec = cdcheck._one_spec
    monkeypatch.setattr(cdcheck, "_one_spec",
                        lambda *a: calls.append(a[2]) or one_spec(*a))
    out = tmp_path / "om.csv"
    assert main(["omega", "--space", sp, "--k", "2", "--h-max", "4",
                 "--M", "1.05", "--samples", "8", "--seed", "2",
                 "--out", str(out)]) == EXIT_OK
    table = len(calls)
    kw = dict(n_samples=8, N=-2.0, seed=2)
    passes = []
    for M in (cdcheck.Omega_cap(1.05, -2.0), 1.05):
        calls.clear()
        estimate_omega(space, 2, [2, 3, 4], M, **kw)
        passes.append(len(calls))
    assert table == max(passes) < sum(passes)
    assert passes[0] < passes[1]
    rows = list(csv.DictReader(out.read_text().splitlines()))
    omegas = estimate_omega(space, 2, [2, 3, 4], 1.05, **kw)
    Omegas = estimate_Omega(space, 2, [2, 3, 4], 1.05, 0.1, **kw)
    assert [r["omega"] for r in rows] == [_fmt(v) for v in omegas]
    assert [r["Omega"] for r in rows] == [_fmt(v) for v in Omegas]


def test_many_short_arches_leave_room_for_marginals(tmp_path):
    # 64 arches of length pi: a pad of 2 % of the span (4.0) would cover each
    sp = _space_file(tmp_path, kind="glued_cos_n",
                     params={"K": -2.0, "N": -2.0, "J": 64}, grid_n=4096)
    assert main(["cdcheck", "--space", sp, "--K", "-2", "--N", "-2",
                 "--samples", "2", "--seed", "0",
                 "--out", str(tmp_path / "cd.csv")]) == EXIT_OK
    assert main(["omega", "--space", sp, "--k", "3", "--h-max", "5",
                 "--M", "10", "--samples", "4", "--seed", "0",
                 "--out", str(tmp_path / "om.csv")]) == EXIT_OK


# ---------------------------------------------------------------------------
# failure handling


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cdcheck", "--K", "1.0"])
    assert exc.value.code == EXIT_USAGE


def test_malformed_space_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    out = tmp_path / "rep.csv"
    rc = main(["cdcheck", "--space", str(p), "--K", "-2.0", "--N", "-2.0",
               "--samples", "1", "--seed", "0", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("desc", [
    # power_n on an unbounded domain needs an explicit truncation
    {"kind": "power_n", "params": {"N": -2.0}},
    # fields that do not convert to numbers
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": "abc"},
    {"kind": "cos_n", "params": {"K": "x", "N": -2.0}},
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "base_point": "q"},
    {"kind": "cos_n", "params": [1]},
    {"kind": "custom_psi", "domain": [0.0, 1.0], "psi_samples": ["a", "b", "c"]},
    # a grid too large to build
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": 2 ** 20 + 1},
    # a domain that is not two numbers
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "domain": [1]},
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "domain": ["a", "b"]},
    # more gluing points than cell edges
    {"kind": "glued_cos_n", "params": {"K": -2.0, "N": -2.0, "J": 10 ** 8}},
    # gluing points that are not cell edges: 3 arches on 64 cells
    {"kind": "glued_cos_n", "params": {"K": -2.0, "N": -2.0, "J": 3}, "grid_n": 64},
    # a cut level whose scale 2^k overflows
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "regularity_k": 2000},
    # a truncation radius for a kind without an unbounded domain
    {"kind": "custom_psi", "psi_samples": [0.0, 0.0, 0.0], "truncation_radius": 2},
    # a density that underflows to 0 at every cell centre
    {"kind": "cauchy", "params": {"alpha": 1e10}, "truncation_radius": 4.0},
    # integer fields set to Infinity, and a float field past the double range
    {"kind": "glued_cos_n", "params": {"K": -2.0, "N": -2.0, "J": math.inf}},
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": math.inf},
    {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "regularity_k": math.inf},
    {"kind": "cos_n", "params": {"K": -(10 ** 400), "N": -2.0}},
    # a density exp(-psi) that overflows
    {"kind": "custom_psi", "domain": [0.0, 1.0], "psi_samples": [0.0, -1000.0, 0.0]},
    # cell centres that overflow
    {"kind": "sinh_n", "params": {"K": 1.0, "N": -2.0},
     "truncation_radius": 1.797e308, "base_point": 1.797e308},
    # integrals that quad reports as failed: a cut-off tail of cosh^-2 that
    # it sums to -1, and a cauchy normalisation out of subdivisions
    {"kind": "cosh_n", "params": {"K": 1e-300, "N": -2.0},
     "truncation_radius": 4.0, "grid_n": 64},
    {"kind": "cauchy", "params": {"alpha": 1e-300}, "truncation_radius": 4.0,
     "grid_n": 64},
    # a cut-off tail near 1 that the tiny normalising constant scales to
    # 6e-10, which quad's default absolute tolerance would have passed
    {"kind": "cauchy", "params": {"alpha": 1e-10}, "truncation_radius": 4.0,
     "grid_n": 64},
    # an alpha past lgamma's range (lgamma(5e307) overflows): the normaliser
    # comes from the asymptotic series, and the density underflows to 0 at
    # every cell centre
    {"kind": "cauchy", "params": {"alpha": 1e308}, "truncation_radius": 4.0},
], ids=["unbounded_power_n", "grid_n_abc", "K_x", "base_point_q",
        "params_list", "psi_samples_abc", "grid_n_over_cap", "domain_one",
        "domain_ab", "J_over_grid_n", "J_not_dividing_grid_n", "regularity_k_2000",
        "truncation_radius_custom_psi", "cauchy_alpha_1e10", "J_inf",
        "grid_n_inf", "regularity_k_inf", "K_huge_int", "psi_minus_1000",
        "sinh_n_radius_max", "cosh_n_K_1e-300", "cauchy_alpha_1e-300",
        "cauchy_alpha_1e-10", "cauchy_alpha_1e308"])
def test_bad_model_params_are_usage_errors(tmp_path, desc):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(desc))
    assert main(["model", "--space", str(p)]) == EXIT_USAGE


_SEQ = {"family": "glued_drift", "K": -2.0, "N": -2.0, "grid_n": 64,
        "n_range": [1, 2]}


@pytest.mark.parametrize("seq", [
    {k: v for k, v in _SEQ.items() if k != "n_range"},
    {**_SEQ, "N": "x"},
    [_SEQ],
    {**_SEQ, "grid_n": 2 ** 20 + 1},
    {**_SEQ, "grid_n": 4},
    {**_SEQ, "n_range": [1, 10 ** 8]},
    {**_SEQ, "k_range": [0, 2000]},
    {**_SEQ, "family": "truncated_power", "n_range": [-2000, -1999]},
    {**_SEQ, "grid_n": math.inf},
    # empty ranges: a run that checks nothing
    {**_SEQ, "k_range": [3, 1]},
    {**_SEQ, "n_range": [2, 1]},
    {"family": "custom_list", "n_range": [0, 0], "spaces": [],
     "limit": {"kind": "cos_n", "params": {"K": -2.0, "N": -2.0}, "grid_n": 64}},
    # members whose x^N overflows, with a limit that rejects N
    {**_SEQ, "family": "truncated_power", "N": 3235},
], ids=["no_n_range", "N_x", "json_list", "grid_n_over_cap", "grid_n_4",
        "n_range_long", "k_range_2000", "n_negative_2000", "grid_n_inf",
        "k_range_reversed", "n_range_reversed", "no_spaces",
        "truncated_power_N_3235"])
def test_bad_sequence_files_are_usage_errors(tmp_path, seq):
    p = tmp_path / "seq.json"
    p.write_text(json.dumps(seq))
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--seq", str(p), "--no-cd", "--seed", "0",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2", "--seed", "0",
     "--samples", "0"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2", "--seed", "0",
     "--samples", "-3"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2", "--seed", "0",
     "--t-grid", "0"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2", "--seed", "0",
     "--nprime-grid", "0"],
    ["converge", "--seq", "{seq}", "--seed", "0", "--cd-samples", "0"],
    ["omega", "--space", "{space}", "--k", "2", "--h-max", "3", "--M", "5",
     "--seed", "0", "--samples", "0"],
    ["omega", "--space", "{space}", "--k", "5", "--h-max", "3", "--M", "5",
     "--seed", "0"],
    ["ikrw", "--space-a", "{space}", "--space-b", "{space}", "--k-bar", "5",
     "--k-max", "2"],
], ids=["samples_0", "samples_neg", "t_grid_0", "nprime_grid_0",
        "cd_samples_0", "omega_samples_0", "k_above_h_max",
        "k_bar_above_k_max"])
def test_runs_that_check_nothing_are_usage_errors(tmp_path, argv):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"x": [0.0, 0.5, 1.0], "psi": [0.0, 0.0, 0.0]}))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(_SEQ))
    files = {"space": _space_file(tmp_path), "psi": str(psi), "seq": str(seq)}
    out = tmp_path / "out.json"
    argv = [a.format(**files) for a in argv] + ["--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse rejects the flag value
        rc = e.code
    assert rc == EXIT_USAGE
    assert not out.exists()
    assert not (tmp_path / "out.json.summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["cdcheck", "--space", "{space}", "--K", "nan", "--N", "-1", "--seed", "0"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N=-inf", "--seed", "0"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-1", "--seed", "0",
     "--tol", "-1"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-1", "--seed", "0",
     "--tol", "nan"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-1", "--seed", "0",
     "--restrict-k", "2000"],
    ["convexity", "--psi", "{psi}", "--K", "inf", "--N", "-2"],
    ["converge", "--seq", "{seq}", "--seed", "0", "--tol", "inf"],
    ["omega", "--space", "{space}", "--k", "2", "--h-max", "3", "--seed", "0",
     "--M", "nan"],
    ["omega", "--space", "{space}", "--k", "2", "--h-max", "3", "--seed", "0",
     "--M", "5", "--N", "0"],
    ["omega", "--space", "{space}", "--k", "2", "--h-max", "3", "--seed", "0",
     "--M", "5", "--delta", "inf"],
    ["omega", "--space", "{space}", "--k", "1100", "--h-max", "1100",
     "--seed", "0", "--M", "5"],
    ["ikrw", "--space-a", "{space}", "--space-b", "{space}",
     "--k-bar", "1024", "--k-max", "1024"],
    ["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2", "--seed", "-1"],
    ["converge", "--seq", "{seq}", "--seed", "-1"],
    ["omega", "--space", "{space}", "--k", "2", "--h-max", "3", "--M", "5",
     "--seed", "-1"],
    ["omega", "--space", "{space}", "--k", "2", "--h-max", "3", "--M", "5",
     "--seed", "1.5"],
], ids=["K_nan", "N_neg_inf", "tol_neg", "tol_nan", "restrict_k_2000",
        "convexity_K_inf", "converge_tol_inf", "omega_M_nan", "omega_N_0",
        "omega_delta_inf", "omega_k_1100", "ikrw_k_1024", "cdcheck_seed_neg",
        "converge_seed_neg", "omega_seed_neg",
        "omega_seed_float"])
def test_non_finite_or_out_of_range_numbers_are_usage_errors(tmp_path, argv):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"x": [0.0, 0.5, 1.0], "psi": [0.0, 0.0, 0.0]}))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(_SEQ))
    files = {"space": _space_file(tmp_path), "psi": str(psi), "seq": str(seq)}
    out = tmp_path / "out.csv"
    argv = [a.format(**files) for a in argv] + ["--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse rejects the flag value
        rc = e.code
    assert rc == EXIT_USAGE
    assert not out.exists()
    assert not (tmp_path / "out.csv.summary.json").exists()


_CAPPED = {
    "t_grid": (["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2",
                "--seed", "0"], "--t-grid", MAX_GRID_COUNT),
    "nprime_grid": (["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2",
                     "--seed", "0"], "--nprime-grid", MAX_GRID_COUNT),
    "samples": (["cdcheck", "--space", "{space}", "--K", "-2", "--N", "-2",
                 "--seed", "0"], "--samples", MAX_SAMPLES),
    "omega_samples": (["omega", "--space", "{space}", "--k", "2", "--h-max", "3",
                       "--M", "5", "--seed", "0"], "--samples", MAX_SAMPLES),
    "cd_samples": (["converge", "--seq", "{seq}", "--seed", "0"],
                   "--cd-samples", MAX_SAMPLES),
}


@pytest.mark.parametrize("name", list(_CAPPED))
def test_count_flags_above_their_caps_are_usage_errors(tmp_path, name):
    argv, flag, cap = _CAPPED[name]
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"x": [0.0, 0.5, 1.0], "psi": [0.0, 0.0, 0.0]}))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(_SEQ))
    files = {"space": _space_file(tmp_path), "psi": str(psi), "seq": str(seq)}
    argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "o.csv")]
    # the cap itself is accepted (parsed only: running it would take long)
    assert getattr(build_parser().parse_args(argv + [flag, str(cap)]),
                   flag[2:].replace("-", "_")) == cap
    with pytest.raises(SystemExit) as e:
        main(argv + [flag, str(cap + 1)])
    assert e.value.code == EXIT_USAGE
    assert not list(tmp_path.glob("o.csv*"))


def test_cdcheck_rows_above_the_cap_are_a_usage_error(tmp_path, capsys):
    # each count is within its cap, their product of rows is not
    out = tmp_path / "o.csv"
    rc = main(["cdcheck", "--space", _space_file(tmp_path), "--K", "-2",
               "--N", "-2", "--seed", "0", "--samples", "2", "--t-grid", "1000",
               "--nprime-grid", "1000", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert f"2000000 rows exceeds the cap {MAX_ROWS}" in capsys.readouterr().err
    assert not list(tmp_path.glob("o.csv*"))


def test_import_loads_no_scipy_solver_or_integrator():
    # scipy's LP, sparse and quadrature modules are imported where they are
    # called, so cos-type cdcheck, model and omega runs never load them
    code = ("import sys, cdknlab, cdknlab.cli; print(sorted(m for m in "
            "('scipy.optimize', 'scipy.integrate', 'scipy.sparse') "
            "if m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cdknlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_certify_and_cdcheck_load_no_integrator(tmp_path):
    # the cauchy normalisation is in closed form and the cut-off tails are
    # integrated only when a summary reports them
    desc = {"kind": "cauchy", "params": {"alpha": 1.0}, "domain": [-4.0, 4.0],
            "grid_n": 256}
    (tmp_path / "c.json").write_text(json.dumps(desc))
    code = textwrap.dedent(f"""
        import sys
        from cdknlab.cdcheck import richardson_check
        from cdknlab.cli import main
        from cdknlab.mmspace import ModelSpec, build_model_space
        make = lambda n: build_model_space(ModelSpec(
            kind="cauchy", alpha=1.0, domain=(-4.0, 4.0), grid_n=n))
        richardson_check(make, 0.0, -1.0, n_samples=1, seed=0,
                         grids=(256, 512))
        rc = main(["cdcheck", "--space", "c.json", "--K", "0", "--N", "-1",
                   "--samples", "1", "--seed", "0", "--out", "cd.csv"])
        print(rc, "scipy.integrate" in sys.modules)
        main(["model", "--space", "c.json"])
    """)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cdknlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         cwd=tmp_path, capture_output=True, text=True).stdout
    first, summary = out.split("\n", 1)
    assert first.split()[1] == "False"
    assert json.loads(summary)["truncated_tail_mass"] == pytest.approx(
        0.155958260755, abs=1e-12)


@pytest.mark.parametrize("flags, want", [
    (["--N", "-1e-3"], {"N": -1e-3}),
    (["--K", "-1e308"], {"K": -1e308}),
    (["--M", "-2.5E+1"], {"M": -25.0}),
    (["--N=-1e-3"], {"N": -1e-3}),
], ids=["N_exp", "K_exp", "M_exp_upper", "N_equals"])
def test_negative_flag_values_in_exponent_form(flags, want):
    argv = {"N": ["cdcheck", "--space", "s.json", "--K", "-2", "--seed", "0",
                  "--out", "o.csv"],
            "K": ["cdcheck", "--space", "s.json", "--N", "-1", "--seed", "0",
                  "--out", "o.csv"],
            "M": ["omega", "--space", "s.json", "--k", "2", "--h-max", "3",
                  "--seed", "0", "--out", "o.csv"]}[next(iter(want))]
    args = build_parser().parse_args(argv + flags)
    for name, value in want.items():
        assert type(getattr(args, name)) is float
        assert getattr(args, name) == value


def test_model_with_a_joint_on_every_cell_is_an_empty_cut(tmp_path, capsys):
    # 65536 arches on 131072 cells: every cell touches a joint, so the
    # k = 0 cut has no mass
    p = tmp_path / "many.json"
    p.write_text(json.dumps({"kind": "glued_cos_n",
                             "params": {"K": -2, "N": -2, "J": 65536},
                             "grid_n": 131072}))
    assert main(["model", "--space", str(p)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cut has no mass" in err
    assert "Traceback" not in err


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(_SEQ))
    runs = {"cd": ["cdcheck", "--space", _space_file(tmp_path), "--K", "-2.0",
                   "--N", "-2.0", "--samples", "2", "--seed", "11"],
            "conv": ["converge", "--seq", str(seq), "--no-cd", "--seed", "0"]}
    reports = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cdknlab.__file__)))
        out_dir = tmp_path / hash_seed
        out_dir.mkdir()
        for name, argv in runs.items():
            subprocess.run([sys.executable, "-m", "cdknlab.cli", *argv,
                            "--out", str(out_dir / f"{name}.csv")],
                           env=env, check=True, capture_output=True)
        reports.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert len(reports[0]) == 4
    assert reports[0] == reports[1]


def test_threads_variable_is_exported_before_numpy_loads():
    # numpy's BLAS reads OPENBLAS_NUM_THREADS once, when numpy is imported
    spy = textwrap.dedent("""
        import os, sys
        seen = []
        class Spy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
                return None
        sys.meta_path.insert(0, Spy())
        import cdknlab.cli
        print(seen[0])
    """)
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["CDKNLAB_THREADS"] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cdknlab.__file__))
    out = subprocess.run([sys.executable, "-c", spy], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1"


@pytest.mark.parametrize("value, rc, forwarded", [
    ("2", EXIT_OK, "2"), ("abc", EXIT_USAGE, None), ("0", EXIT_USAGE, None),
    ("-3", EXIT_USAGE, None), ("1.5", EXIT_USAGE, None)])
def test_threads_variable_takes_an_integer_of_at_least_one(tmp_path, value, rc,
                                                           forwarded):
    # any other value is neither passed to the backends nor run
    run = textwrap.dedent("""
        import os, sys
        from cdknlab import cli
        print(os.environ.get("OMP_NUM_THREADS"))
        sys.exit(cli.main(sys.argv[1:]))
    """)
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["CDKNLAB_THREADS"] = value
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cdknlab.__file__))
    out = tmp_path / "m.json"
    proc = subprocess.run([sys.executable, "-c", run, "model", "--space",
                           _space_file(tmp_path), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == rc
    assert proc.stdout.strip() == str(forwarded)
    assert out.exists() == (rc == EXIT_OK)
    if rc == EXIT_USAGE:
        assert f"CDKNLAB_THREADS={value!r}" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_failed_run_leaves_existing_report_intact(tmp_path):
    out = tmp_path / "rep.csv"
    out.write_text("sentinel")
    p = tmp_path / "broken.json"
    p.write_text("[]")
    rc = main(["cdcheck", "--space", str(p), "--K", "-2.0", "--N", "-2.0",
               "--samples", "1", "--seed", "0", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert out.read_text() == "sentinel"
