"""Command-line interface: formats, exit codes, determinism, golden output."""

import csv
import io
import json
import math
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entroscore import (ASYMMETRIC_WITH_WITNESS, SYMMETRIC_GENERALIZED_QUADRATIC, ConvexDomainSpec, MeasureSpace,
                        catalog_entropy, cli, entropies, expected_score, measure, sampling, score_divergence,
                        score_divergence_rows, subdifferential_probe, symmetry_defect, verify_euler,
                        verify_propriety)
from entroscore.cli import main

from conftest import CATALOG_SPECS, child_env, rule_from_spec
from goldens import DATA, GOLDENS, run_goldens

FORECASTS = str(DATA / "forecasts_10.csv")
OUTCOMES = str(DATA / "outcomes_10.csv")


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestScoreCommand:
    def test_rows_match_direct_library_calls(self, tmp_path):
        code, payload = run(tmp_path, "score", FORECASTS, OUTCOMES, "--rules", "quadratic,shannon")
        assert code == 0
        rows = list(csv.DictReader(payload.decode().splitlines()))
        space = MeasureSpace(np.ones(3))
        quadratic = rule_from_spec("quadratic", space)
        shannon = rule_from_spec("shannon", space)
        forecasts = list(csv.DictReader(open(FORECASTS)))
        outcomes = [int(r["outcome"]) for r in csv.DictReader(open(OUTCOMES))]
        for row, forecast, outcome in zip(rows, forecasts, outcomes):
            q = space.density([float(forecast[f"p{i}"]) for i in (1, 2, 3)])
            assert float(row["quadratic_score"]) == quadratic.score(q).values[outcome - 1]
            assert float(row["quadratic_expected"]) == expected_score(quadratic, q, q)
            assert float(row["shannon_score"]) == shannon.score(q).values[outcome - 1]

    def test_infinite_sentinel_rendering_and_mean_exclusion(self, tmp_path):
        code, payload = run(tmp_path, "score", FORECASTS, OUTCOMES, "--rules", "shannon")
        text = payload.decode()
        rows = text.splitlines()
        # row 3 forecasts (1,0,0) but outcome 2: the log score is -inf
        assert rows[3].split(",")[2] == "-inf"
        footer = {r.split(",")[0]: r.split(",")[2:] for r in rows[-2:]}
        assert footer["inf_count"][0] == "1"
        finite = [
            float(r.split(",")[2]) for r in rows[1:-2] if r.split(",")[2] != "-inf"
        ]
        assert float(footer["mean"][0]) == pytest.approx(math.fsum(finite) / len(finite))

    def test_two_outcome_hand_values(self, tmp_path):
        forecasts = tmp_path / "f.csv"
        forecasts.write_text("p1,p2\n0.5,0.5\n0.5,0.5\n1,0\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n1\n1\n2\n")
        code, payload = run(
            tmp_path, "score", str(forecasts), str(outcomes), "--rules", "quadratic,shannon"
        )
        assert code == 0
        rows = [line.split(",") for line in payload.decode().splitlines()]
        assert float(rows[1][2]) == 0.5                     # quadratic S(q)(1) at (.5,.5)
        assert float(rows[2][4]) == math.log(0.5)           # shannon score = log 1/2
        assert rows[3][4] == "-inf"                         # log 0 at the observed atom
        # the linear rule's score is the forecast itself: -0.0 renders as 0.0, subnormals exactly
        forecasts.write_text("p1,p2\n1,-0.0\n1,5e-324\n")
        outcomes.write_text("outcome\n2\n2\n")
        code, payload = run(tmp_path, "score", str(forecasts), str(outcomes), "--rules", "linear")
        assert code == 0
        assert [line.split(",")[2] for line in payload.decode().splitlines()[1:3]] == ["0.0", "5e-324"]

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n0.5,0.25,0.25\n")
        code, _ = run(tmp_path, "score", str(bad), OUTCOMES)
        assert code == 2
        assert ":1:" in capsys.readouterr().err

    def test_non_numeric_cell_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("p1,p2\n0.5,0.5\n0.5,oops\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n1\n2\n")
        code, _ = run(tmp_path, "score", str(bad), str(outcomes))
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_invalid_density_exits_3_listing_rows(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("p1,p2\n0.5,0.5\n0.9,0.2\n0.7,0.3\n-0.2,1.2\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n1\n2\n1\n2\n")
        code, _ = run(tmp_path, "score", str(bad), str(outcomes))
        assert code == 3
        err = capsys.readouterr().err
        assert "row 2" in err and "row 4" in err and "row 3" not in err

    @pytest.mark.parametrize("rule, code", [
        ("quadratic", 3), ("spherical", 0), ("power(1.5)", 3), ("power(3)", 3),
        ("pseudospherical(3)", 0), ("linear", 0), ("shannon", 0),
    ])
    def test_scores_past_the_float_range_exit_3_listing_rows(self, tmp_path, capsys, rule, code):
        # under weights (1e-300, 1) row 2 is a density, but most of its scores
        # overflow; the log score stays finite, and so do linear's, spherical's
        # and pseudospherical's scores and pairings: 1e300 * 1e-300 is taken
        # first, and the 1-homogeneous norms rescale the row by its max
        forecasts = tmp_path / "f.csv"
        forecasts.write_text("p1,p2\n0,1\n1e300,0\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n2\n1\n")
        argv = ["score", str(forecasts), str(outcomes), "--weights", "1e-300,1", "--rules", rule]
        assert run(tmp_path, *argv)[0] == code
        if code == 3:
            err = capsys.readouterr().err
            assert "row 2" in err and "row 1" not in err

    def test_linear_expected_score_of_a_heavy_light_atom(self, tmp_path):
        # (q f) mu would overflow at q = f = 1e300, mu = 1e-300; (q mu) f does not
        forecasts = tmp_path / "f.csv"
        forecasts.write_text("p1,p2\n1e300,0\n0,1\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n1\n2\n")
        argv = ["score", str(forecasts), str(outcomes), "--weights", "1e-300,1", "--rules", "linear"]
        code, payload = run(tmp_path, *argv)
        assert code == 0
        assert payload.decode().splitlines()[1:3] == ["1,1,1e+300,1e+300", "2,2,1.0,1.0"]

    def test_unknown_rule_exits_4(self, tmp_path):
        code, _ = run(tmp_path, "score", FORECASTS, OUTCOMES, "--rules", "nosuchrule")
        assert code == 4
        code, _ = run(tmp_path, "score", FORECASTS, OUTCOMES, "--rules", "power(0.5)")
        assert code == 4
        code, _ = run(tmp_path, "score", FORECASTS, OUTCOMES, "--rules", "power(inf)")
        assert code == 4

    def test_weights_flag_changes_the_measure(self, tmp_path):
        # with atom weights (2, 2) the density rows must have weighted mass 1
        forecasts = tmp_path / "f.csv"
        forecasts.write_text("p1,p2\n0.25,0.25\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n1\n")
        code, payload = run(
            tmp_path, "score", str(forecasts), str(outcomes),
            "--rules", "quadratic", "--weights", "2,2",
        )
        assert code == 0
        # value = sum q^2 mu = 0.25; S(q)(1) = 2*0.25 - 0.25 = 0.25
        row = payload.decode().splitlines()[1].split(",")
        assert float(row[2]) == 0.25 and float(row[3]) == 0.25
        # the same rows are rejected under unit weights
        code, _ = run(tmp_path, "score", str(forecasts), str(outcomes), "--rules", "quadratic")
        assert code == 3

    def test_row_count_mismatch_exits_2(self, tmp_path):
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n1\n")
        code, _ = run(tmp_path, "score", FORECASTS, str(outcomes))
        assert code == 2

    def test_outcome_out_of_range_exits_2(self, tmp_path):
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n" + "1\n" * 9 + "4\n")
        code, _ = run(tmp_path, "score", FORECASTS, str(outcomes))
        assert code == 2


    def test_large_gamma_pseudospherical_runs_everywhere(self, tmp_path):
        # sum q^2000 leaves the float range on these rows; the rule rescales
        spec = "pseudospherical(2000)"
        code, payload = run(tmp_path, "score", FORECASTS, OUTCOMES, "--rules", spec)
        assert code == 0
        assert payload.decode().splitlines()[1] == "1,1,1.0,0.5"
        assert run(tmp_path, "divergence", FORECASTS, FORECASTS, "--rules", spec)[0] == 0
        config = tmp_path / "verify.ini"
        config.write_text(f"[verify]\nsamples = 100\nweights = 1,1,1\n\n[rule {spec}]\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 0


class TestDivergenceCommand:
    def test_matrix_matches_library(self, tmp_path):
        code, payload = run(
            tmp_path, "divergence", FORECASTS, FORECASTS, "--rules", "quadratic"
        )
        assert code == 0
        space = MeasureSpace(np.ones(3))
        rule = rule_from_spec("quadratic", space)
        forecasts = [
            space.density([float(r[f"p{i}"]) for i in (1, 2, 3)])
            for r in csv.DictReader(open(FORECASTS))
        ]
        rows = list(csv.reader(payload.decode().splitlines()))[1:]
        for i, row in enumerate(rows):
            assert row[0] == "quadratic" and row[1] == f"p{i + 1}"
            for j, cell in enumerate(row[2:]):
                assert float(cell) == score_divergence(rule, forecasts[i], forecasts[j])
            assert float(row[2 + i]) == 0.0  # zero diagonal

    def test_kl_blowup_renders_inf(self, tmp_path, monkeypatch):
        p = tmp_path / "p.csv"
        p.write_text("p1,p2\n0.5,0.5\n")
        q = tmp_path / "q.csv"
        q.write_text("p1,p2\n1,0\n")
        code, payload = run(tmp_path, "divergence", str(p), str(q), "--rules", "shannon")
        assert code == 0
        assert payload.decode().splitlines()[1].split(",")[2] == "inf"
        # numpy cells render as Python float reprs, -0.0 as 0.0
        cells = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1])
        monkeypatch.setattr(cli, "score_divergence_rows", lambda *args: cells[None])
        code, payload = run(tmp_path, "divergence", str(p), str(q), "--rules", "shannon")
        assert code == 0
        assert payload.decode().splitlines()[1].split(",")[2:] == [
            "0.0", "nan", "inf", "-inf", "5e-324", "0.1"]

    def test_scores_past_the_float_range_exit_3(self, tmp_path, capsys):
        densities = tmp_path / "p.csv"
        densities.write_text("p1,p2\n0,1\n1e300,0\n")
        argv = ["divergence", str(densities), str(densities), "--weights", "1e-300,1",
                "--rules", "quadratic"]
        assert run(tmp_path, *argv)[0] == 3
        assert "row 2" in capsys.readouterr().err

    def test_linear_divergence_of_a_heavy_light_atom(self, tmp_path):
        # D(p1, p1) = 0 and D(p1, p2) = 1e300 once (q mu) f is formed before (q f) mu overflows
        densities = tmp_path / "p.csv"
        densities.write_text("p1,p2\n1e300,0\n0,1\n")
        argv = ["divergence", str(densities), str(densities), "--weights", "1e-300,1", "--rules", "linear"]
        code, payload = run(tmp_path, *argv)
        assert code == 0
        assert payload.decode().splitlines()[1:] == ["linear,p1,0.0,1e+300", "linear,p2,1.0,0.0"]

    def test_width_mismatch_exits_2(self, tmp_path):
        q = tmp_path / "q.csv"
        q.write_text("p1,p2\n0.5,0.5\n")
        code, _ = run(tmp_path, "divergence", FORECASTS, str(q))
        assert code == 2


class TestVerifyCommand:
    def test_default_config_seed_42_passes(self, tmp_path):
        code, payload = run(tmp_path, "verify", "--seed", "42", "--samples", "300")
        assert code == 0
        report = json.loads(payload)
        assert report["pass"] is True
        assert set(report["rules"]) == {
            "quadratic", "spherical", "shannon", "power(1.5)", "power(3)",
            "pseudospherical(3)",
        }

    def test_improper_rule_fails_with_reproducible_witness(self, tmp_path):
        config = str(DATA / "verify_improper.ini")
        code1, payload1 = run(tmp_path, "verify", "--config", config)
        code2, payload2 = run(tmp_path, "verify", "--config", config)
        assert code1 == code2 == 1
        assert payload1 == payload2  # byte-identical, witness included
        report = json.loads(payload1)
        propriety = report["rules"]["linear"]["propriety"]
        assert propriety["pass"] is False
        assert propriety["min_margin"] < 0
        # the witness is a concrete pair of densities
        assert len(propriety["witness_p"]) == 3
        assert report["pass"] is False

    @pytest.mark.parametrize("weights, spec", [
        # every density charges the light atom with up to 1e9: pseudospherical(3)'s expected
        # scores reach 1.5e6, and an absolute tolerance of 1e-10 failed a margin of -2.3e-10
        ("1e-9,1,1", "pseudospherical(3)"),
        # one atom: every density is the point 1 / 3e-8 up to an ulp, and power(3)'s expected
        # scores of 1.1e15 give a margin of -0.25 from rounding alone
        ("3e-8", "power(3)"),
    ])
    def test_propriety_margins_are_relative_to_their_scale(self, tmp_path, weights, spec):
        # each margin must reach -tol * scale, scale = 1 + |pair(p, S(p))| + |pair(p, S(q))| + |G(q)|;
        # the report gives the scale of the pair with the smallest relative margin
        config = tmp_path / "scaled.ini"
        config.write_text(f"[verify]\nseed = 42\nsamples = 1000\nweights = {weights}\n"
                          f"suites = propriety\n\n[rule {spec}]\n")
        code, payload = run(tmp_path, "verify", "--config", str(config))
        propriety = json.loads(payload)["rules"][spec]["propriety"]
        assert code == 0 and propriety["pass"] is True
        assert propriety["min_margin"] >= -propriety["tol"] * propriety["margin_scale"]

    def test_determinism_byte_identical(self, tmp_path):
        code1, payload1 = run(tmp_path, "verify", "--seed", "7", "--samples", "150")
        code2, payload2 = run(tmp_path, "verify", "--seed", "7", "--samples", "150")
        assert code1 == code2 == 0
        assert payload1 == payload2

    def test_probe_section(self, tmp_path):
        config = tmp_path / "probe.ini"
        config.write_text(
            "[verify]\nseed = 42\nsamples = 100\nweights = 1,1\n"
            "suites = propriety\n\n"
            "[rule quadratic]\n\n"
            "[probe corner]\n"
            "entropy = quadratic\n"
            "domain = orthant\n"
            "point = 1,0\n"
            "candidates = 2,-2 ; 2,-1 ; 2,0 ; 2,0.1 ; 2,1\n"
            "expect_verified = 2,-2 ; 2,-1 ; 2,0\n"
            "expect_rejected = 2,0.1 ; 2,1\n"
        )
        code, payload = run(tmp_path, "verify", "--config", str(config))
        assert code == 0
        report = json.loads(payload)
        assert report["probes"]["corner"]["pass"] is True
        assert len(report["probes"]["corner"]["verified"]) == 3

    def test_probe_past_the_float_range_exits_2_naming_it(self, tmp_path, capsys):
        # q q mu overflows on sampled points near this point
        config = tmp_path / "probe.ini"
        config.write_text(
            "[verify]\nseed = 1\nsamples = 5\nweights = 1,1,1\nsuites = propriety\n\n"
            "[rule quadratic]\n\n"
            "[probe big]\nentropy = quadratic\ndomain = whole_space\n"
            "point = 1.1e154,6e153,1\ncandidates = 2.2e154,1.2e154,2\nexpect_verified = 2.2e154,1.2e154,2\n"
        )
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("entroscore: probe 'big': ") and "float range" in err
        assert "row " not in err  # no row of a batch inside the probe

    def test_weights_file(self, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("1.0\n1.0\n")
        config = tmp_path / "wf.ini"
        config.write_text(
            "[verify]\nseed = 42\nsamples = 50\nsuites = propriety\n"
            f"weights_file = {weights}\n\n[rule quadratic]\n"
        )
        code, payload = run(tmp_path, "verify", "--config", str(config))
        assert code == 0
        assert json.loads(payload)["config"]["weights"] == [1.0, 1.0]

    @pytest.mark.parametrize("text, lineno", [("1.0\n1,x,3\n1.0\n", 2), ("\n1,1,1\n", 2)],
                             ids=["bad-number", "several-per-line"])
    def test_bad_weights_file_line_is_named(self, tmp_path, capsys, text, lineno):
        weights = tmp_path / "w.csv"
        weights.write_text(text)
        config = tmp_path / "wf.ini"
        config.write_text(f"[verify]\nweights_file = {weights}\n\n[rule quadratic]\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        assert capsys.readouterr().err == f"entroscore: {weights}:{lineno}: non-numeric value\n"

    @pytest.mark.parametrize("section, line, text", [
        ("verify", "weights = 1,x", "1,x"),
        ("probe a", "entropy = quadratic\npoint = 1,y\ncandidates = 2,0", "1,y"),
    ], ids=["verify-weights", "probe-point"])
    def test_bad_number_list_names_file_and_section(self, tmp_path, capsys, section, line, text):
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{line}\n\n[rule quadratic]\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        assert capsys.readouterr().err == f"entroscore: {config}: [{section}]: bad number list {text!r}\n"

    def test_per_rule_overrides(self, tmp_path):
        config = tmp_path / "override.ini"
        config.write_text(
            "[verify]\nseed = 42\nsamples = 100\nweights = 1,1\nsuites = propriety\n\n"
            "[rule quadratic]\nsamples = 25\n\n"
            "[rule shannon]\n"
        )
        code, payload = run(tmp_path, "verify", "--config", str(config))
        assert code == 0
        report = json.loads(payload)
        assert report["rules"]["quadratic"]["propriety"]["samples"] == 25
        assert report["rules"]["shannon"]["propriety"]["samples"] == 100

    def test_power_two_is_expected_symmetric(self, tmp_path):
        # power(2) is the quadratic entropy, the Brier score's; pseudospherical(2) is the spherical one
        config = tmp_path / "two.ini"
        config.write_text("[verify]\nsamples = 200\nsuites = symmetry\n\n[rule power(2)]\n\n"
                          "[rule pseudospherical(2)]\n")
        code, payload = run(tmp_path, "verify", "--config", str(config))
        assert code == 0
        rules = json.loads(payload)["rules"]
        assert [rules[spec]["symmetry"]["expected"] for spec in ("power(2)", "pseudospherical(2)")] == [
            SYMMETRIC_GENERALIZED_QUADRATIC, ASYMMETRIC_WITH_WITNESS]

    def test_exponents_that_round_alike_report_their_own_names(self, tmp_path):
        # both exponents were reported as power(1), an exponent the catalog refuses
        specs = ("power(1.0000001)", "power(1.00000012)")
        config = tmp_path / "near.ini"
        config.write_text("[verify]\nsamples = 20\nsuites = propriety\n\n" + "".join(f"[rule {spec}]\n"
                                                                                        for spec in specs))
        code, payload = run(tmp_path, "verify", "--config", str(config))
        assert code == 0
        assert [json.loads(payload)["rules"][spec]["propriety"]["rule"] for spec in specs] == list(specs)

    def test_rule_overflowing_on_its_sample_points_exits_2(self, tmp_path, capsys):
        # power(1100)'s subgradient 1100 q^1099 overflows on the symmetry suite's box points
        config = tmp_path / "overflow.ini"
        config.write_text("[verify]\nweights = 1,1,1\nsamples = 50\nseed = 42\n\n[rule power(1100)]\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        err = capsys.readouterr().err
        assert "power(1100)" in err and "symmetry" in err
        # how many of the 100 sampled points overflow, and where they were drawn
        assert "power(1100) subgradients leave the float range at 12 of 100 sampled points" in err
        assert "the box [0.05, 2)^3" in err

    @pytest.mark.parametrize("suite, count", [("propriety", "20 of 20 sampled pairs"),
                                              ("euler", "20 of 20 sampled points")])
    def test_suite_past_the_float_range_counts_its_points(self, tmp_path, capsys, suite, count):
        # power(3)'s scores overflow wherever the 1e-200 atom holds mass: the
        # suite counts its sampled points, whose rows no report shows
        config = tmp_path / "tiny.ini"
        config.write_text(f"[verify]\nseed = 1\nsamples = 20\nweights = 1e-200,1,1\nsuites = {suite}\n\n"
                          "[rule power(3)]\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        err = capsys.readouterr().err
        assert err == (f"entroscore: rule 'power(3)': {suite} suite: "
                       f"power(3) scores leave the float range at {count}\n")
        assert "row " not in err

    def test_empty_rule_list_exits_2(self, tmp_path):
        config = tmp_path / "empty.ini"
        config.write_text("[verify]\nseed = 1\n")
        code, _ = run(tmp_path, "verify", "--config", str(config))
        assert code == 2

    def test_no_suites_and_no_probes_exits_2(self, tmp_path, capsys):
        config = tmp_path / "nothing.ini"
        config.write_text("[verify]\nsamples = 5\nsuites = ,\n\n[rule quadratic]\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        assert capsys.readouterr().err == f"entroscore: {config}: nothing to verify: no suites and no probes\n"

    def test_probe_without_candidates_exits_2_naming_its_section(self, tmp_path, capsys):
        config = tmp_path / "bare.ini"
        config.write_text("[verify]\nsamples = 5\nsuites = propriety\n\n[rule quadratic]\n\n"
                          "[probe bare]\nentropy = quadratic\npoint = 1,1,1\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        assert capsys.readouterr().err == f"entroscore: {config}: [probe bare]: no candidates to probe\n"

    def test_probes_alone_still_run_without_suites(self, tmp_path):
        config = tmp_path / "probes.ini"
        config.write_text("[verify]\nweights = 1,1\nsuites = ,\n\n[rule quadratic]\n\n"
                          "[probe corner]\nentropy = quadratic\npoint = 1,0\n"
                          "candidates = 2,0 ; 2,1\nexpect_verified = 2,0\nexpect_rejected = 2,1\n")
        code, payload = run(tmp_path, "verify", "--config", str(config))
        report = json.loads(payload)
        assert code == 0 and report["pass"] is True and report["rules"] == {"quadratic": {}}
        assert report["probes"]["corner"]["pass"] is True

    def test_config_parse_error_exits_2(self, tmp_path):
        config = tmp_path / "broken.ini"
        config.write_text("[verify\nseed = 1\n")
        code, _ = run(tmp_path, "verify", "--config", str(config))
        assert code == 2

    def test_missing_config_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "verify", "--config", str(tmp_path / "nope.ini"))
        assert code == 2


class TestGridScoreCommand:
    def test_scores_a_grid_density(self, tmp_path):
        density = tmp_path / "density.csv"
        x = np.arange(64) / 64.0
        density.write_text("".join(f"{float(v)!r}\n" for v in np.exp(np.sin(2.0 * np.pi * x))))
        code, payload = run(tmp_path, "grid-score", str(density))
        assert code == 0
        lines = payload.decode().splitlines()
        assert lines[0] == "x,score"
        assert len(lines) == 66  # header + 64 nodes + entropy footer
        assert lines[-1].startswith("fisher_entropy,")
        assert float(lines[-1].split(",")[1]) > 0.0

    def test_constant_density_scores_zero(self, tmp_path):
        density = tmp_path / "flat.csv"
        density.write_text("2.0\n" * 8)
        code, payload = run(tmp_path, "grid-score", str(density))
        assert code == 0
        lines = payload.decode().splitlines()
        assert all(line.split(",")[1] == "0.0" for line in lines[1:-1])
        assert lines[-1] == "fisher_entropy,0.0"

    def test_nonpositive_rows_exit_3(self, tmp_path, capsys):
        density = tmp_path / "bad.csv"
        density.write_text("1.0\n0.0\n2.0\n3.0\n")
        code, _ = run(tmp_path, "grid-score", str(density))
        assert code == 3
        assert "2" in capsys.readouterr().err

    @pytest.mark.parametrize("values, what", [
        ("1e-300\n1\n1e300\n1\n", "hyvarinen scores"),
        ("1e-300\n1e150\n1e300\n1e150\n", "Fisher entropy terms"),
    ], ids=["scores", "fisher-entropy"])
    def test_values_past_the_float_range_exit_3_naming_rows(self, tmp_path, capsys, values, what):
        # valid densities with log slopes so steep that the scores, or the Fisher
        # entropy's terms, overflow at rows 2 and 4: no warning, no traceback
        density = tmp_path / "steep.txt"
        density.write_text(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "grid-score", str(density)) == (3, b"")
        assert capsys.readouterr().err == f"entroscore: {density}: {what} leave the float range in rows 2, 4\n"

    def test_non_numeric_line_exits_2(self, tmp_path, capsys):
        density = tmp_path / "bad.csv"
        density.write_text("1.0\nx\n2.0\n3.0\n")
        code, _ = run(tmp_path, "grid-score", str(density))
        assert code == 2
        assert capsys.readouterr().err == f"entroscore: {density}:2: non-numeric value\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_any_line_ending_reads_the_same(self, tmp_path, newline):
        density = tmp_path / "density.txt"
        golden = GOLDENS["grid-score"]
        density.write_bytes((DATA / golden.argv[1]).read_bytes().replace(b"\n", newline.encode()))
        assert run(tmp_path, "grid-score", str(density)) == (golden.code, (DATA / golden.file).read_bytes())

    def test_too_short_grid_exits_2(self, tmp_path):
        density = tmp_path / "short.csv"
        density.write_text("1.0\n2.0\n")
        code, _ = run(tmp_path, "grid-score", str(density))
        assert code == 2


@pytest.mark.parametrize("golden", GOLDENS.values(), ids=lambda golden: golden.file)
def test_golden_outputs_byte_for_byte(tmp_path, monkeypatch, golden):
    monkeypatch.chdir(DATA)
    assert run_goldens([golden], tmp_path) == [golden.code]
    assert (tmp_path / golden.file).read_bytes() == (DATA / golden.file).read_bytes()


def test_the_wide_score_golden_reaches_the_array_row_sums():
    # the premise its row's comment states
    forecasts = np.loadtxt(DATA / GOLDENS["scores-wide"].argv[1], delimiter=",", skiprows=1)
    assert forecasts.size >= measure._MIN_ARRAY_TERMS


_GOLDEN_CHILD = ("import json, sys\nsys.path.insert(0, sys.argv[1])\nfrom goldens import GOLDENS, run_goldens\n"
                 "print(json.dumps(run_goldens(GOLDENS.values(), sys.argv[2])))")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types name x86-64 kernels")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_golden_outputs_hold_on_other_openblas_kernels(tmp_path, coretype):
    # OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS (numpy's wheels bundle one) run an
    # older core's kernels, in the child only.  A numpy on another BLAS ignores it, and
    # there this checks nothing the in-process golden tests do not.
    child = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD, str(Path(__file__).parent), str(tmp_path)],
                           cwd=DATA, capture_output=True, text=True,
                           env={**child_env(), "OPENBLAS_CORETYPE": coretype}, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == [golden.code for golden in GOLDENS.values()]
    for golden in GOLDENS.values():
        assert (tmp_path / golden.file).read_bytes() == (DATA / golden.file).read_bytes(), golden.file


def test_each_golden_is_one_row_of_the_table():
    # each golden under tests/data has one row, each file a row names is there,
    # and no test module but the table spells a golden's file name
    rows = GOLDENS.values()
    assert sorted(golden.file for golden in rows) == sorted(path.name for path in DATA.glob("*golden*"))
    named = [word for golden in rows for word in golden.argv if re.fullmatch(r"[\w.-]+\.(csv|txt|ini)", word)]
    assert named and [word for word in named if not (DATA / word).is_file()] == []
    modules = Path(__file__).parent.glob("*.py")
    assert [path.name for path in modules
            if path.name != "goldens.py" and re.search(r"\w_golden\.\w", path.read_text())] == []


# -- verify's shared draws --------------------------------------------------------

_SHARED_RULES = (*CATALOG_SPECS, "linear")


@pytest.mark.parametrize("suites, overrides", [
    ("", {"spherical": "seed = 7"}),
    ("", {"power(3)": "samples = 40"}),
    ("suites = euler, symmetry", {}),
], ids=["own-seed", "own-samples", "suite-subset"])
def test_each_rule_reports_what_it_reports_alone(tmp_path, suites, overrides):
    # the seven rules of one command share their sample points, except the one
    # with its own seed or samples; each entry matches a run of its rule alone
    def rules_report(specs):
        config = tmp_path / "shared.ini"
        config.write_text(f"[verify]\nseed = 11\nsamples = 60\nweights = 0.5,1,2\n{suites}\n\n"
                          + "".join(f"[rule {spec}]\n{overrides.get(spec, '')}\n\n" for spec in specs))
        code, payload = run(tmp_path, "verify", "--config", str(config))
        assert code == (1 if "linear" in specs and not suites else 0)
        return json.loads(payload)["rules"]

    together = rules_report(_SHARED_RULES)
    for spec in _SHARED_RULES:
        assert json.dumps(together[spec], sort_keys=True) == json.dumps(rules_report([spec])[spec],
                                                                         sort_keys=True)


def test_shared_draws_last_one_verify_command(tmp_path, monkeypatch):
    # a memo is open while the suites run and closed once the command returns,
    # also when a suite's DomainError exits 2
    open_during_suites = []
    run_suite = cli._run_suite

    def spy(*args):
        open_during_suites.append(sampling._DRAWS.get() is not None)
        return run_suite(*args)

    monkeypatch.setattr(cli, "_run_suite", spy)
    overflow = tmp_path / "overflow.ini"
    overflow.write_text("[verify]\nsamples = 50\n\n[rule quadratic]\n\n[rule power(1100)]\n")
    for argv, code in ((["--samples", "20"], 0), (["--config", str(overflow)], 2)):
        assert run(tmp_path, "verify", *argv)[0] == code
        assert sampling._DRAWS.get() is None
    assert open_during_suites and all(open_during_suites)


def _recording_rule(spec, space, seen):
    """``cli.build_rule(spec, space)`` whose entropy and rule record the rows they are given."""
    entropy, rule = cli.build_rule(spec, space)
    for owner, attr in ((entropy, "value_rows"), (rule, "score_rows")):
        oracle = getattr(owner, attr)
        object.__setattr__(owner, attr, lambda q, oracle=oracle: seen.append(q) or oracle(q))
    return entropy, rule


def _suite_reports(specs, space, seen):
    reports = []
    for spec in specs:
        entropy, rule = _recording_rule(spec, space, seen)
        reports.append([verify_propriety(rule, seed=3, samples=10).as_dict(),
                        verify_euler(rule, entropy, seed=3, samples=10).as_dict(),
                        symmetry_defect(entropy, seed=3, samples=10).as_dict()])
    return reports


def test_suites_in_one_block_share_one_read_only_draw():
    space = MeasureSpace([0.5, 1.0, 2.0])
    inside, outside = [], []
    with sampling._shared_draws():
        shared = _suite_reports(["quadratic", "spherical"], space, inside)
    assert shared == _suite_reports(["quadratic", "spherical"], space, outside)
    # the second rule's oracles see the rows the first rule's saw, in the same order:
    # views of one array per suite, which no oracle may write into
    half = len(inside) // 2
    assert len(inside) == len(outside) == 2 * half > 0
    for first, second in zip(inside[:half], inside[half:]):
        assert _root(first) is _root(second)
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0
    # outside a block every suite call draws afresh, into arrays it may write
    assert all(a.flags.writeable for a in outside)
    assert not any(np.shares_memory(a, b) for a, b in zip(outside[:half], outside[half:]))


def _root(rows: np.ndarray) -> np.ndarray:
    return rows if rows.base is None else _root(rows.base)


_PROBE_CONFIG = (
    "[verify]\nseed = 1\nsamples = 5\nweights = 1,1\nsuites = propriety\n\n"
    "[rule quadratic]\n\n[probe p]\nentropy = quadratic\nexpect_verified = 2,0\n"
)
_PROBE_CONFIG_3 = (
    "[verify]\nseed = 1\nsamples = 5\nweights = 1,1,1\nsuites = propriety\n\n"
    "[rule quadratic]\n\n[probe p]\nexpect_verified = 0,1,1\n"
)


@pytest.mark.parametrize("command, text, code", [
    ("verify", _PROBE_CONFIG_3 + "entropy = power(abc)\npoint = 1,1,1\ncandidates = 0,1,1\n", 2),
    ("verify", _PROBE_CONFIG + "point = 1,0,0\ncandidates = 2,0\n", 2),
    ("verify", _PROBE_CONFIG + "point = 1,0\ncandidates = 2,0 ; 2,0,0\n", 2),
    ("verify", _PROBE_CONFIG + "point = nan,0\ncandidates = 2,0\n", 2),
    ("verify", _PROBE_CONFIG + "point = -1,0\ncandidates = 2,0\n", 2),
    # inside the probe's domain, outside the entropy's: the orthant's 1e-9 slack
    # admits -1e-10, power does not
    ("verify", _PROBE_CONFIG_3 + "entropy = shannon\ndomain = whole_space\npoint = -1,1,1\n"
     "candidates = 0,1,1\n", 2),
    ("verify", _PROBE_CONFIG_3 + "entropy = power(1.5)\ndomain = orthant\n"
     "point = -1e-10,1,1\ncandidates = 0,1.5,1.5\n", 2),
    ("verify", "[verify]\nweights = 1,1%\n\n[rule quadratic]\n", 2),
    ("verify", "[verify]\npropriety_tol = nan\n\n[rule quadratic]\n", 2),
    ("verify", "[verify]\neuler_tol = -1\n\n[rule quadratic]\n", 2),
    ("verify", "[verify]\n\n[rule quadratic]\neuler_tol = nan\n", 2),
    ("verify", "[verify]\n\n[rule quadratic]\neuler_tol = inf\n", 2),
    ("verify", "[verify]\n\n[rule quadratic]\npropriety_tol = -1e-3\n", 2),
    ("verify", "[verify]\nseed = -1\n\n[rule quadratic]\n", 2),
    ("verify", "[verify]\n\n[rule quadratic]\nseed = -1\n", 2),
    ("grid-score", "1.0\ninf\n2.0\n3.0\n", 3),
], ids=["probe-gamma-abc", "probe-point-length", "probe-candidate-length", "probe-point-nan",
        "probe-point-outside-domain", "probe-point-outside-shannon-domain",
        "probe-point-outside-power-domain", "config-percent", "config-tol-nan", "config-tol-negative",
        "rule-tol-nan", "rule-tol-inf", "rule-tol-negative", "config-seed-negative",
        "rule-seed-negative", "grid-inf"])
def test_malformed_input_exits_with_its_code(tmp_path, capsys, command, text, code):
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = ["verify", "--config", str(path)] if command == "verify" else [command, str(path)]
    assert run(tmp_path, *argv)[0] == code
    assert capsys.readouterr().err.startswith("entroscore: ")


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "-1"], ["--seed", "-1"]],
                         ids=["tol-nan", "tol-negative", "seed-negative"])
def test_malformed_verify_flag_exits_2(tmp_path, capsys, flags):
    assert run(tmp_path, "verify", "--samples", "5", *flags)[0] == 2
    assert capsys.readouterr().err.startswith("entroscore: ")


# A config whose one probe rejects its only candidate: (3, 3, 3) is no subgradient
# of quadratic at (1, 1, 1).
_HEAD = "[verify]\nsamples = 5\nsuites = propriety\n\n[rule quadratic]\n\n"
_REJECTING = "entropy = quadratic\npoint = 1,1,1\ncandidates = 3,3,3\n"
_CONFIG = ["verify", "--config", "FILE"]


# argv and the text of FILE, the file each argv names as FILE; the exit code and stderr, FILE named
@pytest.mark.parametrize("argv, text, code, err", [
    (["score", FORECASTS, OUTCOMES, "--rules", "linear(2)"], "", 4,
     "cannot build rule 'linear(2)': rule 'linear' takes no parameter"),
    (["score", FORECASTS, OUTCOMES, "--rules", "quadratic,,shannon"], "", 4, "empty rule name in --rules"),
    (["score", FORECASTS, "FILE"], "outcomes\n1\n", 2, "FILE:1: header must be 'outcome'"),
    (["score", FORECASTS, "FILE"], "outcome\n1\n2,3\n", 2, "FILE:3: expected a single column"),
    (["score", FORECASTS, "FILE"], "outcome\n1.0\n", 2, "FILE:2: non-integer outcome"),
    (["score", FORECASTS, OUTCOMES, "--weights", "1,x,1"], "", 2, "bad number list '1,x,1'"),
    (["score", FORECASTS, OUTCOMES, "--weights", "1,1"], "", 2, "expected 3 weights, got 2"),
    (["score", FORECASTS, OUTCOMES, "--weights", "1,0,1"], "", 2,
     "atom weights must be finite and strictly positive"),
    (["verify", "--samples", "0"], "", 2, "samples must be at least 1"),
    (_CONFIG, "[verify]\nsamples = 0\n\n[rule quadratic]\n", 2, "FILE: [verify]: samples must be at least 1"),
    (_CONFIG, "[verify]\nseed =\n\n[rule quadratic]\n", 2,
     "FILE: [verify]: invalid literal for int() with base 10: ''"),
    (_CONFIG, "[rule quadratic]\nsamples = 0\n", 2, "FILE: [rule quadratic]: samples must be at least 1"),
    (_CONFIG, "[verify]\nsuites = propriety, nonsense, bogus\n\n[rule quadratic]\n", 2,
     "FILE: [verify]: unknown suites: bogus, nonsense"),
    (_CONFIG, "[verify]\nsuites =\n\n[rule quadratic]\n", 2,
     "FILE: nothing to verify: no suites and no probes"),
    (_CONFIG, "[verify]\nweights_file =\n\n[rule quadratic]\n", 2,
     "FILE: [verify]: weights_file names no file"),
    (_CONFIG, f"[verify]\nweights = 1,1\nweights_file = {DATA / 'weights_20.txt'}\n\n[rule quadratic]\n",
     2, "FILE: [verify]: weights and weights_file are both set"),
    (_CONFIG, _HEAD + "[probe p]\ndomain = cube\n" + _REJECTING + "expect_rejected = 3,3,3\n",
     2, "FILE: [probe p]: unknown domain 'cube'"),
    # a probe without a name, a misspelled key or kind: unread, each would let verify pass on nothing
    (_CONFIG, _HEAD + "[probe]\n" + _REJECTING + "expect_verified = 3,3,3\n", 2,
     "FILE: [probe]: unknown section"),
    (_CONFIG, _HEAD + "[probe p]\n" + _REJECTING + "expect_verfied = 3,3,3\n", 2,
     "FILE: [probe p]: unknown keys: expect_verfied"),
    (_CONFIG, "[Verify]\nsamples = 0\nsuites = nonsense\n\n[rule quadratic]\nsample = 0\n",
     2, "FILE: [Verify]: unknown section"),
    (_CONFIG, "[rule quadratic]\nsample = 0\ntol = 1\n", 2,
     "FILE: [rule quadratic]: unknown keys: sample, tol"),
    (_CONFIG, _HEAD + "[probes p]\n" + _REJECTING, 2, "FILE: [probes p]: unknown section"),
    (_CONFIG, "[DEFAULT]\nsamples = 0\n\n[rule quadratic]\n", 2, "FILE: [DEFAULT]: unknown section"),
    (_CONFIG, "[verify quadratic]\n\n[rule quadratic]\n", 2, "FILE: [verify quadratic]: unknown section"),
    (_CONFIG, _HEAD + "[probe p]\n" + _REJECTING, 2,
     "FILE: [probe p]: no expect_verified or expect_rejected: the probe would pass on nothing"),
    # a probe names its entropy with a rule spec, as a [rule SPEC] section does; the probe checks its point
    (_CONFIG, _HEAD + "[probe p]\n" + _REJECTING + "gamma = 1.5\nexpect_rejected = 3,3,3\n", 2,
     "FILE: [probe p]: unknown keys: gamma"),
    (_CONFIG, _HEAD + "[probe p]\nentropy = power(abc)\npoint = 1,1,1\ncandidates = 3,3,3\n"
     "expect_rejected = 3,3,3\n", 2, "probe 'p': bad parameter in rule spec 'power(abc)'"),
    (_CONFIG, _HEAD + "[probe p]\nentropy = quadratic\npoint = -1,1,1\ncandidates = 3,3,3\n"
     "expect_rejected = 3,3,3\n", 2, "probe 'p': probe base point is not in the domain"),
    # one section per kind and name, whatever the spacing of its title
    (_CONFIG, "[rule quadratic]\nsamples = 7\n\n[rule  quadratic]\nsamples = 9\n", 2,
     "FILE: [rule  quadratic]: duplicate section"),
    (_CONFIG, "[verify]\nsamples = 7\n\n[verify ]\nsamples = 11\n\n[rule quadratic]\n", 2,
     "FILE: [verify ]: duplicate section"),
    # a path that names no file, or no file that can be written
    (["grid-score", ""], "", 2, "an empty path names no file"),
    (["score", "", ""], "", 2, "an empty path names no file"),
    (["grid-score", "FILE", "--out", ""], "1\n2\n3\n4\n", 2, "an empty path names no file"),
    (["grid-score", "FILE", "--out", "DIR"], "1\n2\n3\n4\n", 2, "DIR: Is a directory"),
    (["grid-score", "FILE", "--out", "DIR/missing/x.csv"], "1\n2\n3\n4\n", 2,
     "DIR/missing/x.csv: No such file or directory"),
    (["verify", "--samples", "5", "--out", "DIR/missing/r.json"], "", 2,
     "DIR/missing/r.json: No such file or directory"),
    (["score", FORECASTS, OUTCOMES, "--out", "DIR/input.txt/x.csv"], "", 2, "DIR/input.txt/x.csv: Not a directory"),
    (["divergence", FORECASTS, FORECASTS, "--out", "DIR"], "", 2, "DIR: Is a directory"),
    # --out is checked before any input is read
    (["grid-score", "DIR/none.csv", "--out", "DIR/missing/x.csv"], "", 2,
     "DIR/missing/x.csv: No such file or directory"),
], ids=["linear-with-parameter", "empty-rule-name", "outcome-header", "outcome-columns", "outcome-not-integer",
        "weights-not-numeric", "weights-count", "weights-nonpositive", "flag-samples-0", "samples-0",
        "seed-empty", "rule-samples-0", "unknown-suites", "suites-empty", "weights-file-empty",
        "weights-and-weights-file", "unknown-domain", "probe-without-name", "misspelled-key",
        "capitalised-verify", "rule-unknown-keys", "misspelled-kind", "default-section", "named-verify",
        "probe-expecting-nothing", "probe-gamma-key", "probe-spec-parameter", "probe-point-outside-domain",
        "duplicate-rule", "duplicate-verify", "empty-input-path",
        "empty-input-paths", "empty-out", "out-a-directory", "out-in-no-directory", "verify-out-in-no-directory",
        "out-below-a-file", "divergence-out-a-directory", "out-before-inputs"])
def test_each_refusal_exits_with_its_code_and_message(tmp_path, capsys, argv, text, code, err):
    path = tmp_path / "input.txt"
    path.write_text(text)

    def named(words: str) -> str:  # FILE is that file, DIR its directory
        return words.replace("DIR", str(tmp_path)).replace("FILE", str(path))

    argv = [named(arg) if arg == "FILE" or arg.startswith("DIR") else arg for arg in argv]
    # an argv with its own --out runs as it is: run() adds an --out that would override it
    assert (main(argv) if "--out" in argv else run(tmp_path, *argv)[0]) == code
    assert capsys.readouterr().err == f"entroscore: {named(err)}\n"


def test_a_probe_reads_its_entropy_as_a_rule_spec(tmp_path):
    # pseudospherical(3) at an interior point: the report is the library probe's, plus its verdict
    space = MeasureSpace([0.5, 1.0, 2.0])
    entropy = catalog_entropy("pseudospherical", space, gamma=3.0)
    point = space.cone([0.3, 1.2, 0.7])
    gradient = entropy.subgradient(point).values.tolist()
    other = [gradient[0] + 1.0, *gradient[1:]]
    verified, rejected = (",".join(map(repr, v)) for v in (gradient, other))
    config = tmp_path / "probe.ini"
    config.write_text("[verify]\nseed = 9\nweights = 0.5,1,2\nsuites =\n\n[rule quadratic]\n\n"
                      "[probe p]\nentropy = pseudospherical(3)\npoint = 0.3,1.2,0.7\n"
                      f"candidates = {verified} ; {rejected}\nexpect_verified = {verified}\n"
                      f"expect_rejected = {rejected}\n")
    code, payload = run(tmp_path, "verify", "--config", str(config))
    report = json.loads(payload)["probes"]["p"]
    assert code == 0 and report.pop("pass") is True
    expected = subdifferential_probe(entropy, ConvexDomainSpec.nonnegative_orthant(space), point,
                                     [space.dual(gradient), space.dual(other)], seed=9).as_dict()
    assert report == json.loads(json.dumps(expected))


@pytest.mark.parametrize("command, shared", [
    ("score", ("--out", "--rules", "--weights")), ("divergence", ("--out", "--rules", "--weights")),
    ("verify", ("--out",)), ("grid-score", ("--out",)),
])
def test_each_subcommand_lists_its_shared_flags_once(capsys, command, shared):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    options = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.startswith("  --")]
    for flag in ("--out", "--rules", "--weights"):
        assert options.count(flag) == (flag in shared), (command, flag, options)


def test_an_unusable_out_stops_verify_before_any_suite(tmp_path, capsys, monkeypatch):
    def ran(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_run_suite", ran)
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "--samples", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"entroscore: {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_checking_out_creates_and_truncates_nothing(tmp_path):
    # a command that fails on its input leaves a usable --out as it was: absent, or with its text
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("earlier\n")
    for out in (kept, absent):
        assert main(["grid-score", str(tmp_path / "none.csv"), "--out", str(out)]) == 2
    assert kept.read_text() == "earlier\n" and not absent.exists()


def test_an_empty_suites_key_selects_no_suite(tmp_path):
    # `suites =` is read like any other key present: it selects no suite, not the defaults
    config = tmp_path / "probe.ini"
    config.write_text("[verify]\nsuites =\n\n[rule quadratic]\n\n[probe p]\n" + _REJECTING
                      + "expect_rejected = 3,3,3\n")
    code, payload = run(tmp_path, "verify", "--config", str(config))
    report = json.loads(payload)
    assert code == 0 and report["config"]["suites"] == [] and report["rules"] == {"quadratic": {}}


def test_without_out_the_report_goes_to_stdout(capsys, monkeypatch):
    golden = GOLDENS["scores"]
    monkeypatch.chdir(DATA)
    assert main(list(golden.argv)) == golden.code == 0
    assert capsys.readouterr().out == (DATA / golden.file).read_text(encoding="utf-8")


def test_import_and_whole_space_geometry_load_no_scipy():
    # the CLI's probe domains: whole space, orthant and simplex
    probe = (
        "import sys, entroscore.cli\n"
        "from entroscore import (ConvexDomainSpec, MeasureSpace, catalog_entropy,\n"
        "                        is_quasi_interior, subdifferential_probe)\n"
        "sp = MeasureSpace([1.0, 1.0])\n"
        "assert is_quasi_interior(ConvexDomainSpec.whole_space(sp), sp.cone([0.5, 0.5]))\n"
        "E = catalog_entropy('quadratic', sp)\n"
        "for K in (ConvexDomainSpec.nonnegative_orthant(sp), ConvexDomainSpec.simplex(sp)):\n"
        "    assert subdifferential_probe(E, K, sp.cone([1.0, 0.0]), [sp.dual([2.0, 0.0])]).verified\n"
        "print([m for m in sys.modules if m.startswith('scipy')])\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("command, payload, lineno", [
    ("score-forecasts", b"p1,p2\n0.5,0.5\n\xe9,1\n", 3),
    ("score-outcomes", b"outcome\n1\n\xe9\n", 3),
    ("divergence", b"p1,p2\n0.5,0.5\n\xe9,1\n", 3),
    ("grid-score", b"1.0\n2.0\n\xe9\n3.0\n", 3),
    ("verify", b"[verify]\nsamples = 5\n\n[rule quadratic]\n; caf\xe9\n", 5),
    ("verify-weights-file", b"1.0\n\xff\n", 2),
], ids=lambda value: value if isinstance(value, str) else None)
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, command, payload, lineno):
    path = tmp_path / "input.txt"
    path.write_bytes(payload)
    two = tmp_path / "two.csv"
    two.write_text("p1,p2\n0.5,0.5\n0.5,0.5\n")
    config = tmp_path / "wf.ini"
    config.write_text(f"[verify]\nweights_file = {path}\n\n[rule quadratic]\n")
    argv = {
        "score-forecasts": ["score", str(path), OUTCOMES],
        "score-outcomes": ["score", str(two), str(path)],
        "divergence": ["divergence", str(two), str(path)],
        "grid-score": ["grid-score", str(path)],
        "verify": ["verify", "--config", str(path)],
        "verify-weights-file": ["verify", "--config", str(config)],
    }[command]
    assert run(tmp_path, *argv)[0] == 2
    assert capsys.readouterr().err == f"entroscore: {path}:{lineno}: not UTF-8 text\n"


# -- the forecast reader against the per-cell reader it replaced ----------------


def _per_cell_read_forecasts(path: str) -> np.ndarray:
    """csv.reader over the file, then float() per cell: the reader before the array parse."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise cli.CliError(2, f"{path}:1: empty file")
    header = [cell.strip() for cell in rows[0]]
    n = len(header)
    if header != [f"p{i + 1}" for i in range(n)] or n == 0:
        raise cli.CliError(2, f"{path}:1: header must be p1..pn")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n:
            raise cli.CliError(2, f"{path}:{lineno}: expected {n} columns, got {len(row)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError:
            raise cli.CliError(2, f"{path}:{lineno}: non-numeric value") from None
    if not data:
        raise cli.CliError(2, f"{path}: no data rows")
    return np.array(data)


def _read_outcome(reader, path: str):
    try:
        matrix = reader(path)
    except cli.CliError as exc:
        return exc.code, str(exc)
    return matrix.shape, matrix.tobytes()


# Cells float() accepts, padded with whitespace it strips, and cells close to them that it rejects.
_GOOD_CELLS = st.tuples(
    st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2028", "\x85"]),
    st.one_of(
        st.floats().map(repr),
        st.integers(-10 ** 20, 10 ** 20).map(str),
        st.sampled_from(["1_0", "infinity", "-Infinity", "iNf", "nan", "-nan", "+NaN", "1e400", "-1e400",
                         "1e-400", "5e-324", "-0", "-0.0", "+.5", "5.", "\u0661\u0662", "\uff11",
                         "1.7976931348623157e308"]),
    ),
    st.sampled_from(["", "", "", " ", "\t", "\xa0"]),
).map("".join)
_BAD_CELLS = st.one_of(
    st.sampled_from(["0x1p3", "", " ", "1.5e", "e5", "1e+", "--1", "1 2", "1__0", "_1", "nan(1)", ".",
                     "\x1c1", "1\x1f", "\u200b1"]),
    st.text(alphabet="0123456789.eE+-_ infatyINF", max_size=6),
)


@st.composite
def _forecast_texts(draw):
    """Forecast files: half plain (some with cells float() rejects), half at the
    edges of a plain split: quoted cells, CR endings, blank lines, BOM, NUL."""
    n = draw(st.integers(1, 4))
    edge = draw(st.booleans())
    bad_share = draw(st.sampled_from([0, 0, 0, 5, 30]))  # percent of cells float() rejects
    header = [f"p{i + 1}" for i in range(n)]
    if edge and draw(st.integers(0, 5)) == 0:
        header = draw(st.sampled_from([header[:-1], header + ["p9"], [" p1 "] + header[1:], ["P1"]]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0 if edge else 1, 5))):
        width = draw(st.integers(0, n + 1)) if edge and draw(st.integers(0, 5)) == 0 else n
        cells = [draw(_BAD_CELLS if draw(st.integers(0, 99)) < bad_share else _GOOD_CELLS)
                 for _ in range(width)]
        if edge and cells and draw(st.integers(0, 3)) == 0:  # a quoted cell, maybe holding a comma or newline
            k = draw(st.integers(0, width - 1))
            cells[k] = '"' + draw(st.sampled_from([cells[k], cells[k] + ",", cells[k] + "\n"])) + '"'
        lines.append(",".join(cells))
    if edge and draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    endings = st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"] if edge else ["\n"])
    text = "".join(line + draw(endings) for line in lines[:-1]) + lines[-1]
    text += draw(st.sampled_from(["", "\n", "\n\n", "\r", "\r\n", "\r\r"] if edge else ["", "\n"]))
    if edge and draw(st.integers(0, 5)) == 0:
        text = "\ufeff" + text
    if edge and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\0" + text[at:]
    return text


@pytest.mark.filterwarnings("error::UserWarning")  # as loadtxt's "input contained no data": never on stderr
@settings(max_examples=400, deadline=None)
@given(_forecast_texts())
@example('p1,p2\n"0.5",0.5\n')                 # a quoted cell
@example('p1,p2\n"0.5\n",0.5\n')              # a quoted cell with a newline
@example("p1,p2\r\n0.5,0.5\r\n")              # CRLF endings
@example("p1,p2\r0.5,0.5\r0.25,0.75\r")       # lone-CR endings
@example("p1,p2\n0.5,0.5\r\r\n")              # a CR that ends a line before a blank one
@example("p1,p2\n0.5,0.5,0.5\n0.5\n")          # rows too wide and too narrow by the same count
@example("p1,p2\n0.5,0.5\n\n0.5,0.5\n")       # a blank line
@example("p1\n1\n\n1\n")                       # a blank line at n = 1
@example("p1\n1\n\n")                           # a trailing blank line at n = 1
@example("p1,p2\n0.5,0.5")                      # no final newline
@example("p1,p2\n0.5,0.5\n\n")                 # a trailing blank line
@example("\ufeffp1,p2\n0.5,0.5\n")             # a byte order mark
@example("p1,p2\n0.5,0\x00.5\n")               # NUL
@example("p1,p2\n0.5\x00,0.5\n")               # NUL mid-line, at the end of a cell
@example("p1,p2\n\x1c0.5,0.5\n")               # a separator the C reader strips as whitespace
@example("p1\n \n")                             # a whitespace-only line, the only data line
@example("p1,p2\n")                             # no data rows
@example("")                                     # an empty file
@example("\n")                                   # an empty header
@example("p1,p2\n 1_0 ,\xa0-nan\n1e400,1e-400\n\u0661,infinity\n")
@example("p1,p2\n0x1p3,1\n")
@example("p1,p2\n,1\n")
@example("p1,p2\n1.5e,1\n")
def test_array_reader_matches_the_per_cell_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("reader") / "forecasts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(cli.read_forecasts, str(path)) == _read_outcome(_per_cell_read_forecasts, str(path))


def test_fields_past_the_csv_size_limit_exit_2(tmp_path, capsys):
    # a line past csv.field_size_limit() of small cells parses; one cell past it is rejected
    limit = csv.field_size_limit()
    wide = tmp_path / "wide.csv"
    n = limit // 4 + 1
    wide.write_text(",".join(f"p{i + 1}" for i in range(n)) + "\n" + ",".join(["0.5"] * n) + "\n")
    assert _read_outcome(cli.read_forecasts, str(wide)) == _read_outcome(_per_cell_read_forecasts, str(wide))
    big = tmp_path / "big.csv"
    big.write_text("p1,p2\n0.5,0.5\n" + "0" * limit + ".5,0.5\n")
    assert run(tmp_path, "score", str(big), OUTCOMES)[0] == 2
    assert capsys.readouterr().err == (
        f"entroscore: {big}:3: field larger than field limit ({limit})\n")


# -- blocked divergence against the per-p-row loop it replaced -------------------


def _per_row_divergence(p_path: str, q_path: str, specs, weights) -> bytes:
    """One score_divergence_rows call per p row, each row written by csv.writer."""
    left, right = cli.read_forecasts(p_path), cli.read_forecasts(q_path)
    space = MeasureSpace(weights)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["rule", "p"] + [f"q{j + 1}" for j in range(len(right))])
    for spec in specs:
        rule = cli.build_rule(spec, space)[1]
        p_scores, q_scores = rule.score_rows(left), rule.score_rows(right)
        for i in range(len(left)):
            cells = score_divergence_rows(left[i:i + 1], p_scores[i:i + 1], q_scores, space.weights)
            writer.writerow([spec, f"p{i + 1}"] + [repr(x + 0.0) for x in cells.tolist()])
    return buffer.getvalue().encode()


def test_each_catalog_row_builds_and_expects_the_symmetry_it_shows(tmp_path, capsys):
    # the catalog table, row by row: a rule spec builds each row it can give a parameter to,
    # the matrix row exits 4 naming what it needs, and each row's symmetry column is what
    # symmetry_defect classifies at n = 3, also through the linear alias
    assert entropies.CATALOG_NAMES == tuple(entropies._CATALOG)
    space = MeasureSpace([0.5, 1.0, 2.0])
    checked = []  # (the row's symmetry column at gamma, entropy, build_rule's (entropy, rule) or None)
    for name, (_, parameter, symmetric) in entropies._CATALOG.items():
        if parameter == "matrix":
            assert run(tmp_path, "score", FORECASTS, OUTCOMES, "--rules", name)[0] == 4
            assert capsys.readouterr().err == f"entroscore: cannot build rule {name!r}: {name} needs a matrix\n"
            matrix = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
            checked.append((symmetric(None), catalog_entropy(name, space, matrix=matrix), None))
            continue
        for gamma in (1.5, 2.0, 3.0) if parameter == "exponent" else (None,):
            spec = name if gamma is None else f"{name}({gamma:g})"
            entropy, rule = cli.build_rule(spec, space)
            assert entropy.name == spec
            checked.append((symmetric(gamma), entropy, (entropy, rule)))
    quadratic, _ = cli._ALIASES["linear"]
    linear = cli.build_rule("linear", space)
    checked.append((entropies.catalog_symmetric(quadratic), linear[0], linear))
    for symmetric, entropy, built in checked:
        expected = SYMMETRIC_GENERALIZED_QUADRATIC if symmetric else ASYMMETRIC_WITH_WITNESS
        assert symmetry_defect(entropy, seed=3, samples=100).classification == expected, entropy.name
        if built:  # what verify expects of the rule is the column
            report = cli._run_suite("symmetry", *built, {"seed": 3, "samples": 100})
            assert (report["expected"], report["pass"]) == (expected, True), entropy.name


def test_rule_specs_are_quoted_as_csv_writer_quotes_them(tmp_path):
    # float() strips the newline and the CR inside the parentheses, so these are valid specs
    specs = ["power(1.5\n)", "power( 3 \r)"]
    code, payload = run(tmp_path, "divergence", FORECASTS, FORECASTS, "--rules", ",".join(specs))
    assert code == 0
    assert payload == _per_row_divergence(FORECASTS, FORECASTS, specs, np.ones(3))
    assert payload.count(b'"power(1.5\n)",p') == 10


@pytest.mark.parametrize("block_terms", [None, 1000, 1], ids=["default", "blocks-of-8", "row-by-row"])
def test_blocked_divergence_matches_the_per_row_loop(tmp_path, monkeypatch, block_terms):
    # 30 x 40 forecasts on 3 weighted atoms: 120 terms per p row, 3,600 in all, so a
    # block reaches the array row sums where one row does not.  A third of the
    # entries are zero, so shannon has -inf scores and +inf divergences.
    assert 3 * 40 < measure._MIN_ARRAY_TERMS <= 3 * 40 * 30
    rng = np.random.default_rng(20261018)
    weights = np.array([0.5, 1.0, 2.0])
    paths = []
    for name, rows in (("p", 30), ("q", 40)):
        q = rng.dirichlet(np.ones(3), size=rows) * (rng.random((rows, 3)) > 1 / 3)
        q[q.sum(axis=1) == 0.0, 0] = 1.0
        q /= (q @ weights)[:, None]
        path = tmp_path / f"{name}.csv"
        path.write_text("p1,p2,p3\n" + "".join(",".join(map(repr, row)) + "\n" for row in q.tolist()))
        paths.append(str(path))
    if block_terms is not None:
        monkeypatch.setattr(cli, "_DIVERGENCE_BLOCK_TERMS", block_terms)
    specs = [*CATALOG_SPECS, "linear"]
    code, payload = run(tmp_path, "divergence", *paths, "--rules", ",".join(specs),
                        "--weights", ",".join(map(repr, weights.tolist())))
    assert code == 0
    assert payload == _per_row_divergence(*paths, specs, weights)
    assert b",inf," in payload


def test_the_module_runs_as_a_script():
    child = subprocess.run([sys.executable, "-m", "entroscore.cli", "--help"], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0 and child.stdout.startswith("usage: entroscore ")
