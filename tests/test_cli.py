"""Command-line interface: formats, exit codes, determinism, golden output."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entroscore import MeasureSpace, expected_score, score_divergence
from entroscore.cli import main

from conftest import child_env, rule_from_spec

DATA = Path(__file__).parent / "data"
FORECASTS = str(DATA / "forecasts_10.csv")
OUTCOMES = str(DATA / "outcomes_10.csv")


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestScoreCommand:
    def test_golden_file_byte_for_byte(self, tmp_path):
        code, payload = run(tmp_path, "score", FORECASTS, OUTCOMES)
        assert code == 0
        assert payload == (DATA / "scores_golden.csv").read_bytes()

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
        ("quadratic", 3), ("spherical", 3), ("power(1.5)", 3), ("power(3)", 3),
        ("pseudospherical(3)", 3), ("linear", 3), ("shannon", 0),
    ])
    def test_scores_past_the_float_range_exit_3_listing_rows(self, tmp_path, capsys, rule, code):
        # under weights (1e-300, 1) row 2 is a density, but its scores (for
        # linear, its expected score) overflow; the log score stays finite
        forecasts = tmp_path / "f.csv"
        forecasts.write_text("p1,p2\n0,1\n1e300,0\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n2\n1\n")
        argv = ["score", str(forecasts), str(outcomes), "--weights", "1e-300,1", "--rules", rule]
        assert run(tmp_path, *argv)[0] == code
        if code == 3:
            err = capsys.readouterr().err
            assert "row 2" in err and "row 1" not in err

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

    def test_kl_blowup_renders_inf(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("p1,p2\n0.5,0.5\n")
        q = tmp_path / "q.csv"
        q.write_text("p1,p2\n1,0\n")
        code, payload = run(tmp_path, "divergence", str(p), str(q), "--rules", "shannon")
        assert code == 0
        assert payload.decode().splitlines()[1].split(",")[2] == "inf"

    def test_scores_past_the_float_range_exit_3(self, tmp_path, capsys):
        densities = tmp_path / "p.csv"
        densities.write_text("p1,p2\n0,1\n1e300,0\n")
        argv = ["divergence", str(densities), str(densities), "--weights", "1e-300,1",
                "--rules", "quadratic"]
        assert run(tmp_path, *argv)[0] == 3
        assert "row 2" in capsys.readouterr().err

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

    def test_rule_overflowing_on_its_sample_points_exits_2(self, tmp_path, capsys):
        # power(1100)'s subgradient 1100 q^1099 overflows on the symmetry suite's box points
        config = tmp_path / "overflow.ini"
        config.write_text("[verify]\nweights = 1,1,1\nsamples = 50\nseed = 42\n\n[rule power(1100)]\n")
        assert run(tmp_path, "verify", "--config", str(config))[0] == 2
        err = capsys.readouterr().err
        assert "power(1100)" in err and "symmetry" in err

    def test_empty_rule_list_exits_2(self, tmp_path):
        config = tmp_path / "empty.ini"
        config.write_text("[verify]\nseed = 1\n")
        code, _ = run(tmp_path, "verify", "--config", str(config))
        assert code == 2

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

    def test_non_numeric_line_exits_2(self, tmp_path):
        density = tmp_path / "bad.csv"
        density.write_text("1.0\nx\n2.0\n3.0\n")
        code, _ = run(tmp_path, "grid-score", str(density))
        assert code == 2

    def test_too_short_grid_exits_2(self, tmp_path):
        density = tmp_path / "short.csv"
        density.write_text("1.0\n2.0\n")
        code, _ = run(tmp_path, "grid-score", str(density))
        assert code == 2


@pytest.mark.parametrize("argv, code, golden", [
    (["verify", "--config", str(DATA / "verify_golden.ini")], 1, "verify_golden.json"),
    (["divergence", FORECASTS, FORECASTS], 0, "divergence_golden.csv"),
], ids=["verify", "divergence"])
def test_golden_outputs_byte_for_byte(tmp_path, argv, code, golden):
    # weighted atoms, every catalog rule plus linear, a probe on each domain kind;
    # the divergence matrix has inf cells
    assert run(tmp_path, *argv) == (code, (DATA / golden).read_bytes())


_PROBE_CONFIG = (
    "[verify]\nseed = 1\nsamples = 5\nweights = 1,1\nsuites = propriety\n\n"
    "[rule quadratic]\n\n[probe p]\nentropy = quadratic\n"
)


@pytest.mark.parametrize("command, text, code", [
    ("verify", _PROBE_CONFIG + "gamma = abc\npoint = 1,0\ncandidates = 2,0\n", 2),
    ("verify", _PROBE_CONFIG + "point = 1,0,0\ncandidates = 2,0\n", 2),
    ("verify", _PROBE_CONFIG + "point = 1,0\ncandidates = 2,0 ; 2,0,0\n", 2),
    ("verify", _PROBE_CONFIG + "point = nan,0\ncandidates = 2,0\n", 2),
    ("verify", _PROBE_CONFIG + "point = -1,0\ncandidates = 2,0\n", 2),
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
        "probe-point-outside-domain", "config-percent", "config-tol-nan", "config-tol-negative",
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
