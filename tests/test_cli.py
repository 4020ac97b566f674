"""Command-line interface: formats, exit codes, determinism, golden output."""

import contextlib
import csv
import inspect
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

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

    @pytest.mark.parametrize("rule", ["spherical", "pseudospherical(3)", "linear", "shannon"])
    def test_scores_of_a_heavy_light_atom_within_the_float_range_exit_0(self, tmp_path, rule):
        # under weights (1e-300, 1) row 2 is a density, whose scores overflow for the
        # rules of the refusal table's scores-past-the-float-range rows; the log score
        # stays finite, and so do linear's, spherical's and pseudospherical's scores
        # and pairings: 1e300 * 1e-300 is taken first, and the 1-homogeneous norms
        # rescale the row by its max
        forecasts = tmp_path / "f.csv"
        forecasts.write_text("p1,p2\n0,1\n1e300,0\n")
        outcomes = tmp_path / "oc.csv"
        outcomes.write_text("outcome\n2\n1\n")
        argv = ["score", str(forecasts), str(outcomes), "--weights", "1e-300,1", "--rules", rule]
        assert run(tmp_path, *argv)[0] == 0

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
        assert float(row[2]) == 0.25 and float(row[3]) == 0.25  # unit weights refuse the row: see REFUSALS

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

    def test_linear_divergence_of_a_heavy_light_atom(self, tmp_path):
        # D(p1, p1) = 0 and D(p1, p2) = 1e300 once (q mu) f is formed before (q f) mu overflows
        densities = tmp_path / "p.csv"
        densities.write_text("p1,p2\n1e300,0\n0,1\n")
        argv = ["divergence", str(densities), str(densities), "--weights", "1e-300,1", "--rules", "linear"]
        code, payload = run(tmp_path, *argv)
        assert code == 0
        assert payload.decode().splitlines()[1:] == ["linear,p1,0.0,1e+300", "linear,p2,1.0,0.0"]


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

    def test_probes_alone_still_run_without_suites(self, tmp_path):
        config = tmp_path / "probes.ini"
        config.write_text("[verify]\nweights = 1,1\nsuites = ,\n\n[rule quadratic]\n\n"
                          "[probe corner]\nentropy = quadratic\npoint = 1,0\n"
                          "candidates = 2,0 ; 2,1\nexpect_verified = 2,0\nexpect_rejected = 2,1\n")
        code, payload = run(tmp_path, "verify", "--config", str(config))
        report = json.loads(payload)
        assert code == 0 and report["pass"] is True and report["rules"] == {"quadratic": {}}
        assert report["probes"]["corner"]["pass"] is True


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

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_any_line_ending_reads_the_same(self, tmp_path, newline):
        density = tmp_path / "density.txt"
        golden = GOLDENS["grid-score"]
        density.write_bytes((DATA / golden.argv[1]).read_bytes().replace(b"\n", newline.encode()))
        assert run(tmp_path, "grid-score", str(density)) == (golden.code, (DATA / golden.file).read_bytes())


@pytest.mark.parametrize("golden", GOLDENS.values(), ids=lambda golden: golden.file)
def test_golden_outputs_byte_for_byte(tmp_path, monkeypatch, golden):
    monkeypatch.chdir(DATA)
    assert run_goldens([golden], tmp_path) == [golden.code]
    assert (tmp_path / golden.file).read_bytes() == (DATA / golden.file).read_bytes()


def test_a_weights_file_is_read_relative_to_its_config(tmp_path, monkeypatch):
    # verify_20.ini names weights_20.txt, the file beside it, and runs from the repository root
    golden = GOLDENS["verify-20"]
    monkeypatch.chdir(DATA.parents[1])
    argv = [os.path.relpath(DATA / word) if (DATA / word).is_file() else word for word in golden.argv]
    assert argv[-1] == os.path.join("tests", "data", "verify_20.ini")
    assert main([*argv, "--out", str(tmp_path / golden.file)]) == golden.code
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


# -- refusals -------------------------------------------------------------------------

_LIMIT = csv.field_size_limit()
_GRID = "1\n2\n3\n4\n"
_TWO = "p1,p2\n0.5,0.5\n0.5,0.5\n"
_RULE = "\n[rule quadratic]\n"
_CONFIG = "verify --config FILE"
_WEIGHTS_FILE = "[verify]\nweights_file = FILE\n" + _RULE
# A config whose one probe rejects its only candidate: (3, 3, 3) is no subgradient
# of quadratic at (1, 1, 1).
_HEAD = "[verify]\nsamples = 5\nsuites = propriety\n\n[rule quadratic]\n\n"
_REJECTING = "entropy = quadratic\npoint = 1,1,1\ncandidates = 3,3,3\n"
_PROBE = "[verify]\nseed = 1\nsamples = 5\nweights = {}\nsuites = propriety\n\n[rule quadratic]\n\n[probe p]\n"
_PROBE_2 = _PROBE.format("1,1") + "entropy = quadratic\nexpect_verified = 2,0\n"
_PROBE_3 = _PROBE.format("1,1,1")
_NOT_A_GRID = "cannot build rule 'fisher': fisher entropy needs at least 4 atoms of equal weight"


class Refusal(NamedTuple):
    argv: str  # the command line, split as a shell splits it
    files: str | bytes | dict  # the text or bytes of FILE, or those of several files by name
    code: int  # the exit code
    err: str  # stderr after "entroscore: "


# Each refusal of the CLI, one row each.  A row's files are written in a directory of their
# own, DIR.  In its argv, err and files' texts a file's name stands for its path, and so do
# DIR, and FORECASTS and OUTCOMES for the valid inputs under tests/data.
REFUSALS = {
    # -- rules
    "unknown-rule": Refusal("score FORECASTS OUTCOMES --rules nosuchrule", {}, 4,
                            "cannot build rule 'nosuchrule': unknown entropy 'nosuchrule'; catalog: "
                            "quadratic, spherical, power, shannon, pseudospherical, weighted_quadratic, fisher"),
    "power-below-one": Refusal("score FORECASTS OUTCOMES --rules power(0.5)", {}, 4,
                               "cannot build rule 'power(0.5)': power entropy needs a finite exponent gamma > 1"),
    "power-inf": Refusal("score FORECASTS OUTCOMES --rules power(inf)", {}, 4,
                         "cannot build rule 'power(inf)': power entropy needs a finite exponent gamma > 1"),
    "rule-needing-a-matrix": Refusal("score FORECASTS OUTCOMES --rules weighted_quadratic", {}, 4,
                                     "cannot build rule 'weighted_quadratic': weighted_quadratic needs a matrix"),
    "linear-with-parameter": Refusal("score FORECASTS OUTCOMES --rules linear(2)", {}, 4,
                                     "cannot build rule 'linear(2)': rule 'linear' takes no parameter"),
    # fisher reads the atoms as a periodic grid: at least 4 of them, of equal weight,
    # and it has no score at a zero atom
    "fisher-on-three-atoms": Refusal("score FORECASTS OUTCOMES --rules fisher", {}, 4, _NOT_A_GRID),
    "fisher-on-unequal-weights": Refusal("score FILE OTHER --weights 1,1,1,2 --rules fisher",
                                         {"FILE": "p1,p2,p3,p4\n0.2,0.2,0.2,0.2\n", "OTHER": "outcome\n1\n"}, 4,
                                         _NOT_A_GRID),
    "fisher-at-a-zero-atom": Refusal("score FILE OTHER --rules fisher",
                                     {"FILE": "p1,p2,p3,p4\n0.25,0.25,0.25,0.25\n0,0.5,0.25,0.25\n",
                                      "OTHER": "outcome\n1\n2\n"}, 3,
                                     "FILE: fisher subgradient does not exist at zero atoms, in row 2"),
    "empty-rule-name": Refusal("score FORECASTS OUTCOMES --rules quadratic,,shannon", {}, 4,
                               "empty rule name in --rules"),
    # -- forecast files
    "forecasts-empty": Refusal("score FILE OUTCOMES", "", 2, "FILE:1: empty file"),
    "forecasts-header": Refusal("score FILE OUTCOMES", "a,b,c\n0.5,0.25,0.25\n", 2,
                                "FILE:1: header must be p1..pn"),
    "forecasts-columns": Refusal("score FILE OUTCOMES", "p1,p2\n0.5,0.5\n1\n", 2,
                                 "FILE:3: expected 2 columns, got 1"),
    "forecasts-not-numeric": Refusal("score FILE OTHER", {"FILE": "p1,p2\n0.5,0.5\n0.5,oops\n",
                                                          "OTHER": "outcome\n1\n2\n"}, 2,
                                     "FILE:3: non-numeric value"),
    "forecasts-without-rows": Refusal("score FILE OUTCOMES", "p1,p2\n", 2, "FILE: no data rows"),
    # a line past csv.field_size_limit() of small cells parses; one cell past it does not
    "forecasts-field-past-the-limit": Refusal("score FILE OUTCOMES", "p1,p2\n0.5,0.5\n" + "0" * _LIMIT + ".5,0.5\n",
                                              2, f"FILE:3: field larger than field limit ({_LIMIT})"),
    "forecasts-not-utf8": Refusal("score FILE OUTCOMES", b"p1,p2\n0.5,0.5\n\xe9,1\n", 2, "FILE:3: not UTF-8 text"),
    "divergence-not-utf8": Refusal("divergence OTHER FILE", {"OTHER": _TWO, "FILE": b"p1,p2\n0.5,0.5\n\xe9,1\n"}, 2,
                                   "FILE:3: not UTF-8 text"),
    "divergence-widths": Refusal("divergence FORECASTS FILE", "p1,p2\n0.5,0.5\n", 2,
                                 "the two density files have different widths"),
    # -- outcome files
    "outcome-header": Refusal("score FORECASTS FILE", "outcomes\n1\n", 2, "FILE:1: header must be 'outcome'"),
    "outcome-columns": Refusal("score FORECASTS FILE", "outcome\n1\n2,3\n", 2, "FILE:3: expected a single column"),
    "outcome-not-integer": Refusal("score FORECASTS FILE", "outcome\n1.0\n", 2, "FILE:2: non-integer outcome"),
    "outcome-out-of-range": Refusal("score FORECASTS FILE", "outcome\n" + "1\n" * 9 + "4\n", 2,
                                    "FILE:11: outcome 4 outside 1..3"),
    "outcome-count": Refusal("score FORECASTS FILE", "outcome\n1\n", 2,
                             "row count mismatch: 10 forecasts vs 1 outcomes"),
    "outcomes-not-utf8": Refusal("score OTHER FILE", {"OTHER": _TWO, "FILE": b"outcome\n1\n\xe9\n"}, 2,
                                 "FILE:3: not UTF-8 text"),
    # -- --weights
    "weights-not-numeric": Refusal("score FORECASTS OUTCOMES --weights 1,x,1", {}, 2, "bad number list '1,x,1'"),
    "weights-count": Refusal("score FORECASTS OUTCOMES --weights 1,1", {}, 2, "expected 3 weights, got 2"),
    "weights-nonpositive": Refusal("score FORECASTS OUTCOMES --weights 1,0,1", {}, 2,
                                   "atom weights must be finite and strictly positive"),
    # -- density rows, and scores past the float range
    "densities-invalid": Refusal("score FILE OTHER", {"FILE": "p1,p2\n0.5,0.5\n0.9,0.2\n0.7,0.3\n-0.2,1.2\n",
                                                      "OTHER": "outcome\n1\n2\n1\n2\n"}, 3,
                                 "FILE: invalid density rows: row 2: density mass 1.1 is not 1 within 1e-09; "
                                 "row 4: densities must be nonnegative"),
    # rows of weighted mass 1 on weights (2, 2) only
    "densities-of-other-weights": Refusal("score FILE OTHER --rules quadratic",
                                          {"FILE": "p1,p2\n0.25,0.25\n", "OTHER": "outcome\n1\n"}, 3,
                                          "FILE: invalid density rows: row 1: "
                                          "density mass 0.5 is not 1 within 1e-09"),
    # under weights (1e-300, 1) row 2 is a density, but these rules' scores overflow there;
    # linear's, spherical's, pseudospherical's and the log score stay finite
    **{f"scores-past-the-float-range-{rule}": Refusal(
        f"score FILE OTHER --weights 1e-300,1 --rules {rule}",
        {"FILE": "p1,p2\n0,1\n1e300,0\n", "OTHER": "outcome\n2\n1\n"}, 3,
        f"FILE: {rule} scores leave the float range in row 2") for rule in ("quadratic", "power(1.5)", "power(3)")},
    "divergence-scores-past-the-float-range": Refusal("divergence FILE FILE --weights 1e-300,1 --rules quadratic",
                                                      "p1,p2\n0,1\n1e300,0\n", 3,
                                                      "FILE: quadratic scores leave the float range in row 2"),
    # -- grid-score
    "grid-too-short": Refusal("grid-score FILE", "1.0\n2.0\n", 2, "FILE: a periodic grid needs at least 4 values"),
    "grid-not-numeric": Refusal("grid-score FILE", "1.0\nx\n2.0\n3.0\n", 2, "FILE:2: non-numeric value"),
    "grid-not-utf8": Refusal("grid-score FILE", b"1.0\n2.0\n\xe9\n3.0\n", 2, "FILE:3: not UTF-8 text"),
    "grid-nonpositive": Refusal("grid-score FILE", "1.0\n0.0\n2.0\n3.0\n", 3,
                                "FILE: nonpositive or non-finite grid density values in row 2"),
    "grid-inf": Refusal("grid-score FILE", "1.0\ninf\n2.0\n3.0\n", 3,
                        "FILE: nonpositive or non-finite grid density values in row 2"),
    # log slopes so steep that the scores overflow at rows 2 and 4, or the Fisher entropy's terms
    # do; the entropy is one value, so its refusal names no line
    "grid-scores-past-the-float-range": Refusal("grid-score FILE", "1e-300\n1\n1e300\n1\n", 3,
                                                "FILE: hyvarinen scores leave the float range in rows 2, 4"),
    "grid-fisher-entropy-past-the-float-range": Refusal(
        "grid-score FILE", "1e-300\n1e150\n1e300\n1e150\n", 3, "FILE: the Fisher entropy leaves the float range"),
    # -- verify's flags
    "flag-samples-0": Refusal("verify --samples 0", {}, 2, "samples must be at least 1"),
    "flag-tol-nan": Refusal("verify --samples 5 --tol nan", {}, 2, "propriety_tol must be finite and nonnegative"),
    "flag-tol-negative": Refusal("verify --samples 5 --tol -1", {}, 2,
                                 "propriety_tol must be finite and nonnegative"),
    "flag-seed-negative": Refusal("verify --samples 5 --seed -1", {}, 2, "seed must be nonnegative"),
    # numpy cannot index so many rows, and refuses them before allocating anything
    "flag-samples-past-numpy": Refusal("verify --samples 100000000000000000000", {}, 2,
                                       "rule 'quadratic': propriety suite: 200000000000000000000 sample points "
                                       "of 3 atoms do not fit in one numpy array"),
    # -- configs: reading them
    "config-missing": Refusal("verify --config DIR/nope.ini", {}, 2, "DIR/nope.ini: No such file or directory"),
    "config-not-utf8": Refusal(_CONFIG, b"[verify]\nsamples = 5\n\n[rule quadratic]\n; caf\xe9\n", 2,
                               "FILE:5: not UTF-8 text"),
    # configparser's four refusals, each on one line: PATH:LINE: what
    "config-unparsable": Refusal(_CONFIG, "[verify\nseed = 1\n", 2, "FILE:1: no section header"),
    "config-not-key-value": Refusal(_CONFIG, "[verify]\nseed = 1\ngarbage\n" + _RULE + "also garbage\n", 2,
                                    "FILE:3: expected key = value"),
    "config-same-title": Refusal(_CONFIG, "[verify]\nseed = 1\n" + _RULE + "\n[verify]\nsamples = 3\n", 2,
                                 "FILE:6: [verify]: duplicate section"),
    "config-same-key": Refusal(_CONFIG, "[verify]\nseed = 1\nSeed = 2\n" + _RULE, 2,
                               "FILE:3: [verify]: duplicate key seed"),
    "config-percent": Refusal(_CONFIG, "[verify]\nweights = 1,1%\n" + _RULE, 2,
                              "FILE: [verify]: '%' must be followed by '%' or '(', found: '%'"),
    # -- configs: sections and keys, each read or refused
    "probe-without-name": Refusal(_CONFIG, _HEAD + "[probe]\n" + _REJECTING + "expect_verified = 3,3,3\n",
                                  2, "FILE: [probe]: unknown section"),
    "capitalised-verify": Refusal(_CONFIG, "[Verify]\nsamples = 0\nsuites = nonsense\n" + _RULE
                                  + "sample = 0\n", 2, "FILE: [Verify]: unknown section"),
    "misspelled-kind": Refusal(_CONFIG, _HEAD + "[probes p]\n" + _REJECTING, 2,
                               "FILE: [probes p]: unknown section"),
    "default-section": Refusal(_CONFIG, "[DEFAULT]\nsamples = 0\n" + _RULE, 2, "FILE: [DEFAULT]: unknown section"),
    "named-verify": Refusal(_CONFIG, "[verify quadratic]\n" + _RULE, 2,
                            "FILE: [verify quadratic]: unknown section"),
    # a misspelled key would let verify pass on nothing
    "misspelled-key": Refusal(_CONFIG, _HEAD + "[probe p]\n" + _REJECTING + "expect_verfied = 3,3,3\n",
                              2, "FILE: [probe p]: unknown keys: expect_verfied"),
    "rule-unknown-keys": Refusal(_CONFIG, "[rule quadratic]\nsample = 0\ntol = 1\n", 2,
                                 "FILE: [rule quadratic]: unknown keys: sample, tol"),
    # one section per kind and name, whatever the spacing of its title
    "duplicate-rule": Refusal(_CONFIG, "[rule quadratic]\nsamples = 7\n\n[rule  quadratic]\nsamples = 9\n",
                              2, "FILE: [rule  quadratic]: duplicate section"),
    "duplicate-verify": Refusal(_CONFIG, "[verify]\nsamples = 7\n\n[verify ]\nsamples = 11\n" + _RULE, 2,
                                "FILE: [verify ]: duplicate section"),
    "no-rules": Refusal(_CONFIG, "[verify]\nseed = 1\n", 2, "FILE: no [rule ...] sections configured"),
    # -- configs: values
    "samples-0": Refusal(_CONFIG, "[verify]\nsamples = 0\n" + _RULE, 2,
                         "FILE: [verify]: samples must be at least 1"),
    "rule-samples-0": Refusal(_CONFIG, "[rule quadratic]\nsamples = 0\n", 2,
                              "FILE: [rule quadratic]: samples must be at least 1"),
    "rule-samples-past-numpy": Refusal(_CONFIG, "[rule quadratic]\nsamples = 4611686018427387904\n", 2,
                                       "rule 'quadratic': propriety suite: 9223372036854775808 sample points "
                                       "of 3 atoms do not fit in one numpy array"),
    "seed-empty": Refusal(_CONFIG, "[verify]\nseed =\n" + _RULE, 2,
                          "FILE: [verify]: invalid literal for int() with base 10: ''"),
    "seed-negative": Refusal(_CONFIG, "[verify]\nseed = -1\n" + _RULE, 2,
                             "FILE: [verify]: seed must be nonnegative"),
    "rule-seed-negative": Refusal(_CONFIG, "[verify]\n" + _RULE + "seed = -1\n", 2,
                                  "FILE: [rule quadratic]: seed must be nonnegative"),
    "tol-nan": Refusal(_CONFIG, "[verify]\npropriety_tol = nan\n" + _RULE, 2,
                       "FILE: [verify]: propriety_tol must be finite and nonnegative"),
    "tol-negative": Refusal(_CONFIG, "[verify]\neuler_tol = -1\n" + _RULE, 2,
                            "FILE: [verify]: euler_tol must be finite and nonnegative"),
    "rule-tol-nan": Refusal(_CONFIG, "[verify]\n" + _RULE + "euler_tol = nan\n", 2,
                            "FILE: [rule quadratic]: euler_tol must be finite and nonnegative"),
    "rule-tol-inf": Refusal(_CONFIG, "[verify]\n" + _RULE + "euler_tol = inf\n", 2,
                            "FILE: [rule quadratic]: euler_tol must be finite and nonnegative"),
    "rule-tol-negative": Refusal(_CONFIG, "[verify]\n" + _RULE + "propriety_tol = -1e-3\n", 2,
                                 "FILE: [rule quadratic]: propriety_tol must be finite and nonnegative"),
    "unknown-suites": Refusal(_CONFIG, "[verify]\nsuites = propriety, nonsense, bogus\n" + _RULE, 2,
                              "FILE: [verify]: unknown suites: bogus, nonsense"),
    "weights-list-not-numeric": Refusal(_CONFIG, "[verify]\nweights = 1,x\n" + _RULE, 2,
                                        "FILE: [verify]: bad number list '1,x'"),
    # -- configs: weights_file, a path relative to the config's directory
    "weights-file-empty": Refusal(_CONFIG, "[verify]\nweights_file =\n" + _RULE, 2,
                                  "FILE: [verify]: weights_file names no file"),
    "weights-and-weights-file": Refusal(_CONFIG, "[verify]\nweights = 1,1\nweights_file = w.txt\n"
                                        + _RULE, 2, "FILE: [verify]: weights and weights_file are both set"),
    "weights-file-missing": Refusal(_CONFIG, "[verify]\nweights_file = w.txt\n" + _RULE, 2,
                                    "DIR/w.txt: No such file or directory"),
    "weights-file-not-numeric": Refusal("verify --config CONFIG", {"CONFIG": _WEIGHTS_FILE, "FILE": "1.0\n1,x,3\n"},
                                        2, "FILE:2: non-numeric value"),
    "weights-file-several-per-line": Refusal("verify --config CONFIG",
                                             {"CONFIG": _WEIGHTS_FILE, "FILE": "\n1,1,1\n"}, 2,
                                             "FILE:2: non-numeric value"),
    "weights-file-not-utf8": Refusal("verify --config CONFIG", {"CONFIG": _WEIGHTS_FILE, "FILE": b"1.0\n\xff\n"}, 2,
                                     "FILE:2: not UTF-8 text"),
    # -- configs: verify never passes on nothing
    "suites-empty": Refusal(_CONFIG, "[verify]\nsuites =\n" + _RULE, 2,
                            "FILE: nothing to verify: no suites and no probes"),
    "suites-comma": Refusal(_CONFIG, "[verify]\nsamples = 5\nsuites = ,\n" + _RULE, 2,
                            "FILE: nothing to verify: no suites and no probes"),
    "probe-without-candidates": Refusal(_CONFIG, _HEAD + "[probe bare]\nentropy = quadratic\n"
                                        "point = 1,1,1\n", 2, "FILE: [probe bare]: no candidates to probe"),
    "probe-expecting-nothing": Refusal(_CONFIG, _HEAD + "[probe p]\n" + _REJECTING, 2,
                                       "FILE: [probe p]: no expect_verified or expect_rejected: "
                                       "the probe would pass on nothing"),
    # -- configs: probes
    "unknown-domain": Refusal(_CONFIG, _HEAD + "[probe p]\ndomain = cube\n" + _REJECTING
                              + "expect_rejected = 3,3,3\n", 2, "FILE: [probe p]: unknown domain 'cube'"),
    "probe-point-not-numeric": Refusal(_CONFIG, "[probe a]\nentropy = quadratic\npoint = 1,y\n"
                                       "candidates = 2,0\n" + _RULE, 2, "FILE: [probe a]: bad number list '1,y'"),
    # a probe names its entropy with a rule spec, as a [rule SPEC] section does
    "probe-gamma-key": Refusal(_CONFIG, _HEAD + "[probe p]\n" + _REJECTING + "gamma = 1.5\n"
                               "expect_rejected = 3,3,3\n", 2, "FILE: [probe p]: unknown keys: gamma"),
    "probe-spec-parameter": Refusal(_CONFIG, _HEAD + "[probe p]\nentropy = power(abc)\npoint = 1,1,1\n"
                                    "candidates = 3,3,3\nexpect_rejected = 3,3,3\n", 2,
                                    "probe 'p': bad parameter in rule spec 'power(abc)'"),
    # the probe checks its point and the lengths of its vectors
    "probe-point-outside-domain": Refusal(_CONFIG, _HEAD + "[probe p]\nentropy = quadratic\n"
                                          "point = -1,1,1\ncandidates = 3,3,3\nexpect_rejected = 3,3,3\n", 2,
                                          "probe 'p': probe base point is not in the domain"),
    "probe-point-length": Refusal(_CONFIG, _PROBE_2 + "point = 1,0,0\ncandidates = 2,0\n", 2,
                                  "probe 'p': vector of length 3 does not fit a space of size 2"),
    "probe-candidate-length": Refusal(_CONFIG, _PROBE_2 + "point = 1,0\ncandidates = 2,0 ; 2,0,0\n", 2,
                                      "probe 'p': vector of length 3 does not fit a space of size 2"),
    "probe-point-nan": Refusal(_CONFIG, _PROBE_2 + "point = nan,0\ncandidates = 2,0\n", 2,
                               "probe 'p': cone vectors must have finite entries"),
    # inside the probe's domain, outside the entropy's: the orthant's 1e-9 slack admits -1e-10, power does not
    "probe-point-outside-shannon-domain": Refusal(_CONFIG, _PROBE_3 + "entropy = shannon\n"
                                                  "domain = whole_space\npoint = -1,1,1\ncandidates = 0,1,1\n"
                                                  "expect_verified = 0,1,1\n", 2,
                                                  "probe 'p': the entropy has no finite value at "
                                                  "the probe base point"),
    "probe-point-outside-power-domain": Refusal(_CONFIG, _PROBE_3 + "entropy = power(1.5)\n"
                                                "domain = orthant\npoint = -1e-10,1,1\ncandidates = 0,1.5,1.5\n"
                                                "expect_verified = 0,1.5,1.5\n", 2,
                                                "probe 'p': the entropy has no finite value at "
                                                "the probe base point"),
    # q q mu overflows on sampled points near this point; no row of a batch inside the probe is named
    "probe-past-the-float-range": Refusal(_CONFIG, _PROBE_3 + "entropy = quadratic\n"
                                          "domain = whole_space\npoint = 1.1e154,6e153,1\n"
                                          "candidates = 2.2e154,1.2e154,2\n"
                                          "expect_verified = 2.2e154,1.2e154,2\n", 2,
                                          "probe 'p': values or pairings at the probe's sampled points leave "
                                          "the float range"),
    # -- configs: rules whose scores leave the float range on their sample points
    # power(1100)'s subgradient 1100 q^1099 overflows on the symmetry suite's box points
    "rule-past-the-float-range": Refusal(_CONFIG, "[verify]\nweights = 1,1,1\nsamples = 50\n"
                                         "seed = 42\n\n[rule power(1100)]\n", 2,
                                         "rule 'power(1100)': symmetry suite: power(1100) subgradients leave the "
                                         "float range at 12 of 100 sampled points; the sample points lie in the "
                                         "box [0.05, 2)^3"),
    # power(3)'s scores overflow wherever the 1e-200 atom holds mass: each suite counts its sampled points
    **{f"{suite}-suite-past-the-float-range": Refusal(
        "verify --config FILE", "[verify]\nseed = 1\nsamples = 20\nweights = 1e-200,1,1\n"
        f"suites = {suite}\n\n[rule power(3)]\n", 2,
        f"rule 'power(3)': {suite} suite: power(3) scores leave the float range at {count}")
       for suite, count in (("propriety", "20 of 20 sampled pairs"), ("euler", "20 of 20 sampled points"))},
    # -- paths that name no file, or no file that can be written
    "empty-input-path": Refusal("grid-score ''", {}, 2, "an empty path names no file"),
    "empty-input-paths": Refusal("score '' ''", {}, 2, "an empty path names no file"),
    "empty-out": Refusal("grid-score FILE --out ''", _GRID, 2, "an empty path names no file"),
    "out-a-directory": Refusal("grid-score FILE --out DIR", _GRID, 2, "DIR: Is a directory"),
    "out-in-no-directory": Refusal("grid-score FILE --out DIR/missing/x.csv", _GRID, 2,
                                   "DIR/missing/x.csv: No such file or directory"),
    "verify-out-in-no-directory": Refusal("verify --samples 5 --out DIR/missing/r.json", {}, 2,
                                          "DIR/missing/r.json: No such file or directory"),
    "out-below-a-file": Refusal("score FORECASTS OUTCOMES --out FILE/x.csv", "", 2, "FILE/x.csv: Not a directory"),
    "divergence-out-a-directory": Refusal("divergence FORECASTS FORECASTS --out DIR", {}, 2, "DIR: Is a directory"),
    # --out is checked before any input is read
    "out-before-inputs": Refusal("grid-score DIR/none.csv --out DIR/missing/x.csv", {}, 2,
                                 "DIR/missing/x.csv: No such file or directory"),
    "input-missing": Refusal("grid-score DIR/none.csv --out FILE", "earlier\n", 2,
                             "DIR/none.csv: No such file or directory"),
    # a file that takes no bytes: only the write finds out
    "out-full": Refusal("grid-score FILE --out /dev/full", _GRID, 2, "/dev/full: No space left on device"),
}


def _refusal_params():
    for name, row in REFUSALS.items():
        marks = ()
        if "/dev/full" in row.argv and not os.path.exists("/dev/full"):
            marks = pytest.mark.skip(reason="this system has no /dev/full, a file whose writes fail")
        yield pytest.param(row, id=name, marks=marks)


def _refuse(row: Refusal, directory: Path) -> tuple[tuple[int, str, bytes | None], tuple[int, str, bytes | None]]:
    """Write the row's files in ``directory`` and run its argv in-process, warnings as errors:
    its (exit code, stderr, --out bytes), then the ones the row expects, names written out as their
    paths. A refusal writes no --out; an argv that names its own --out has its bytes unread, None."""
    files = row.files if isinstance(row.files, dict) else {"FILE": row.files}
    paths = {"DIR": str(directory), "FORECASTS": FORECASTS, "OUTCOMES": OUTCOMES,
             **{name: str(directory / name) for name in files}}
    pattern = re.compile(r"\b(" + "|".join(paths) + r")\b")

    def named(text: str) -> str:
        return pattern.sub(lambda match: paths[match[0]], text)

    for name, content in files.items():
        (directory / name).write_bytes(content if isinstance(content, bytes) else named(content).encode())
    argv = [named(word) for word in shlex.split(row.argv)]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        # an argv with its own --out runs as it is: run() adds an --out that would override it
        code, payload = (main(argv), None) if "--out" in argv else run(directory, *argv)
    expected_payload = None if "--out" in argv else b""
    return (code, err.getvalue(), payload), (row.code, f"entroscore: {named(row.err)}\n", expected_payload)


@pytest.mark.parametrize("row", _refusal_params())
def test_each_refusal_exits_with_its_code_and_message(tmp_path, row):
    got, expected = _refuse(row, tmp_path)
    assert got == expected


def test_every_cli_refusal_site_has_a_row(tmp_path, monkeypatch):
    # each `raise CliError(` line of cli.py is reached by a row of the table
    lines = Path(cli.__file__).read_text(encoding="utf-8").splitlines()
    sites = {number for number, line in enumerate(lines, start=1) if "raise CliError(" in line}
    reached = set()
    init = cli.CliError.__init__

    def recording(self, code, message):
        caller = sys._getframe(1)
        if caller.f_code.co_filename == cli.__file__:
            reached.add(caller.f_lineno)
        init(self, code, message)

    monkeypatch.setattr(cli.CliError, "__init__", recording)
    rows = [param.values[0] for param in _refusal_params() if not param.marks]
    for k, row in enumerate(rows):
        (tmp_path / str(k)).mkdir()
        _refuse(row, tmp_path / str(k))
    if len(rows) < len(REFUSALS):  # no /dev/full: only _write_text's site, for a failed write, goes unreached
        source, start = inspect.getsourcelines(cli._write_text)
        sites -= {start + k for k, line in enumerate(source) if "raise CliError(" in line}
    assert sites and [f"cli.py:{number}: {lines[number - 1].strip()}" for number in sorted(sites - reached)] == []


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


def test_an_unusable_out_stops_verify_before_any_suite(tmp_path, monkeypatch):
    def ran(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_run_suite", ran)
    # the refusal's message is the table's verify-out-in-no-directory row
    assert main(["verify", "--samples", "5", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_checking_out_creates_and_truncates_nothing(tmp_path):
    # a command that fails on its input leaves a usable --out as it was: absent, or with its text
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("earlier\n")
    for out in (kept, absent):  # the refusal's message is the table's input-missing row
        assert main(["grid-score", str(tmp_path / "none.csv"), "--out", str(out)]) == 2
    assert kept.read_text() == "earlier\n" and not absent.exists()


@pytest.mark.parametrize("existing", [True, False], ids=["file", "new-name"])
def test_an_out_without_write_permission_exits_2(tmp_path, monkeypatch, existing):
    # these tests may run as root, whom no mode refuses: os.access refuses in its place,
    # the file itself if it exists, else its directory
    grid, out = tmp_path / "grid.txt", tmp_path / "out.csv"
    grid.write_text(_GRID)
    if existing:
        out.write_text("earlier\n")
    asked = []

    def access(path, mode):
        asked.append((str(path), mode))
        return False

    monkeypatch.setattr(os, "access", access)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["grid-score", str(grid), "--out", str(out)]) == 2
    assert err.getvalue() == f"entroscore: {out}: Permission denied\n"
    assert asked == [(str(out if existing else tmp_path), os.W_OK)]
    assert (out.read_text() == "earlier\n") if existing else not out.exists()


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


def test_a_line_past_the_csv_size_limit_of_small_cells_parses(tmp_path):
    # one cell past csv.field_size_limit() is the refusal table's forecasts-field-past-the-limit row
    n = csv.field_size_limit() // 4 + 1
    wide = tmp_path / "wide.csv"
    wide.write_text(",".join(f"p{i + 1}" for i in range(n)) + "\n" + ",".join(["0.5"] * n) + "\n")
    assert _read_outcome(cli.read_forecasts, str(wide)) == _read_outcome(_per_cell_read_forecasts, str(wide))


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


def test_each_catalog_row_builds_and_expects_the_symmetry_it_shows():
    # the catalog table, row by row: a rule spec builds each row it can give a parameter to and
    # refuses the matrix row (the refusal table's rule-needing-a-matrix row), and each row's symmetry
    # column is what symmetry_defect classifies at n = 3 and at n = 1, also through the linear alias.
    # On one atom the spherical entropies are linear, q mu^(1/g), so their divergence is 0.  The
    # fisher row refuses both spaces, and is checked on a periodic grid of 8 equal atoms
    assert entropies.CATALOG_NAMES == tuple(entropies._CATALOG)
    for space in (MeasureSpace([0.5, 1.0, 2.0]), MeasureSpace([0.5]), MeasureSpace(np.full(8, 0.125))):
        n = space.size
        grid = n == 8  # the space on which the fisher row, and only it, is checked
        checked = []  # (the row's symmetry column at gamma and n, entropy, build_rule's (entropy, rule) or None)
        for name, (_, parameter, symmetric) in entropies._CATALOG.items():
            if name == "fisher" and not grid:
                with pytest.raises(cli.CliError) as refused:
                    cli.build_rule(name, space)
                assert str(refused.value) == _NOT_A_GRID
                continue
            if grid and name != "fisher":
                continue
            if parameter == "matrix":
                with pytest.raises(cli.CliError, match=f"^cannot build rule {name!r}: {name} needs a matrix$"):
                    cli.build_rule(name, space)
                matrix = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])[:n, :n]
                checked.append((symmetric(None, n), catalog_entropy(name, space, matrix=matrix), None))
                continue
            for gamma in (1.5, 2.0, 3.0) if parameter == "exponent" else (None,):
                spec = name if gamma is None else f"{name}({gamma:g})"
                entropy, rule = cli.build_rule(spec, space)
                assert entropy.name == spec
                assert entropies.catalog_symmetric(name, gamma, n) == symmetric(gamma, n)
                checked.append((symmetric(gamma, n), entropy, (entropy, rule)))
        if not grid:
            quadratic, _ = cli._ALIASES["linear"]
            linear = cli.build_rule("linear", space)
            checked.append((entropies.catalog_symmetric(quadratic, None, n), linear[0], linear))
        for symmetric, entropy, built in checked:
            expected = SYMMETRIC_GENERALIZED_QUADRATIC if symmetric else ASYMMETRIC_WITH_WITNESS
            assert symmetry_defect(entropy, seed=3, samples=100).classification == expected, (entropy.name, n)
            if built:  # what verify expects of the rule is the column
                report = cli._run_suite("symmetry", *built, {"seed": 3, "samples": 100})
                assert (report["expected"], report["pass"]) == (expected, True), (entropy.name, n)
    # without an atom count, the column is the one of several atoms
    assert [entropies.catalog_symmetric(name) for name in ("spherical", "pseudospherical")] == [False, False]


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
