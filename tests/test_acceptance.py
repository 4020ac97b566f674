"""Acceptance suite: one check per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import json
import math
import time

import numpy as np

from entroscore import (
    ConvexDomainSpec,
    GridDensity,
    MeasureSpace,
    PeriodicGrid,
    ASYMMETRIC_WITH_WITNESS,
    SYMMETRIC_GENERALIZED_QUADRATIC,
    bregman_divergence,
    canonical_extension_value,
    catalog_entropy,
    directional_derivative_fd,
    fisher_entropy,
    hyvarinen_divergence,
    hyvarinen_score,
    is_quasi_interior,
    make_psr,
    pair,
    rebase_entropy,
    sample_cone_point,
    sample_positive_box,
    score_divergence,
    subdifferential_probe,
    symmetry_defect,
    verify_euler,
    verify_propriety,
    zero_homog_extend,
)
from entroscore.cli import main as cli_main

from conftest import (
    CATALOG_SPECS,
    entropy_from_spec,
    integrated_square_composite,
    power_law_composite,
    rule_from_spec,
    unit_space,
)
from goldens import DATA, GOLDENS


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_propriety_suite():
    started = time.perf_counter()
    ok = True
    for spec in CATALOG_SPECS:
        for n in (2, 5, 20):
            rule = rule_from_spec(spec, unit_space(n))
            report = verify_propriety(rule, seed=42, samples=1000, tol=1e-10)
            ok &= report.passed and report.min_margin >= -1e-10
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    _report(1, f"propriety 18 x 1000 pairs in {elapsed:.2f}s", ok)


def test_criterion_2_euler_identity():
    ok = True
    for spec in CATALOG_SPECS:
        sp = unit_space(3)
        entropy = entropy_from_spec(spec, sp)
        report = verify_euler(make_psr(entropy), entropy, seed=42, samples=1000, tol=1e-10)
        ok &= report.passed
    _report(2, "Euler identity on 1000 cone points per rule", ok)


def test_criterion_3_homogeneity():
    ok = True
    rng = np.random.default_rng(42)
    sp = unit_space(3)
    for spec in CATALOG_SPECS:
        entropy = entropy_from_spec(spec, sp)
        rule = make_psr(entropy)
        for _ in range(100):
            q = sample_cone_point(sp, rng)
            base_score = zero_homog_extend(rule, q).values
            base_value = canonical_extension_value(entropy, q)
            for lam in (0.5, 2.0, 10.0):
                scaled_score = zero_homog_extend(rule, lam * q).values
                ok &= float(np.max(np.abs(scaled_score - base_score))) <= 1e-12
                scaled_value = canonical_extension_value(entropy, lam * q)
                ok &= abs(scaled_value - lam * base_value) <= 1e-12 * (1.0 + abs(lam * base_value))
    _report(3, "0-homogeneous scores, 1-homogeneous extended entropies", ok)


def test_criterion_4_gateaux_check():
    ok = True
    sp = unit_space(3)
    for spec in ("quadratic", "power(1.5)", "power(3)", "spherical"):
        entropy = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(42)
        for _ in range(200):
            q = sp.cone(rng.uniform(0.1, 2.0, size=3))
            p = sp.cone(rng.normal(size=3))
            fd = directional_derivative_fd(entropy, q, p)
            ok &= abs(fd - pair(p, entropy.subgradient(q))) <= 1e-6
    _report(4, "finite differences match subgradient pairings (200 pairs x 4 rules)", ok)


def test_criterion_5_known_values():
    sp = unit_space(2)
    p, q = sp.density([1.0, 0.0]), sp.density([0.5, 0.5])
    quadratic = score_divergence(rule_from_spec("quadratic", sp), p, q)
    shannon = score_divergence(rule_from_spec("shannon", sp), p, q)
    ok = abs(quadratic - 0.5) <= 1e-12 and abs(shannon - math.log(2.0)) <= 1e-12
    _report(5, "quadratic divergence 0.5, logarithmic divergence ln 2", ok)


def test_criterion_6_symmetry_classification():
    ok = True
    sp = unit_space(3)
    nu = np.array([0.8, 1.1, 0.6])
    for generator in (power_law_composite(sp, 2.0, nu=nu), integrated_square_composite(sp, nu)):
        report = symmetry_defect(generator, seed=42)
        ok &= report.classification == SYMMETRIC_GENERALIZED_QUADRATIC
        ok &= report.max_symmetry_defect <= 1e-10 and report.max_third_difference <= 1e-12

    cubic = catalog_entropy("power", sp, gamma=3.0)
    report = symmetry_defect(cubic, seed=42)
    ok &= report.classification == ASYMMETRIC_WITH_WITNESS
    p = sp.cone([0.6, 0.3, 0.1])
    q = sp.cone([1.0 / 3.0] * 3)
    oracle = math.fsum(((p.values - q.values) ** 3).tolist())  # 7/1125 ~ 6.222e-3
    witness_defect = abs(bregman_divergence(cubic, p, q) - bregman_divergence(cubic, q, p))
    ok &= abs(witness_defect - oracle) <= 1e-9

    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        space = MeasureSpace(rng.uniform(0.5, 2.0, size=n))
        a = rng.normal(size=(n, n))
        entropy = catalog_entropy("weighted_quadratic", space, matrix=a.T @ a + n * np.eye(n))
        report = symmetry_defect(entropy, seed=trial, samples=150)
        ok &= report.classification == SYMMETRIC_GENERALIZED_QUADRATIC
    _report(6, "symmetry classifier: generators, cubic witness, 20 random forms", ok)


def test_criterion_7_rebase_regenerates_divergence():
    ok = True
    rng = np.random.default_rng(42)
    sp = unit_space(3)
    entropies = [entropy_from_spec(spec, sp) for spec in CATALOG_SPECS]
    a = rng.normal(size=(3, 3))
    entropies.append(catalog_entropy("weighted_quadratic", sp, matrix=a.T @ a + 3.0 * np.eye(3)))
    for entropy in entropies:
        base = sample_positive_box(sp, rng)
        rebased = rebase_entropy(entropy, base)
        for _ in range(100):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            ok &= abs(bregman_divergence(rebased, p, q) - bregman_divergence(entropy, p, q)) <= 1e-12
    _report(7, "rebased entropies regenerate their divergence (100 pairs each)", ok)


def test_criterion_8_quasi_interior_and_probe():
    rng = np.random.default_rng(42)
    disagreements = 0
    for trial in range(500):
        n = int(rng.integers(2, 7))
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=n))
        on_simplex = trial % 2 == 0
        values = rng.dirichlet(np.ones(n)) / sp.weights if on_simplex else rng.uniform(0.0, 2.0, size=n)
        if rng.uniform() < 0.5:
            mask = rng.uniform(size=n) < 0.5
            if mask.all():
                mask[int(rng.integers(n))] = False
            values = values.copy()
            values[mask] = 0.0
            if on_simplex:
                values = values / math.fsum((values * sp.weights).tolist())
        q = sp.cone(values)
        domain = ConvexDomainSpec.simplex(sp) if on_simplex else ConvexDomainSpec.nonnegative_orthant(sp)
        direct = bool(np.all(q.values > 0.0))
        if is_quasi_interior(domain, q) != direct:
            disagreements += 1
    ok = disagreements == 0

    sp = unit_space(2)
    probe = subdifferential_probe(
        catalog_entropy("quadratic", sp),
        ConvexDomainSpec.nonnegative_orthant(sp),
        sp.cone([1.0, 0.0]),
        [sp.dual([2.0, t]) for t in (-2.0, -1.0, 0.0, 0.1, 1.0)],
        seed=42,
    )
    ok &= sorted(c.values[1] for c in probe.verified) == [-2.0, -1.0, 0.0]
    ok &= sorted(r.candidate.values[1] for r in probe.rejected) == [0.1, 1.0]
    _report(8, "quasi-interior vs relative interior (500 pts), corner subdifferential", ok)


def test_criterion_9_grid_identities():
    grid = PeriodicGrid(64)
    sp = grid.space
    rng = np.random.default_rng(42)

    def random_field():
        x = grid.points
        log_q = np.zeros(grid.n)
        for k in (1, 2, 3):
            a, b = rng.normal(size=2) * 0.6 / k
            log_q += a * np.sin(2.0 * np.pi * k * x) + b * np.cos(2.0 * np.pi * k * x)
        return GridDensity(grid, np.exp(log_q))

    ok = True
    for _ in range(100):
        p = random_field().normalized()
        q = random_field()
        p_cone = sp.cone(p.values)
        lhs = pair(p_cone, hyvarinen_score(p)) - pair(p_cone, hyvarinen_score(q))
        ok &= abs(lhs - hyvarinen_divergence(p, q)) <= 1e-12
    for lam in (0.5, 2.0, 3.0, 10.0):
        p = random_field().normalized()
        ok &= abs(hyvarinen_divergence(p, GridDensity(grid, p.values * lam))) <= 1e-14
    for _ in range(100):
        q = GridDensity(grid, random_field().values * float(rng.uniform(0.1, 10.0)))
        euler_gap = pair(sp.cone(q.values), hyvarinen_score(q)) - fisher_entropy(q)
        ok &= abs(euler_gap) <= 1e-12 * (1.0 + abs(fisher_entropy(q)))
    _report(9, "grid divergence identity, scale invariance, Euler identity", ok)


def test_criterion_10_cli_golden_and_verify(tmp_path):
    out = tmp_path / "scores.csv"
    code = cli_main([
        "score", str(DATA / "forecasts_10.csv"), str(DATA / "outcomes_10.csv"),
        "--out", str(out),
    ])
    ok = code == 0 and out.read_bytes() == (DATA / GOLDENS["scores"].file).read_bytes()

    report_path = tmp_path / "report.json"
    code = cli_main(["verify", "--seed", "42", "--out", str(report_path)])
    ok &= code == 0 and json.loads(report_path.read_text())["pass"] is True

    bad_path_1 = tmp_path / "bad1.json"
    bad_path_2 = tmp_path / "bad2.json"
    config = str(DATA / "verify_improper.ini")
    code1 = cli_main(["verify", "--config", config, "--out", str(bad_path_1)])
    code2 = cli_main(["verify", "--config", config, "--out", str(bad_path_2)])
    ok &= code1 != 0 and code2 != 0
    ok &= bad_path_1.read_bytes() == bad_path_2.read_bytes()
    witness = json.loads(bad_path_1.read_text())["rules"]["linear"]["propriety"]
    ok &= witness["pass"] is False and len(witness["witness_p"]) == 3
    _report(10, "CLI golden bytes, verify exit codes, reproducible witness", ok)
