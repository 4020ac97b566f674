"""Seeded inputs for the four benchmark workloads, and the checks on their outputs.

Each workload is one ``entroscore`` CLI command.  :func:`generate` writes its
input files from the seed alone (same seed, byte-identical files) and returns
a :class:`Workload` holding the command line, the number of items one command
processes, and everything :func:`check_output` needs to judge the output
independently of the library: numpy references for a seeded subset of cells
and the verdicts the ``verify`` report must carry.

``BENCHMARK.json`` gives each workload's rationale.  ``grid-score`` is
deliberately not a workload: its kernel takes about 0.2 ms at N = 10^4, its
CLI cost is the CSV I/O the ``score`` workloads already load, and no open
performance item targets it.  ``divergence`` is defined here and runs by hand
but is left out of ``BENCHMARK.json``: on a 2-core host whose speed drifts by
up to 1.7x over minutes, four workloads leave each run too short to be steady
within the bounds, and the layers it exercises are all measured on the others.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RULES = ("quadratic", "spherical", "shannon", "power(1.5)", "power(3)", "pseudospherical(3)")

# Sizes: one in-process command takes roughly one to three seconds on a
# 2-core Xeon, long enough to average out scheduler noise within a command.
NARROW_ROWS, NARROW_ATOMS = 1500, 5
WIDE_ROWS, WIDE_ATOMS = 400, 500
WIDE_ZERO_OUTCOMES = WIDE_ROWS // 10  # rows whose outcome sits on a zero atom
DIVERGENCE_ROWS, DIVERGENCE_ATOMS = 40, 5
VERIFY_SAMPLES, VERIFY_ATOMS = 1000, 3
SYMMETRY_SAMPLE_CAP = 500  # the CLI caps symmetry pairs at min(samples, 500)
CHECKED_CELLS = 50  # seeded rows (or cells) compared against the numpy reference
REL_TOL = 1e-12


@dataclass
class Workload:
    name: str
    seed: int
    argv: list[str]  # arguments to entroscore.cli.main, without --out
    items: int
    inputs: dict[str, str]  # file name -> sha256
    expect: dict = field(repr=False)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    lines = [",".join(f"p{j + 1}" for j in range(matrix.shape[1]))]
    lines.extend(",".join(map(repr, row)) for row in matrix.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_outcomes(path: Path, outcomes: np.ndarray) -> None:
    path.write_text("outcome\n" + "".join(f"{k}\n" for k in outcomes.tolist()), encoding="utf-8")


def _dirichlet_rows(rng, rows: int, atoms: int) -> np.ndarray:
    return rng.dirichlet(np.ones(atoms), size=rows)


def _score_narrow(rng, directory: Path) -> tuple[list[str], int, dict]:
    forecasts = _dirichlet_rows(rng, NARROW_ROWS, NARROW_ATOMS)
    outcomes = rng.integers(1, NARROW_ATOMS + 1, size=NARROW_ROWS)
    _write_matrix(directory / "forecasts.csv", forecasts)
    _write_outcomes(directory / "outcomes.csv", outcomes)
    argv = ["score", str(directory / "forecasts.csv"), str(directory / "outcomes.csv")]
    expect = {"forecasts": forecasts, "outcomes": outcomes, "weights": np.ones(NARROW_ATOMS),
              "inf_rows": 0}
    return argv, NARROW_ROWS * len(RULES), expect


def _score_wide(rng, directory: Path) -> tuple[list[str], int, dict]:
    weights = rng.uniform(0.25, 4.0, size=WIDE_ATOMS)
    forecasts = np.zeros((WIDE_ROWS, WIDE_ATOMS))
    outcomes = np.empty(WIDE_ROWS, dtype=int)
    on_zero = np.zeros(WIDE_ROWS, dtype=bool)
    on_zero[rng.choice(WIDE_ROWS, size=WIDE_ZERO_OUTCOMES, replace=False)] = True
    for i in range(WIDE_ROWS):
        order = rng.permutation(WIDE_ATOMS)
        support, zeros = order[: WIDE_ATOMS // 2], order[WIDE_ATOMS // 2:]
        forecasts[i, support] = rng.dirichlet(np.ones(support.size)) / weights[support]
        outcomes[i] = 1 + int(rng.choice(zeros if on_zero[i] else support))
    _write_matrix(directory / "forecasts.csv", forecasts)
    _write_outcomes(directory / "outcomes.csv", outcomes)
    argv = ["score", str(directory / "forecasts.csv"), str(directory / "outcomes.csv"),
            "--weights", ",".join(map(repr, weights.tolist()))]
    expect = {"forecasts": forecasts, "outcomes": outcomes, "weights": weights,
              "inf_rows": WIDE_ZERO_OUTCOMES}
    return argv, WIDE_ROWS * len(RULES), expect


def _divergence(rng, directory: Path) -> tuple[list[str], int, dict]:
    left = _dirichlet_rows(rng, DIVERGENCE_ROWS, DIVERGENCE_ATOMS)
    right = _dirichlet_rows(rng, DIVERGENCE_ROWS, DIVERGENCE_ATOMS)
    _write_matrix(directory / "p.csv", left)
    _write_matrix(directory / "q.csv", right)
    argv = ["divergence", str(directory / "p.csv"), str(directory / "q.csv")]
    return argv, DIVERGENCE_ROWS * DIVERGENCE_ROWS * len(RULES), {"p": left, "q": right}


def _vector(values) -> str:
    return ",".join(map(repr, values))


def _vectors(rows) -> str:
    return " ; ".join(_vector(row) for row in rows)


def _verify(rng, directory: Path) -> tuple[list[str], int, dict]:
    weights = rng.uniform(0.5, 2.0, size=VERIFY_ATOMS).tolist()
    # Quadratic entropy, whose subgradient representer is 2q under any weights.
    # Corner (q_2 = q_3 = 0): 2q minus any nonnegative normal on the zero atoms
    # is a subgradient, plus on a zero atom is not.  Interior: 2q is the unique
    # subgradient.  Coordinates are multiples of 1/4, so 2q prints exactly.
    corner = [int(rng.integers(1, 9)) / 4.0, 0.0, 0.0]
    base = [2.0 * corner[0], 0.0, 0.0]
    corner_ok = [base, [base[0], -1.0, 0.0], [base[0], 0.0, -0.5]]
    corner_bad = [[base[0], 1.0, 0.0]]
    interior = (rng.integers(1, 9, size=VERIFY_ATOMS) / 4.0).tolist()
    gradient = [2.0 * x for x in interior]
    interior_ok = [gradient]
    interior_bad = [[gradient[0], gradient[1], gradient[2] + 0.5]]
    probes = {
        "corner": (corner, corner_ok, corner_bad),
        "interior": (interior, interior_ok, interior_bad),
    }
    lines = ["[verify]", f"seed = {int(rng.integers(0, 2**31))}",
             f"samples = {VERIFY_SAMPLES}", f"weights = {_vector(weights)}", ""]
    for rule in RULES:
        lines.extend([f"[rule {rule}]", ""])
    for name, (point, ok, bad) in probes.items():
        lines.extend([
            f"[probe {name}]", "entropy = quadratic", "domain = orthant",
            f"point = {_vector(point)}", f"candidates = {_vectors(ok + bad)}",
            f"expect_verified = {_vectors(ok)}", f"expect_rejected = {_vectors(bad)}", "",
        ])
    (directory / "verify.ini").write_text("\n".join(lines), encoding="utf-8")
    per_rule = VERIFY_SAMPLES + VERIFY_SAMPLES + min(VERIFY_SAMPLES, SYMMETRY_SAMPLE_CAP)
    items = len(RULES) * per_rule + sum(len(ok) + len(bad) for _, ok, bad in probes.values())
    expect = {"weights": weights, "probes": {name: (ok, bad) for name, (_, ok, bad) in probes.items()}}
    return ["verify", "--config", str(directory / "verify.ini")], items, expect


_GENERATORS = {
    "score_narrow": _score_narrow,
    "score_wide": _score_wide,
    "divergence": _divergence,
    "verify": _verify,
}
NAMES = tuple(_GENERATORS)


def generate(name: str, seed: int, directory) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    argv, items, expect = _GENERATORS[name](_rng(name, seed), directory)
    inputs = {path.name: sha256_file(path) for path in sorted(directory.iterdir())}
    return Workload(name, seed, argv, items, inputs, expect)


# -- output checks --------------------------------------------------------------


def _close(got: float, want: float) -> bool:
    if math.isinf(want):
        return got == want
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _check_cell(problems: list, where: str, text: str, want: float) -> None:
    try:
        got = float(text)
    except ValueError:
        problems.append(f"{where}: not a number: {text!r}")
        return
    if not _close(got, want):
        problems.append(f"{where}: got {got!r}, reference {want!r}")


def _reference_scores(forecasts, weights, outcomes):
    """Quadratic and log scores and self-scores, from numpy alone."""
    q_at = forecasts[np.arange(forecasts.shape[0]), outcomes - 1]
    brier = np.sum(forecasts * forecasts * weights, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_at = np.log(q_at)
        entropy = np.sum(np.where(forecasts > 0, forecasts * np.log(forecasts), 0.0) * weights, axis=1)
    return {
        "quadratic_score": 2.0 * q_at - brier,
        "quadratic_expected": brier,
        "shannon_score": log_at,
        "shannon_expected": entropy,
    }


def _check_score(rows: list[list[str]], workload: Workload, problems: list) -> None:
    expect = workload.expect
    forecasts, outcomes = expect["forecasts"], expect["outcomes"]
    header = ["id", "outcome"] + [f"{rule}_{kind}" for rule in RULES for kind in ("score", "expected")]
    if rows[0] != header:
        problems.append(f"header {rows[0][:4]}... is not the expected score header")
        return
    body, footer = rows[1:-2], rows[-2:]
    if len(body) != forecasts.shape[0] or any(len(row) != len(header) for row in rows):
        problems.append(f"shape: {len(body)} data rows, expected {forecasts.shape[0]}")
        return
    if [row[1] for row in body] != [str(k) for k in outcomes.tolist()]:
        problems.append("outcome column does not echo the input")
    reference = _reference_scores(forecasts, expect["weights"], outcomes)
    column = {name: header.index(name) for name in reference}
    picked = np.random.default_rng(workload.seed).choice(len(body), size=CHECKED_CELLS, replace=False)
    for i in sorted(picked.tolist()):
        for name, values in reference.items():
            _check_cell(problems, f"row {i + 1} {name}", body[i][column[name]], float(values[i]))
    mean_row, inf_row = footer
    if mean_row[0] != "mean" or inf_row[0] != "inf_count":
        problems.append("missing mean/inf_count footer")
        return
    for name in ("quadratic_score", "quadratic_expected"):
        _check_cell(problems, f"mean {name}", mean_row[column[name]], float(np.mean(reference[name])))
    for index, name in enumerate(header[2:], start=2):
        want = expect["inf_rows"] if name == "shannon_score" else 0
        if inf_row[index] != str(want):
            problems.append(f"inf_count {name}: got {inf_row[index]}, expected {want}")


def _check_divergence(rows: list[list[str]], workload: Workload, problems: list) -> None:
    left, right = workload.expect["p"], workload.expect["q"]
    if rows[0] != ["rule", "p"] + [f"q{j + 1}" for j in range(right.shape[0])]:
        problems.append("divergence header does not list q1..qQ")
        return
    if len(rows) != 1 + len(RULES) * left.shape[0] or any(len(r) != len(rows[0]) for r in rows):
        problems.append(f"shape: {len(rows) - 1} rows, expected {len(RULES) * left.shape[0]}")
        return
    labels = [[rule, f"p{i + 1}"] for rule in RULES for i in range(left.shape[0])]
    if [row[:2] for row in rows[1:]] != labels:
        problems.append("rule/p labels out of order")
        return
    kl = np.sum(left[:, None, :] * (np.log(left)[:, None, :] - np.log(right)[None, :, :]), axis=2)
    diff = left[:, None, :] - right[None, :, :]
    brier = np.sum(diff * diff, axis=2)
    rng = np.random.default_rng(workload.seed)
    for rule, reference in (("shannon", kl), ("quadratic", brier)):
        offset = 1 + RULES.index(rule) * left.shape[0]
        for _ in range(CHECKED_CELLS):
            i, j = (int(k) for k in rng.integers(0, left.shape[0], size=2))
            _check_cell(problems, f"{rule} D(p{i + 1}, q{j + 1})", rows[offset + i][2 + j],
                        float(reference[i, j]))


def _check_verify(text: str, workload: Workload, problems: list) -> None:
    try:
        report = json.loads(text)
    except ValueError:
        problems.append("verify report is not JSON")
        return
    if report.get("pass") is not True:
        problems.append("verify report does not pass")
    config = report.get("config", {})
    if config.get("rules") != list(RULES) or config.get("samples") != VERIFY_SAMPLES:
        problems.append("verify report config does not echo the rules and samples")
    if config.get("weights") != workload.expect["weights"]:
        problems.append("verify report config does not echo the weights")
    for rule in RULES:
        entry = report.get("rules", {}).get(rule, {})
        for suite in ("propriety", "euler", "symmetry"):
            if entry.get(suite, {}).get("pass") is not True:
                problems.append(f"{rule} {suite} did not pass")
    for name, (ok, bad) in workload.expect["probes"].items():
        probe = report.get("probes", {}).get(name)
        if probe is None:
            problems.append(f"probe {name} missing")
            continue
        verified = sorted(map(tuple, probe.get("verified", [])))
        rejected = sorted(tuple(r["candidate"]) for r in probe.get("rejected", []))
        if probe.get("pass") is not True or verified != sorted(map(tuple, ok)) \
                or rejected != sorted(map(tuple, bad)):
            problems.append(f"probe {name}: verdicts differ from the expected ones")


def check_output(workload: Workload, exit_code: int, path) -> list[str]:
    """Problems found in one command's exit code and output file (empty if none)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot read output: {exc}"]
    problems: list[str] = []
    try:
        if workload.name == "verify":
            _check_verify(text, workload, problems)
        else:
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) < 2:
                return ["output has no data rows"]
            check = _check_score if workload.name.startswith("score") else _check_divergence
            check(rows, workload, problems)
    except (LookupError, TypeError, AttributeError, ValueError) as exc:  # malformed output
        problems.append(f"malformed output: {exc!r}")
    return problems
