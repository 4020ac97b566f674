"""Command-line surface: forecast scoring, divergence matrices, verification.

Subcommands::

    entroscore score forecasts.csv outcomes.csv [--rules ...] [--out ...]
    entroscore divergence p.csv q.csv [--rules ...] [--out ...]
    entroscore verify [--config cfg.ini] [--seed N] [--samples N] [--tol X]
    entroscore grid-score density.csv [--out ...]

CSV files carry a header row (forecast columns ``p1..pn``, outcome column
``outcome``; grid densities are headerless, one value per line).  Floats are
rendered with shortest round-trip ``repr``, infinities as ``inf``/``-inf``.
Exit codes: 0 success, 1 verification failure, 2 malformed input or config
(or a ``verify`` rule whose scores leave the float range on its sample
points), 3 invalid density rows or rows whose scores leave the float range,
4 unknown rule.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .bregman import (
    ASYMMETRIC_WITH_WITNESS,
    SYMMETRIC_GENERALIZED_QUADRATIC,
    symmetry_defect,
)
from .entropies import catalog_entropy, parse_rule_spec
from .errors import ConstructionError, EntroscoreError
from .geometry import ConvexDomainSpec, subdifferential_probe
from .grid import GridDensity, PeriodicGrid, fisher_entropy, hyvarinen_score
from .measure import MeasureSpace, pair_rows, require_density_rows
from .scoring import (linear_score, make_psr, require_float_range, score_divergence_rows,
                      verify_euler, verify_propriety)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DENSITY = 3
EXIT_RULE = 4

DEFAULT_RULES = "quadratic,spherical,shannon,power(1.5),power(3),pseudospherical(3)"
DEFAULT_SUITES = ("propriety", "euler", "symmetry")


class CliError(Exception):
    """Carries the exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        x = 0.0  # render -0.0 as 0.0
    return repr(x)


# -- rule construction --------------------------------------------------------


def build_rule(spec: str, space: MeasureSpace):
    """Resolve a rule spec like ``power(1.5)`` to (entropy, scoring rule).

    ``linear`` is the stock improper rule; its self-expected score is the
    quadratic entropy, which is what verification suites report against.
    """
    try:
        name, gamma = parse_rule_spec(spec)
        if name == "linear":
            if gamma is not None:
                raise ConstructionError("rule 'linear' takes no parameter")
            return catalog_entropy("quadratic", space), linear_score(space)
        entropy = catalog_entropy(name, space, gamma=gamma)
    except EntroscoreError as exc:
        raise CliError(EXIT_RULE, f"cannot build rule {spec!r}: {exc}") from None
    return entropy, make_psr(entropy)


def _parse_rule_list(text: str) -> list[str]:
    specs = [part.strip() for part in text.split(",")]
    if not all(specs):
        raise CliError(EXIT_RULE, "empty rule name in --rules")
    return specs


# -- CSV input ----------------------------------------------------------------


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"{path}: {exc.strerror or exc}") from None


def read_forecasts(path: str) -> np.ndarray:
    rows = _read_rows(path)
    if not rows:
        raise CliError(EXIT_INPUT, f"{path}:1: empty file")
    header = [cell.strip() for cell in rows[0]]
    n = len(header)
    if header != [f"p{i + 1}" for i in range(n)] or n == 0:
        raise CliError(EXIT_INPUT, f"{path}:1: header must be p1..pn")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n:
            raise CliError(EXIT_INPUT, f"{path}:{lineno}: expected {n} columns, got {len(row)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError:
            raise CliError(EXIT_INPUT, f"{path}:{lineno}: non-numeric value") from None
    if not data:
        raise CliError(EXIT_INPUT, f"{path}: no data rows")
    return np.array(data)


def read_outcomes(path: str, n_outcomes: int) -> list[int]:
    rows = _read_rows(path)
    if not rows or [cell.strip() for cell in rows[0]] != ["outcome"]:
        raise CliError(EXIT_INPUT, f"{path}:1: header must be 'outcome'")
    outcomes = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 1:
            raise CliError(EXIT_INPUT, f"{path}:{lineno}: expected a single column")
        try:
            value = int(row[0])
        except ValueError:
            raise CliError(EXIT_INPUT, f"{path}:{lineno}: non-integer outcome") from None
        if not 1 <= value <= n_outcomes:
            raise CliError(EXIT_INPUT, f"{path}:{lineno}: outcome {value} outside 1..{n_outcomes}")
        outcomes.append(value)
    return outcomes


@contextmanager
def _rows_of(path: str):
    """Report the rows a library check rejects in the file at ``path``: exit 3."""
    try:
        yield
    except EntroscoreError as exc:
        raise CliError(EXIT_DENSITY, f"{path}: {exc}") from None


def build_densities(matrix: np.ndarray, space: MeasureSpace, path: str) -> np.ndarray:
    """The forecast matrix itself, once every row is a density on ``space``."""
    with _rows_of(path):
        return require_density_rows(matrix, space.weights)


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise CliError(EXIT_INPUT, f"bad number list {text!r}") from None


def _parse_vector_list(text: str) -> list[list[float]]:
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def _measure_space(weights: list[float]) -> MeasureSpace:
    try:
        return MeasureSpace(weights)
    except EntroscoreError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from None


def _space_and_rules(args, n: int):
    """The space of ``--weights`` (unit weights by default) and the ``--rules`` on it."""
    weights = _parse_vector(args.weights) if args.weights else [1.0] * n
    if len(weights) != n:
        raise CliError(EXIT_INPUT, f"expected {n} weights, got {len(weights)}")
    space = _measure_space(weights)
    return space, [(spec, build_rule(spec, space)[1]) for spec in _parse_rule_list(args.rules)]


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# -- score --------------------------------------------------------------------


def cmd_score(args) -> int:
    forecasts = read_forecasts(args.forecasts)
    n = forecasts.shape[1]
    outcomes = read_outcomes(args.outcomes, n)
    if len(outcomes) != forecasts.shape[0]:
        raise CliError(
            EXIT_INPUT,
            f"row count mismatch: {forecasts.shape[0]} forecasts vs {len(outcomes)} outcomes",
        )
    space, rules = _space_and_rules(args, n)
    forecasts = build_densities(forecasts, space, args.forecasts)

    header = ["id", "outcome"]
    columns: list[list[float]] = []
    for spec, rule in rules:
        header.extend([f"{spec}_score", f"{spec}_expected"])
        with _rows_of(args.forecasts):
            scores = rule.score_rows(forecasts)
            expected = require_float_range(f"{spec} expected scores",
                                           pair_rows(forecasts, scores, space.weights))
        columns.append(scores[np.arange(len(outcomes)), np.array(outcomes) - 1].tolist())
        columns.append(expected.tolist())

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row_id, (outcome, *cells) in enumerate(zip(outcomes, *columns), start=1):
        writer.writerow([str(row_id), str(outcome)] + [_fmt(x) for x in cells])
    means, inf_counts = [], []
    for column in columns:
        finite = [x for x in column if math.isfinite(x)]
        means.append(_fmt(math.fsum(finite) / len(finite)) if finite else "nan")
        inf_counts.append(str(sum(1 for x in column if math.isinf(x))))
    writer.writerow(["mean", ""] + means)
    writer.writerow(["inf_count", ""] + inf_counts)
    _write_text(buffer.getvalue(), args.out)
    return EXIT_OK


# -- divergence ----------------------------------------------------------------


def cmd_divergence(args) -> int:
    left = read_forecasts(args.p_file)
    right = read_forecasts(args.q_file)
    if left.shape[1] != right.shape[1]:
        raise CliError(EXIT_INPUT, "the two density files have different widths")
    n = left.shape[1]
    space, rules = _space_and_rules(args, n)
    left = build_densities(left, space, args.p_file)
    right = build_densities(right, space, args.q_file)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["rule", "p"] + [f"q{j + 1}" for j in range(len(right))])
    for spec, rule in rules:
        with _rows_of(args.p_file):
            p_scores = rule.score_rows(left)
        with _rows_of(args.q_file):
            q_scores = rule.score_rows(right)
        for i in range(len(left)):
            cells = score_divergence_rows(left[i:i + 1], p_scores[i:i + 1], q_scores, space.weights)
            writer.writerow([spec, f"p{i + 1}"] + [_fmt(x) for x in cells.tolist()])
    _write_text(buffer.getvalue(), args.out)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


_EXPECTED_SYMMETRY = {
    "quadratic": SYMMETRIC_GENERALIZED_QUADRATIC,
    "weighted_quadratic": SYMMETRIC_GENERALIZED_QUADRATIC,
    "linear": SYMMETRIC_GENERALIZED_QUADRATIC,  # reported against the quadratic entropy
}


def _expected_symmetry(spec: str) -> str:
    name, _ = parse_rule_spec(spec)
    return _EXPECTED_SYMMETRY.get(name, ASYMMETRIC_WITH_WITNESS)


# Settings that [verify] sets for every rule and a [rule ...] section may
# override for its own rule: key -> type.
_KNOBS = {"seed": int, "samples": int, "propriety_tol": float, "euler_tol": float}


def _read_knobs(section) -> dict:
    return {key: cast(section[key]) for key, cast in _KNOBS.items() if key in section}


def _read_verify_section(section, settings: dict) -> None:
    settings.update(_read_knobs(section))
    if section.get("weights_file"):
        path = section["weights_file"]
        try:
            with open(path, encoding="utf-8") as handle:
                text = ",".join(line.strip() for line in handle if line.strip())
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"{path}: {exc.strerror}") from None
        settings["weights"] = _parse_vector(text)
    elif "weights" in section:
        settings["weights"] = _parse_vector(section["weights"])
    if section.get("suites"):
        settings["suites"] = [s.strip() for s in section["suites"].split(",") if s.strip()]


def load_verify_config(args):
    """Merge the INI config (if any) with command-line overrides."""
    settings = {
        "seed": 42,
        "samples": 1000,
        "weights": [1.0, 1.0, 1.0],
        "propriety_tol": 1e-10,
        "euler_tol": 1e-10,
        "suites": list(DEFAULT_SUITES),
    }
    rule_specs: list[tuple[str, dict]] = []
    probes: list[dict] = []
    if args.config:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(args.config)
        except configparser.Error as exc:
            raise CliError(EXIT_INPUT, f"{args.config}: {exc}") from None
        if not read:
            raise CliError(EXIT_INPUT, f"{args.config}: cannot read config file")
        for section_name in parser.sections():
            section = parser[section_name]
            # bad numbers raise ValueError, a stray '%' an interpolation error
            try:
                if section_name == "verify":
                    _read_verify_section(section, settings)
                elif section_name.startswith("rule "):
                    rule_specs.append((section_name[len("rule "):].strip(), _read_knobs(section)))
                elif section_name.startswith("probe "):
                    probes.append({
                        "name": section_name[len("probe "):].strip(),
                        "entropy": section.get("entropy", ""),
                        "gamma": section.getfloat("gamma", fallback=None),
                        "domain": section.get("domain", "orthant"),
                        "point": section.get("point", ""),
                        "candidates": section.get("candidates", ""),
                        "expect_verified": section.get("expect_verified", ""),
                        "expect_rejected": section.get("expect_rejected", ""),
                    })
            except (configparser.Error, ValueError) as exc:
                raise CliError(EXIT_INPUT, f"{args.config}: [{section_name}]: {exc}") from None
        if not rule_specs:
            raise CliError(EXIT_INPUT, f"{args.config}: no [rule ...] sections configured")
    else:
        rule_specs = [(spec, {}) for spec in _parse_rule_list(DEFAULT_RULES)]
    if args.seed is not None:
        settings["seed"] = args.seed
    if args.samples is not None:
        settings["samples"] = args.samples
    if args.tol is not None:
        settings["propriety_tol"] = args.tol
        settings["euler_tol"] = args.tol
    unknown = set(settings["suites"]) - set(DEFAULT_SUITES)
    if unknown:
        raise CliError(EXIT_INPUT, f"unknown suites: {', '.join(sorted(unknown))}")
    for spec, overrides in [("", {})] + rule_specs:
        knobs = {**settings, **overrides}
        where = f"[rule {spec}]: " if overrides else ""
        if knobs["samples"] < 1:
            raise CliError(EXIT_INPUT, f"{where}samples must be at least 1")
        if knobs["seed"] < 0:
            raise CliError(EXIT_INPUT, f"{where}seed must be nonnegative")
        for key in ("propriety_tol", "euler_tol"):
            if not 0.0 <= knobs[key] < math.inf:
                raise CliError(EXIT_INPUT, f"{where}{key} must be finite and nonnegative")
    return settings, rule_specs, probes


_PROBE_DOMAINS = {
    "orthant": ConvexDomainSpec.nonnegative_orthant,
    "simplex": ConvexDomainSpec.simplex,
    "whole_space": ConvexDomainSpec.whole_space,
}


def _run_probe(probe: dict, space: MeasureSpace, seed: int) -> dict:
    where = f"probe {probe['name']!r}"
    if probe["domain"] not in _PROBE_DOMAINS:
        raise CliError(EXIT_INPUT, f"{where}: unknown domain {probe['domain']!r}")
    try:
        entropy = catalog_entropy(probe["entropy"], space, gamma=probe["gamma"])
        domain = _PROBE_DOMAINS[probe["domain"]](space)
        point = space.cone(_parse_vector(probe["point"]))
        candidates = [space.dual(v) for v in _parse_vector_list(probe["candidates"])]
    except EntroscoreError as exc:
        raise CliError(EXIT_INPUT, f"{where}: {exc}") from None
    if not domain.contains(point):
        raise CliError(EXIT_INPUT, f"{where}: point is outside the {probe['domain']} domain")
    result = subdifferential_probe(entropy, domain, point, candidates, seed=seed)
    report = result.as_dict()
    passed = True
    if probe["expect_verified"]:
        verified = {tuple(v) for v in report["verified"]}
        passed &= all(tuple(v) in verified for v in _parse_vector_list(probe["expect_verified"]))
    if probe["expect_rejected"]:
        rejected = {tuple(r["candidate"]) for r in report["rejected"]}
        passed &= all(tuple(v) in rejected for v in _parse_vector_list(probe["expect_rejected"]))
    report["pass"] = bool(passed)
    return report


def _run_suite(suite: str, spec: str, entropy, rule, knobs: dict) -> dict:
    seed, samples = knobs["seed"], knobs["samples"]
    if suite == "propriety":
        return verify_propriety(rule, seed=seed, samples=samples, tol=knobs["propriety_tol"]).as_dict()
    if suite == "euler":
        return verify_euler(rule, entropy, seed=seed, samples=samples, tol=knobs["euler_tol"]).as_dict()
    report = symmetry_defect(entropy, seed=seed, samples=min(samples, 500)).as_dict()
    report["expected"] = _expected_symmetry(spec)
    report["pass"] = report["classification"] == report["expected"]
    return report


def cmd_verify(args) -> int:
    settings, rule_specs, probes = load_verify_config(args)
    space = _measure_space(settings["weights"])
    # validate every rule before running anything
    rules = [(spec, overrides, *build_rule(spec, space)) for spec, overrides in rule_specs]

    report = {
        "config": {
            "seed": settings["seed"],
            "samples": settings["samples"],
            "weights": settings["weights"],
            "suites": settings["suites"],
            "rules": [spec for spec, _ in rule_specs],
        },
        "rules": {},
        "probes": {},
    }
    overall = True
    for spec, overrides, entropy, rule in rules:
        knobs = {**settings, **overrides}
        entry = {}
        for suite in DEFAULT_SUITES:
            if suite in settings["suites"]:
                try:
                    entry[suite] = _run_suite(suite, spec, entropy, rule, knobs)
                except EntroscoreError as exc:  # e.g. scores past the float range on its sample points
                    raise CliError(EXIT_INPUT, f"rule {spec!r}: {suite} suite: {exc}") from None
                overall &= entry[suite]["pass"]
        report["rules"][spec] = entry
    for probe in probes:
        probe_report = _run_probe(probe, space, settings["seed"])
        report["probes"][probe["name"]] = probe_report
        overall &= probe_report["pass"]
    report["pass"] = bool(overall)
    _write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if overall else EXIT_FAIL


# -- grid-score -----------------------------------------------------------------


def cmd_grid_score(args) -> int:
    try:
        with open(args.density, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"{args.density}: {exc.strerror or exc}") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise CliError(EXIT_INPUT, f"{args.density}:{lineno}: non-numeric value") from None
    if len(values) < 4:
        raise CliError(EXIT_INPUT, f"{args.density}: a periodic grid needs at least 4 values")
    bad = [str(i) for i, v in enumerate(values, start=1) if not 0 < v < math.inf]
    if bad:
        raise CliError(EXIT_DENSITY, f"{args.density}: nonpositive or non-finite rows: {', '.join(bad)}")
    grid = PeriodicGrid(len(values))
    density = GridDensity(grid, values)
    score = hyvarinen_score(density)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x", "score"])
    for x, s in zip(grid.points, score.values):
        writer.writerow([_fmt(x), _fmt(s)])
    writer.writerow(["fisher_entropy", _fmt(fisher_entropy(density))])
    _write_text(buffer.getvalue(), args.out)
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroscore",
        description="Score forecasts, tabulate divergences, and verify rule properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score forecast rows against observed outcomes")
    p_score.add_argument("forecasts", help="CSV of probability vectors with header p1..pn")
    p_score.add_argument("outcomes", help="CSV of 1-based outcome indices with header 'outcome'")
    p_score.add_argument("--rules", default=DEFAULT_RULES)
    p_score.add_argument("--weights", default=None, help="comma-separated atom weights")
    p_score.add_argument("--out", default=None)
    p_score.set_defaults(func=cmd_score)

    p_div = sub.add_parser("divergence", help="divergence matrix between two density files")
    p_div.add_argument("p_file")
    p_div.add_argument("q_file")
    p_div.add_argument("--rules", default=DEFAULT_RULES)
    p_div.add_argument("--weights", default=None)
    p_div.add_argument("--out", default=None)
    p_div.set_defaults(func=cmd_divergence)

    p_verify = sub.add_parser("verify", help="run propriety/Euler/symmetry suites")
    p_verify.add_argument("--config", default=None, help="INI config with [rule ...] sections")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid-score", help="Hyvarinen score of a periodic grid density")
    p_grid.add_argument("density", help="CSV with one strictly positive value per line")
    p_grid.add_argument("--out", default=None)
    p_grid.set_defaults(func=cmd_grid_score)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"entroscore: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
