"""Command-line surface: forecast scoring, divergence matrices, verification.

Subcommands::

    entroscore score forecasts.csv outcomes.csv [--rules ...] [--out ...]
    entroscore divergence p.csv q.csv [--rules ...] [--out ...]
    entroscore verify [--config cfg.ini] [--seed N] [--samples N] [--tol X]
    entroscore grid-score density.csv [--out ...]

Input files are UTF-8.  CSV files carry a header row (forecast columns
``p1..pn``, outcome column ``outcome``; grid densities are headerless, one
value per line).  A forecast cell is anything Python ``float()`` accepts
(surrounding whitespace, ``1_0``, ``inf``, ``nan``, non-ASCII digits);
quoted cells and CRLF or CR line endings are read as ``csv.reader`` reads
them.  A plain forecast file (ASCII, no quote, no CR, no blank line) is
parsed by numpy's C reader; ``csv.reader`` reads any other, and names the
line of any fault.  Floats are rendered with shortest round-trip ``repr`` (so
``inf``/``-inf``), ``-0.0`` as ``0.0``.
Exit codes: 0 success, 1 verification failure, 2 malformed input or config
(or a ``verify`` rule whose scores leave the float range on its sample
points), 3 invalid density rows or rows whose scores (or Fisher terms) leave the float range,
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
from .measure import (MeasureSpace, fsum_rows, pair_rows, quiet_floats, require_density_rows,
                      require_float_range)
from .sampling import _shared_draws
from .scoring import linear_score, make_psr, verify_euler, verify_propriety

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


def _read_text(path: str) -> str:
    """The file's text with its line endings as written; exit 2 if unreadable or not UTF-8."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CliError(EXIT_INPUT, f"{path}:{lineno}: not UTF-8 text") from None


def _csv_rows(path: str, text: str) -> list[list[str]]:
    """The rows ``csv.reader`` reads from ``text``, as from the file opened with ``newline=""``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:  # a field past csv.field_size_limit()
        raise CliError(EXIT_INPUT, f"{path}:{reader.line_num}: {exc}") from None


def _is_forecast_header(cells: list[str]) -> bool:
    return bool(cells) and [cell.strip() for cell in cells] == [f"p{i + 1}" for i in range(len(cells))]


def _plain_matrix(text: str) -> np.ndarray | None:
    """The forecast matrix of ``text`` from numpy's C reader, or None.

    Without a quote or a CR, ``csv.reader`` splits each line as
    ``line.split(",")``, and ``np.loadtxt`` parses each cell as ``float()``
    does, with four exceptions that give None: non-ASCII text; NUL or
    ``\x1c``-``\x1f``, which ``float()`` rejects and the C reader may strip
    as whitespace; a blank line, which ``csv.reader`` reads as no cells and
    ``np.loadtxt`` skips; and a line longer than ``csv.field_size_limit()``,
    which may hold a field ``csv.reader`` rejects.  Otherwise a valid file is
    exactly one whose data lines read as n cells each.  On None the caller
    reads the file with ``csv.reader``, to accept it or to name the line at
    fault.
    """
    if not text.isascii() or any(c in text for c in '"\r\x00\x1c\x1d\x1e\x1f'):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final line ending
    if len(lines) < 2:
        return None
    header, body = lines[0].split(","), lines[1:]
    if (not _is_forecast_header(header) or not all(map(str.strip, body))
            or max(map(len, body)) > csv.field_size_limit()):
        return None
    try:
        matrix = np.loadtxt(body, delimiter=",", comments=None, quotechar=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    return matrix if matrix.shape == (len(body), len(header)) else None


def read_forecasts(path: str) -> np.ndarray:
    text = _read_text(path)
    matrix = _plain_matrix(text)
    if matrix is not None:
        return matrix
    rows = _csv_rows(path, text)
    if not rows:
        raise CliError(EXIT_INPUT, f"{path}:1: empty file")
    if not _is_forecast_header(rows[0]):
        raise CliError(EXIT_INPUT, f"{path}:1: header must be p1..pn")
    n = len(rows[0])
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
    rows = _csv_rows(path, _read_text(path))
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


def read_values(path: str) -> list[float]:
    """The numbers in a file with one value per line; blank lines are skipped."""
    values = []
    for lineno, line in enumerate(io.StringIO(_read_text(path), newline=None), start=1):
        if line.strip():
            try:
                values.append(float(line))
            except ValueError:
                raise CliError(EXIT_INPUT, f"{path}:{lineno}: non-numeric value") from None
    return values


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
        raise ValueError(f"bad number list {text!r}") from None


def _parse_vector_list(text: str) -> list[list[float]]:
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def _measure_space(weights: list[float]) -> MeasureSpace:
    try:
        return MeasureSpace(weights)
    except EntroscoreError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from None


def _space_and_rules(args, n: int):
    """The space of ``--weights`` (unit weights by default) and the ``--rules`` on it."""
    try:
        weights = _parse_vector(args.weights) if args.weights else [1.0] * n
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from None
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


def _csv_line(fields: list[str]) -> str:
    """One CSV line through ``csv.writer``, which quotes any field that needs it."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()


def _table_lines(labels, table: np.ndarray) -> list[str]:
    """One CSV line per row of ``table``: its label (CSV text that ends in a comma,
    or empty), then the cells as shortest round-trip reprs, -0.0 as 0.0.  A
    float's repr never needs quoting."""
    return [label + ",".join(map(repr, row.tolist())) + "\n" for label, row in zip(labels, table + 0.0)]


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
    table = np.empty((len(outcomes), 2 * len(rules)))
    observed = np.arange(len(outcomes)), np.array(outcomes) - 1
    for k, (spec, rule) in enumerate(rules):
        header.extend([f"{spec}_score", f"{spec}_expected"])
        with _rows_of(args.forecasts):
            scores = rule.score_rows(forecasts)
            table[:, 2 * k + 1] = require_float_range(f"{spec} expected scores",
                                                      pair_rows(forecasts, scores, space.weights))
        table[:, 2 * k] = scores[observed]

    finite = np.isfinite(table)
    counts = finite.sum(axis=0)
    # the mean of each column's finite cells: their exact sum rounded once, over their count
    means = np.where(counts > 0, fsum_rows(np.where(finite, table, 0.0).T) / np.maximum(counts, 1), math.nan)
    labels = (f"{row_id},{outcome}," for row_id, outcome in enumerate(outcomes, start=1))
    lines = [_csv_line(header), *_table_lines(labels, table), *_table_lines(["mean,,"], means[None]),
             "inf_count,," + ",".join(map(str, np.isinf(table).sum(axis=0).tolist())) + "\n"]
    _write_text("".join(lines), args.out)
    return EXIT_OK


# -- divergence ----------------------------------------------------------------

# Terms per block of divergence cells: enough to reach the array row sums,
# few enough that the repeated p rows and tiled q scores stay small.
_DIVERGENCE_BLOCK_TERMS = 2 ** 16


@quiet_floats
def _divergence_cells(p_rows, self_pairs, q_scores, weights) -> np.ndarray:
    """Each ``pair(p, S(p)) - pair(p, S(q))``, p-major; exact row sums, so no blocking moves a bit."""
    m = len(q_scores)
    return np.repeat(self_pairs, m) - pair_rows(np.repeat(p_rows, m, axis=0),
                                                np.tile(q_scores, (len(p_rows), 1)), weights)


def cmd_divergence(args) -> int:
    left = read_forecasts(args.p_file)
    right = read_forecasts(args.q_file)
    if left.shape[1] != right.shape[1]:
        raise CliError(EXIT_INPUT, "the two density files have different widths")
    n = left.shape[1]
    space, rules = _space_and_rules(args, n)
    left = build_densities(left, space, args.p_file)
    right = build_densities(right, space, args.q_file)

    lines = [_csv_line(["rule", "p"] + [f"q{j + 1}" for j in range(len(right))])]
    block = max(1, _DIVERGENCE_BLOCK_TERMS // right.size)
    for spec, rule in rules:
        with _rows_of(args.p_file):
            p_scores = rule.score_rows(left)
        self_pairs = pair_rows(left, p_scores, space.weights)
        with _rows_of(args.q_file):
            q_scores = rule.score_rows(right)
        label = _csv_line([spec])[:-1]  # the spec as csv.writer quotes it
        for start in range(0, len(left), block):
            stop = min(start + block, len(left))
            cells = _divergence_cells(left[start:stop], self_pairs[start:stop], q_scores, space.weights)
            lines += _table_lines([f"{label},p{i + 1}," for i in range(start, stop)],
                                  cells.reshape(stop - start, -1))
    _write_text("".join(lines), args.out)
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
        settings["weights"] = read_values(section["weights_file"])
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
            parser.read_file(io.StringIO(_read_text(args.config), newline=None), args.config)
        except configparser.Error as exc:
            raise CliError(EXIT_INPUT, f"{args.config}: {exc}") from None
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
                        "point": _parse_vector(section.get("point", "")),
                        "candidates": _parse_vector_list(section.get("candidates", "")),
                        "expect_verified": _parse_vector_list(section.get("expect_verified", "")),
                        "expect_rejected": _parse_vector_list(section.get("expect_rejected", "")),
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
        point = space.cone(probe["point"])
        candidates = [space.dual(v) for v in probe["candidates"]]
        if not domain.contains(point):
            raise CliError(EXIT_INPUT, f"{where}: point is outside the {probe['domain']} domain")
        report = subdifferential_probe(entropy, domain, point, candidates, seed=seed).as_dict()
    except EntroscoreError as exc:
        raise CliError(EXIT_INPUT, f"{where}: {exc}") from None
    passed = True
    if probe["expect_verified"]:
        verified = {tuple(v) for v in report["verified"]}
        passed &= all(tuple(v) in verified for v in probe["expect_verified"])
    if probe["expect_rejected"]:
        rejected = {tuple(r["candidate"]) for r in report["rejected"]}
        passed &= all(tuple(v) in rejected for v in probe["expect_rejected"])
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
    with _shared_draws():  # rules that share seed and samples share their sample points
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
    values = read_values(args.density)
    if len(values) < 4:
        raise CliError(EXIT_INPUT, f"{args.density}: a periodic grid needs at least 4 values")
    grid = PeriodicGrid(len(values))
    with _rows_of(args.density):
        density = GridDensity(grid, values)
        table = np.column_stack([grid.points, hyvarinen_score(density).values])
        lines = [_csv_line(["x", "score"]), *_table_lines([""] * len(values), table),
                 *_table_lines(["fisher_entropy,"], np.array([[fisher_entropy(density)]]))]
    _write_text("".join(lines), args.out)
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
