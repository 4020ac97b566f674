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
line of any fault.  Floats are written with exactly the bytes ``repr`` gives them
(so ``inf``/``-inf``), by the array formatter ``shortest.format_rows``; ``-0.0``
as ``0.0``.
Exit codes: 0 success, 1 verification failure, 2 malformed input or config
(or a ``verify`` rule whose scores leave the float range on its sample points),
3 invalid density rows, rows whose scores (or Fisher entropy) leave the float range, or rows with a
zero atom under ``fisher``, 4 unknown rule, or one its space cannot carry (``fisher`` needs 4+ equal atoms).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import errno
import io
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .bregman import (
    ASYMMETRIC_WITH_WITNESS,
    SYMMETRIC_GENERALIZED_QUADRATIC,
    symmetry_defect,
)
from .entropies import catalog_entropy, catalog_symmetric, parse_rule_spec
from .errors import ConstructionError, EntroscoreError
from .geometry import ConvexDomainSpec, subdifferential_probe
from .grid import GridDensity, PeriodicGrid, fisher_entropy, hyvarinen_score
from .measure import MeasureSpace, fsum_rows, pair_rows, require_density_rows, require_float_range
from .sampling import _shared_draws
from .scoring import linear_score, make_psr, score_divergence_rows, verify_euler, verify_propriety
from .shortest import format_rows

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


# Rules that are not their entropy's PSR: name -> (the catalog entropy the suites report against,
# the rule on a space).  ``linear`` is the stock improper rule; its self-expected score is quadratic.
_ALIASES = {"linear": ("quadratic", linear_score)}


def build_rule(spec: str, space: MeasureSpace):
    """Resolve a rule spec like ``power(1.5)`` to (entropy, scoring rule)."""
    try:
        name, gamma = parse_rule_spec(spec)
        if name in _ALIASES:
            if gamma is not None:
                raise ConstructionError(f"rule {name!r} takes no parameter")
            entropy_name, rule = _ALIASES[name]
            return catalog_entropy(entropy_name, space), rule(space)
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


def _named(path: str) -> str:
    """``path`` itself; exit 2 if it is empty, since no file has that name."""
    if not path:
        raise CliError(EXIT_INPUT, "an empty path names no file")
    return path


def _read_text(path: str) -> str:
    """The file's text with its line endings as written; exit 2 if unreadable or not UTF-8."""
    try:
        with open(_named(path), "rb") as handle:
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
    """``text`` to stdout, or to the file ``out``; exit 2 if that cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(_named(out), "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"{out}: {exc.strerror or exc}") from None


def _require_writable(out: str | None) -> None:
    """Exit 2 as :func:`_write_text` would, before any work, unless ``out`` is
    unset, a writable file, or a new name in a writable directory.  Opens,
    creates and truncates nothing."""
    if out is None:
        return
    exists = os.path.exists(_named(out))
    target = out if exists else os.path.dirname(out) or "."
    try:
        os.stat(target)  # a missing parent, or one below a file, fails as open would
        if os.path.isdir(target) == exists:  # out is a directory, or its parent is not one
            raise OSError(errno.EISDIR if exists else errno.ENOTDIR, "")
        if not os.access(target, os.W_OK):
            raise OSError(errno.EACCES, "")
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"{out}: {os.strerror(exc.errno)}") from None


def _csv_line(fields: list[str]) -> str:
    """One CSV line through ``csv.writer``, which quotes any field that needs it."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()


def _table_lines(labels, table: np.ndarray) -> list[str]:
    """One CSV line per row of ``table``: its label (CSV text that ends in a comma,
    or empty), then the cells with the bytes ``repr`` gives them, from the array
    formatter, -0.0 as 0.0.  A float's repr never needs quoting."""
    return list(map(str.__add__, labels, format_rows(table + 0.0).splitlines(keepends=True)))


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
    labels = [f"{row_id},{outcome}," for row_id, outcome in enumerate(outcomes, start=1)] + ["mean,,"]
    lines = [_csv_line(header), *_table_lines(labels, np.vstack([table, means])),
             "inf_count,," + ",".join(map(str, np.isinf(table).sum(axis=0).tolist())) + "\n"]
    _write_text("".join(lines), args.out)
    return EXIT_OK


# -- divergence ----------------------------------------------------------------

# Terms per block of divergence cells: enough to reach the array row sums,
# few enough that a block's (rows x q rows x atoms) product stays small.
_DIVERGENCE_BLOCK_TERMS = 2 ** 16


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
        with _rows_of(args.q_file):
            q_scores = rule.score_rows(right)
        label = _csv_line([spec])[:-1]  # the spec as csv.writer quotes it
        for start in range(0, len(left), block):  # exact row sums: no blocking moves a bit
            stop = min(start + block, len(left))
            cells = score_divergence_rows(left[start:stop, None], p_scores[start:stop, None], q_scores,
                                          space.weights)
            lines += _table_lines([f"{label},p{i + 1}," for i in range(start, stop)], cells)
    _write_text("".join(lines), args.out)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


_PROBE_DOMAINS = {"orthant": ConvexDomainSpec.nonnegative_orthant, "simplex": ConvexDomainSpec.simplex,
                  "whole_space": ConvexDomainSpec.whole_space}


def _checked(cast, flaw, fault: str):
    """A key's parser: ``cast`` its text; a value with a ``flaw`` raises ValueError(``fault``, formatted)."""
    def parse(text):
        value = cast(text)
        if flaw(value):
            raise ValueError(fault.format(value, flaw=flaw(value)))
        return value
    return parse


def _probe_settings(values: dict) -> dict:
    """A probe's keys over their defaults; ValueError if it has no candidates or no expected verdict."""
    probe = {"entropy": "", "domain": "orthant", "point": [], "candidates": [],
             "expect_verified": [], "expect_rejected": [], **values}
    if not probe["candidates"]:
        raise ValueError("no candidates to probe")
    if not (probe["expect_verified"] or probe["expect_rejected"]):
        raise ValueError("no expect_verified or expect_rejected: the probe would pass on nothing")
    return probe


# Settings that [verify] sets for every rule, and a [rule SPEC] section or a flag may override: key -> parser.
_KNOBS = {
    "seed": _checked(int, lambda v: v < 0, "seed must be nonnegative"),
    "samples": _checked(int, lambda v: v < 1, "samples must be at least 1"),
    **{key: _checked(float, lambda v: not 0.0 <= v < math.inf, f"{key} must be finite and nonnegative")
       for key in ("propriety_tol", "euler_tol")},
}
# The sections of a config: kind -> (whether a name follows the kind, key -> parser, keys -> settings).
_SECTIONS = {
    "verify": (False, {**_KNOBS, "weights": _parse_vector,
                       "weights_file": _checked(str, lambda path: not path, "weights_file names no file"),
                       "suites": _checked(lambda text: [s.strip() for s in text.split(",") if s.strip()],
                                          lambda suites: ", ".join(sorted(set(suites) - set(DEFAULT_SUITES))),
                                          "unknown suites: {flaw}")}, dict),
    "rule": (True, _KNOBS, dict),
    "probe": (True, {"entropy": str, "point": _parse_vector,  # entropy: a rule spec, as in [rule SPEC]
                     "domain": _checked(str, lambda name: name not in _PROBE_DOMAINS, "unknown domain {!r}"),
                     **dict.fromkeys(("candidates", "expect_verified", "expect_rejected"), _parse_vector_list)},
              _probe_settings),
}


def _read_section(section) -> tuple[str, str, dict]:
    """A config section's kind, name and settings, each key read by its parser in ``_SECTIONS``."""
    kind, _, name = section.name.partition(" ")
    if kind not in _SECTIONS or _SECTIONS[kind][0] != bool(name.strip()):
        raise ValueError("unknown section")
    _, parsers, settings = _SECTIONS[kind]
    if unknown := sorted(set(section) - set(parsers)):
        raise ValueError(f"unknown keys: {', '.join(unknown)}")
    return kind, name.strip(), settings({key: parsers[key](section[key]) for key in section})


def load_verify_config(args):
    """Merge the INI config (if any) with command-line overrides."""
    settings = {"seed": 42, "samples": 1000, "weights": [1.0, 1.0, 1.0], "propriety_tol": 1e-10,
                "euler_tol": 1e-10, "suites": list(DEFAULT_SUITES)}
    read = {kind: [] for kind in _SECTIONS}  # kind -> [(name, settings)]
    if args.config:
        parser = configparser.ConfigParser(default_section="")  # no header names "": [DEFAULT] lends no keys
        try:
            parser.read_file(io.StringIO(_read_text(args.config), newline=None), args.config)
        except configparser.MissingSectionHeaderError as exc:  # a ParsingError, with no errors list
            raise CliError(EXIT_INPUT, f"{args.config}:{exc.lineno}: no section header") from None
        except configparser.ParsingError as exc:  # the first of the lines it could not read
            raise CliError(EXIT_INPUT, f"{args.config}:{exc.errors[0][0]}: expected key = value") from None
        except configparser.DuplicateSectionError as exc:
            raise CliError(EXIT_INPUT, f"{args.config}:{exc.lineno}: [{exc.section}]: duplicate section") from None
        except configparser.DuplicateOptionError as exc:
            raise CliError(EXIT_INPUT,
                           f"{args.config}:{exc.lineno}: [{exc.section}]: duplicate key {exc.option}") from None
        for title in parser.sections():
            try:  # bad numbers raise ValueError, a stray '%' an interpolation error
                kind, name, values = _read_section(parser[title])
                if {"weights", "weights_file"} <= values.keys():  # neither may be ignored
                    raise ValueError("weights and weights_file are both set")
                if any(name == seen for seen, _ in read[kind]):  # titles may differ in spacing
                    raise ValueError("duplicate section")
            except (configparser.Error, ValueError) as exc:
                raise CliError(EXIT_INPUT, f"{args.config}: [{title}]: {exc}") from None
            read[kind].append((name, values))
        for _, values in read["verify"]:
            settings.update(values)
        if "weights_file" in settings:  # a path relative to the config's directory; an absolute one joins as itself
            settings["weights"] = read_values(os.path.join(os.path.dirname(args.config),
                                                           settings.pop("weights_file")))
        if not read["rule"]:
            raise CliError(EXIT_INPUT, f"{args.config}: no [rule ...] sections configured")
        if not settings["suites"] and not read["probe"]:
            raise CliError(EXIT_INPUT, f"{args.config}: nothing to verify: no suites and no probes")
    else:
        read["rule"] = [(spec, {}) for spec in _parse_rule_list(DEFAULT_RULES)]
    flags = {"seed": args.seed, "samples": args.samples, "propriety_tol": args.tol, "euler_tol": args.tol}
    try:
        settings.update({key: _KNOBS[key](value) for key, value in flags.items() if value is not None})
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from None
    return settings, read["rule"], read["probe"]


def _run_probe(name: str, probe: dict, space: MeasureSpace, seed: int) -> dict:
    try:  # the probe refuses a point outside its domain
        entropy_name, gamma = parse_rule_spec(probe["entropy"])
        entropy = catalog_entropy(entropy_name, space, gamma=gamma)
        domain = _PROBE_DOMAINS[probe["domain"]](space)
        point = space.cone(probe["point"])
        candidates = [space.dual(v) for v in probe["candidates"]]
        report = subdifferential_probe(entropy, domain, point, candidates, seed=seed).as_dict()
    except EntroscoreError as exc:
        raise CliError(EXIT_INPUT, f"probe {name!r}: {exc}") from None
    verified, rejected = report["verified"], [r["candidate"] for r in report["rejected"]]
    report["pass"] = (all(v in verified for v in probe["expect_verified"])
                      and all(v in rejected for v in probe["expect_rejected"]))
    return report


def _run_suite(suite: str, entropy, rule, knobs: dict) -> dict:
    seed, samples = knobs["seed"], knobs["samples"]
    if suite == "propriety":
        return verify_propriety(rule, seed=seed, samples=samples, tol=knobs["propriety_tol"]).as_dict()
    if suite == "euler":
        return verify_euler(rule, entropy, seed=seed, samples=samples, tol=knobs["euler_tol"]).as_dict()
    report = symmetry_defect(entropy, seed=seed, samples=min(samples, 500)).as_dict()
    # an alias's entropy is a catalog one
    symmetric = catalog_symmetric(*parse_rule_spec(entropy.name), entropy.domain.space.size)
    report["expected"] = SYMMETRIC_GENERALIZED_QUADRATIC if symmetric else ASYMMETRIC_WITH_WITNESS
    report["pass"] = report["classification"] == report["expected"]
    return report


def cmd_verify(args) -> int:
    settings, rule_specs, probes = load_verify_config(args)
    space = _measure_space(settings["weights"])
    # validate every rule before running anything
    rules = [(spec, overrides, *build_rule(spec, space)) for spec, overrides in rule_specs]

    config = {key: settings[key] for key in ("seed", "samples", "weights", "suites")}  # the report sorts its keys
    report = {"config": {**config, "rules": [spec for spec, _ in rule_specs]}, "rules": {}, "probes": {}}
    overall = True
    with _shared_draws():  # rules that share seed and samples share their sample points
        for spec, overrides, entropy, rule in rules:
            knobs = {**settings, **overrides}
            entry = {}
            for suite in DEFAULT_SUITES:
                if suite in settings["suites"]:
                    try:
                        entry[suite] = _run_suite(suite, entropy, rule, knobs)
                    except EntroscoreError as exc:  # e.g. scores past the float range on its sample points
                        raise CliError(EXIT_INPUT, f"rule {spec!r}: {suite} suite: {exc}") from None
                    overall &= entry[suite]["pass"]
            report["rules"][spec] = entry
    for name, probe in probes:
        report["probes"][name] = _run_probe(name, probe, space, settings["seed"])
        overall &= report["probes"][name]["pass"]
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

    out = argparse.ArgumentParser(add_help=False)  # the flags of every subcommand that writes
    out.add_argument("--out", default=None)
    rules = argparse.ArgumentParser(add_help=False, parents=[out])  # ... and of those that score
    rules.add_argument("--rules", default=DEFAULT_RULES)
    rules.add_argument("--weights", default=None, help="comma-separated atom weights")

    p_score = sub.add_parser("score", parents=[rules], help="score forecast rows against observed outcomes")
    p_score.add_argument("forecasts", help="CSV of probability vectors with header p1..pn")
    p_score.add_argument("outcomes", help="CSV of 1-based outcome indices with header 'outcome'")
    p_score.set_defaults(func=cmd_score)

    p_div = sub.add_parser("divergence", parents=[rules], help="divergence matrix between two density files")
    p_div.add_argument("p_file")
    p_div.add_argument("q_file")
    p_div.set_defaults(func=cmd_divergence)

    p_verify = sub.add_parser("verify", parents=[out], help="run propriety/Euler/symmetry suites")
    p_verify.add_argument("--config", default=None, help="INI config with [rule ...] sections")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid-score", parents=[out], help="Hyvarinen score of a periodic grid density")
    p_grid.add_argument("density", help="CSV with one strictly positive value per line")
    p_grid.set_defaults(func=cmd_grid_score)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _require_writable(args.out)
        return args.func(args)
    except CliError as exc:
        print(f"entroscore: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
