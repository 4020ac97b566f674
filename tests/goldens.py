"""The byte-golden commands: one row per file under ``tests/data`` that pins a
command's output byte for byte.

Every golden test and the OpenBLAS gate read ``GOLDENS``.  Each word of a row's
argv that names a file names one under ``tests/data``, and the commands run with
``tests/data`` as the working directory.  A config's ``weights_file`` is opened
relative to the config's directory, so it does not depend on that.

Run as a script, with ``src`` on the path (``PYTHONPATH=src python
tests/goldens.py``), it rewrites every golden in place and prints, for each file,
the exit code, the old and new sha256 and the number of changed lines.
"""

import difflib
import hashlib
import os
import sys
from pathlib import Path
from typing import NamedTuple

from entroscore.cli import main

DATA = Path(__file__).parent / "data"


class Golden(NamedTuple):
    file: str  # the golden output, under tests/data
    argv: tuple[str, ...]  # the command, without --out
    code: int  # its exit code


GOLDENS = {
    # the default rules on 10 forecasts over 3 unit atoms
    "scores": Golden("scores_golden.csv", ("score", "forecasts_10.csv", "outcomes_10.csv"), 0),
    # -0.0 and 0.0 cells, and outcomes on zero atoms (rows 2 and 4: -inf log scores),
    # take the zero-atom paths of pow, log and the pairing; pinned before those paths
    "scores-signed-zero": Golden("scores_signed_zero_golden.csv",
                                 ("score", "forecasts_signed_zero.csv", "outcomes_signed_zero.csv",
                                  "--weights", "0.5,1,2,0.25"), 0),
    # 64 rows x 40 weighted atoms (numpy seed 20261018): half the atoms of each row
    # are zero and every eighth outcome falls on one (a -inf log score).  Pinned
    # before the array row sums, which it is large enough to reach.
    "scores-wide": Golden("scores_wide_golden.csv",
                          ("score", "forecasts_wide.csv", "outcomes_wide.csv", "--weights",
                           "3.53,1.698,0.378,3.003,3.471,3.137,2.749,0.32,0.259,3.885,3.507,2.972,0.834,1.173,"
                           "0.692,3.176,3.112,0.903,0.352,3.318,0.759,0.509,0.697,0.786,1.787,3.436,2.076,3.403,"
                           "1.182,0.333,2.9,0.449,2.086,2.315,2.553,2.715,2.517,3.49,2.164,3.107"), 0),
    # the matrix of the 10 forecasts against themselves has inf cells
    "divergence": Golden("divergence_golden.csv", ("divergence", "forecasts_10.csv", "forecasts_10.csv"), 0),
    # the grid density has a blank line
    "grid-score": Golden("grid_score_golden.csv", ("grid-score", "grid_density_48.txt"), 0),
    # weighted atoms, every catalog rule plus linear, a probe on each domain kind;
    # linear fails propriety, so the exit code is 1
    "verify": Golden("verify_golden.json", ("verify", "--config", "verify_3.ini"), 1),
    # 20 weighted atoms, where a pairwise row sum and a left-to-right one round
    # differently: the Euler cone points must keep rng.dirichlet's bits.  The
    # linear rule fails propriety, so the exit code is 1.
    "verify-20": Golden("verify_20_golden.json", ("verify", "--config", "verify_20.ini"), 1),
    # the fisher rule, the Hyvarinen rule's entropy, on a periodic grid of 8 equal atoms
    "verify-fisher": Golden("verify_fisher_golden.json", ("verify", "--config", "verify_fisher.ini"), 0),
}


def run_goldens(rows, out_dir) -> list[int]:
    """Run each row, writing its output to ``out_dir / row.file``; their exit codes.

    The caller makes ``tests/data`` the working directory.
    """
    return [main([*row.argv, "--out", str(Path(out_dir) / row.file)]) for row in rows]


def _changed_lines(old: bytes, new: bytes) -> int:
    blocks = difflib.SequenceMatcher(None, old.splitlines(), new.splitlines(), autojunk=False).get_opcodes()
    return sum(max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in blocks if tag != "equal")


def regenerate() -> int:
    """Rewrite every golden in place; 1 if an exit code differs from its row's, else 0."""
    rows = list(GOLDENS.values())
    before = [(DATA / row.file).read_bytes() for row in rows]
    here = os.getcwd()
    os.chdir(DATA)
    try:
        codes = run_goldens(rows, DATA)
    finally:
        os.chdir(here)
    for row, code, old in zip(rows, codes, before):
        new = (DATA / row.file).read_bytes()
        expected = "" if code == row.code else f" (the table says {row.code})"
        print(f"{row.file}: exit {code}{expected}, sha256 {hashlib.sha256(old).hexdigest()} -> "
              f"{hashlib.sha256(new).hexdigest()}, {_changed_lines(old, new)} changed lines")
    return int(codes != [row.code for row in rows])


if __name__ == "__main__":
    sys.exit(regenerate())
