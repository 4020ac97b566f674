"""The narrative demo scripts must keep running cleanly."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from entroscore.cli import main

from conftest import child_env

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)], env=child_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()  # each demo narrates something


def _readme_block(language):
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    start = text.index(f"```{language}\n") + len(language) + 4
    return textwrap.dedent(text[start:text.index("```", start)])


def test_readme_quickstart_snippet():
    # run the README's own example, not a copy of it
    names = {}
    exec(_readme_block("python"), names)
    rule, truth, report = names["rule"], names["truth"], names["report"]
    assert names["score_divergence"](rule, truth, report) > 0.0
    assert names["verify_propriety"](rule, seed=42).passed


def test_readme_verify_config(tmp_path):
    # the INI example exits 1: only the propriety suite of linear fails, the probe passes
    config = tmp_path / "readme.ini"
    config.write_text(_readme_block("ini"))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = [(rule, suite) for rule, suites in report["rules"].items()
              for suite, result in suites.items() if not result["pass"]]
    assert failed == [("linear", "propriety")]
    assert report["probes"]["corner"]["pass"] is True
