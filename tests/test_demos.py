"""The narrative demo scripts must keep running cleanly."""

import subprocess
import sys
from pathlib import Path

import pytest

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


def test_readme_quickstart_snippet():
    # keep the README example honest
    import numpy as np

    from entroscore import (
        MeasureSpace,
        catalog_entropy,
        make_psr,
        score_divergence,
        verify_propriety,
    )

    space = MeasureSpace(np.ones(3))
    rule = make_psr(catalog_entropy("shannon", space))
    truth = space.density([0.5, 0.3, 0.2])
    report = space.density([0.4, 0.35, 0.25])
    assert score_divergence(rule, truth, report) > 0.0
    assert verify_propriety(rule, seed=42).passed
