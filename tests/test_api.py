"""Public API: the exported names and the README library example."""

import re
from pathlib import Path

import mimo_converge

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_API = [
    "ConfigError",
    "CorrelationSpec",
    "PRESETS",
    "PowerProfile",
    "Scenario",
    "SingularMatrixError",
    "StatSummary",
    "SweepPoint",
    "SweepResult",
    "build_preset",
    "limiting_moments",
    "link_gains",
    "run_scenario",
]


def test_all_is_the_pinned_list():
    assert mimo_converge.__all__ == PUBLIC_API
    assert all(hasattr(mimo_converge, name) for name in PUBLIC_API)


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "trials=2000" in code
    # the example may only import what the package exports
    imported = re.search(r"from mimo_converge import (.+)", code).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(PUBLIC_API)
    exec(code.replace("trials=2000", "trials=20"), {})
    # one gap per limit: ZF, the MF mean and each user's MF SINR per point
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == sum(2 + K for K in (10, 20, 50))
