"""The package root is the library API: the names the README's Library
section and the benchmark runner import from `mhhastar` resolve there, and
the root exports nothing else. Internals are imported from their modules."""

from __future__ import annotations

import ast
import inspect
import pathlib
import re

import mhhastar

ROOT = pathlib.Path(__file__).resolve().parent.parent

LIBRARY_API = {
    "Pose", "VehicleGeometry", "ObstacleSet", "GridSpec", "Scenario", "ScenarioError",
    "SpotSpec", "load_scenario", "save_scenario", "validate",
    "SearchConfig", "PenaltyConfig", "PlanResult", "Termination", "SearchLimitError",
    "mhha_star", "hybrid_a_star", "render_svg", "Arc", "Gear",
}


def root_imports(source: str) -> set[str]:
    """Names of every `from mhhastar import ...` in a Python source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "mhhastar" and node.level == 0
        for alias in node.names
    }


def library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_root_exports_exactly_the_library_api():
    exported = {
        name
        for name, value in vars(mhhastar).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == LIBRARY_API


def test_readme_library_block_imports_resolve_from_the_root():
    blocks = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    names = set().union(*map(root_imports, blocks))
    assert {"mhha_star", "hybrid_a_star", "load_scenario"} <= names
    assert names <= LIBRARY_API
    for name in names:
        assert hasattr(mhhastar, name), name


def test_readme_library_section_lists_the_root_api():
    paragraph = re.search(r"The package root exports(.*?)\n\n", library_section(), re.S)[1]
    listed = set(re.findall(r"`(\w+)`", paragraph))
    assert listed == LIBRARY_API


def test_benchmark_runner_imports_resolve_from_the_root():
    names = root_imports((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    assert names == {"SearchLimitError", "Termination", "hybrid_a_star", "mhha_star"}
    for name in names:
        assert hasattr(mhhastar, name), name
