"""Packaging metadata: the ``repro`` console script and version plumbing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent

if sys.version_info >= (3, 11):
    import tomllib
else:  # pragma: no cover - 3.10 fallback
    tomllib = None


@pytest.fixture(scope="module")
def pyproject() -> dict:
    path = ROOT / "pyproject.toml"
    if tomllib is None:
        pytest.skip("tomllib needs Python >= 3.11")
    return tomllib.loads(path.read_text())


class TestConsoleScript:
    def test_entry_point_declared(self, pyproject):
        assert pyproject["project"]["scripts"]["repro"] == "repro.cli:main"

    def test_entry_point_resolves(self):
        # The declared target must be exactly the callable we test below.
        import repro.cli

        assert repro.cli.main is main

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_is_dynamic_from_package(self, pyproject):
        assert "version" in pyproject["project"]["dynamic"]
        attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        assert attr == "repro.__version__"

    def test_numpy_floor_declared(self, pyproject):
        # The simulator's spill count popcounts with np.bitwise_count.
        assert pyproject["project"]["dependencies"] == ["numpy>=2.0"]

    def test_packages_found_under_src(self, pyproject):
        assert pyproject["tool"]["setuptools"]["packages"]["find"]["where"] == [
            "src"
        ]


class TestImportFootprint:
    def test_import_repro_loads_no_xp_module(self):
        # The experiment runner is imported on first use (calibrate,
        # tune, xp); a plain ``import repro`` must not pay for it.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        probe = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.xp' or m.startswith('repro.xp.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"
