"""The docs stay present and syntactically runnable (cheap tier-1 guard).

CI's ``docs-smoke`` job *executes* every fenced python block via
``tools/docs_smoke.py``; here we keep the fast invariants in the main
suite: the guide set exists, the README links into it, every block
compiles, and the smoke harness itself keeps finding blocks.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import docs_smoke  # noqa: E402

GUIDES = ("architecture.md", "serving.md", "benchmarking.md")


def test_guide_set_exists():
    for name in GUIDES:
        assert (ROOT / "docs" / name).is_file(), name


def test_readme_links_into_the_guides():
    readme = (ROOT / "README.md").read_text()
    for name in GUIDES:
        assert f"docs/{name}" in readme, name


@pytest.mark.parametrize(
    "path", docs_smoke.doc_files(), ids=lambda p: p.name
)
def test_every_python_block_compiles(path: Path):
    blocks = docs_smoke.extract_blocks(path)
    assert blocks, f"{path.name} has no runnable python examples"
    for i, block in enumerate(blocks):
        compile(block, f"{path.name}[block {i + 1}]", "exec")


def test_extractor_sees_only_python_fences(tmp_path):
    doc = tmp_path / "sample.md"
    doc.write_text(
        "```python\nx = 1\n```\n"
        "```sh\nrm -rf /\n```\n"
        "```python\n# doc: no-run\ny = undefined_name\n```\n"
    )
    blocks = docs_smoke.extract_blocks(doc)
    assert blocks == ["x = 1\n", "# doc: no-run\ny = undefined_name\n"]
    assert docs_smoke.runnable_source(blocks) == "x = 1\n"


def _span_names() -> set[str]:
    """Name literals of every ``span("…")`` call under ``src/repro``."""
    import ast

    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            first = node.args[0]
            if called == "span" and isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                names.add(first.value)
    return names


def test_every_emitted_span_is_documented():
    names = _span_names()
    assert "pool.fork_map" in names  # the scan itself still finds spans
    doc = (ROOT / "docs" / "observability.md").read_text()
    missing = sorted(n for n in names if f"`{n}`" not in doc)
    assert not missing, f"spans missing from docs/observability.md: {missing}"
