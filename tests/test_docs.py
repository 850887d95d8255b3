"""Documentation health tests (the CI docs job).

Four guarantees keep the reference pages from rotting:

* every intra-repo markdown link (and same-page/cross-page anchor)
  resolves,
* the ``python -m repro.explain`` CLI runs against a bundled app,
* doc-referenced runnable snippets execute: the README quickstart
  code block and the example script the inference docs point at,
* EXPERIMENTS.md's Fig. 9 table is what the benchmark harness prints.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose links must resolve: everything at the repo
#: root plus the whole docs/ tree.
DOC_FILES = sorted(REPO.glob("*.md")) + sorted((REPO / "docs").glob("*.md"))

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def _slug(heading: str) -> str:
    """GitHub's anchor slug for a heading."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {_slug(h) for h in _HEADING.findall(text)}


def _links(path: Path):
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


class TestMarkdownLinks:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_intra_repo_links_resolve(self, doc):
        for target in _links(doc):
            target, _, anchor = target.partition("#")
            dest = doc if not target else (doc.parent / target).resolve()
            assert dest.exists(), f"{doc.name}: broken link -> {target}"
            if anchor and dest.suffix == ".md":
                assert _slug(anchor) in _anchors(dest), (
                    f"{doc.name}: link to missing anchor "
                    f"{dest.name}#{anchor}")

    def test_readme_indexes_all_docs_pages(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for page in sorted((REPO / "docs").glob("*.md")):
            assert f"docs/{page.name}" in readme, (
                f"README.md does not index docs/{page.name}")


class TestChoosingFlags:
    """The README "Choosing flags" how-to cannot drift from the code:
    every ``AccProgram.run`` parameter and every ``CompileOptions``
    field must appear (backticked) in that section, and the section
    must not advertise flags that no longer exist."""

    @staticmethod
    def _section() -> str:
        text = (REPO / "README.md").read_text(encoding="utf-8")
        m = re.search(r"## Choosing flags\n(.*?)\n## ", text, re.DOTALL)
        assert m, "README.md lost its 'Choosing flags' section"
        return m.group(1)

    def test_every_run_parameter_is_documented(self):
        import dataclasses
        import inspect

        sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.api import AccProgram
            from repro.runtime.config import RunConfig
            params = [p for p in inspect.signature(
                AccProgram.run).parameters if p != "self"]
            params += [f.name for f in dataclasses.fields(RunConfig)]
        finally:
            sys.path.remove(str(REPO / "src"))
        section = self._section()
        missing = [p for p in params if f"`{p}`" not in section]
        assert not missing, (
            f"README 'Choosing flags' misses run() params: {missing}")

    def test_every_compile_option_is_documented(self):
        import dataclasses

        sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.translator.compiler import CompileOptions
            fields = [f.name for f in dataclasses.fields(CompileOptions)]
        finally:
            sys.path.remove(str(REPO / "src"))
        section = self._section()
        missing = [f for f in fields if f"`{f}`" not in section]
        assert not missing, (
            f"README 'Choosing flags' misses CompileOptions: {missing}")

    def test_retired_flags_are_not_advertised(self):
        section = self._section()
        for retired in ("engine", "require_vectorized", "fastpath",
                        "fuse_force"):
            assert f"`{retired}`" not in section, retired

    def test_documented_collective_modes_exist(self):
        sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.runtime.collectives import COLLECTIVE_MODES
        finally:
            sys.path.remove(str(REPO / "src"))
        section = self._section()
        for mode in COLLECTIVE_MODES:
            assert f'"{mode}"' in section, (
                f"README 'Choosing flags' misses collective mode {mode!r}")


class TestExperimentsFig9:
    """EXPERIMENTS.md's Fig. 9 block, and the prose numbers that quote
    it, are what ``python -m repro.bench`` prints."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.bench.harness import fig9

        return {m: fig9(m) for m in ("desktop", "supercomputer")}

    @staticmethod
    def _section() -> str:
        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        start = text.index("## Fig. 9")
        return text[start:text.index("\n## ", start + 1)]

    def test_block_is_the_printed_table(self, rows):
        from repro.bench.report import render_fig9

        printed = "\n\n".join(render_fig9(r, f"Fig. 9 ({m})")
                               for m, r in rows.items())
        block = re.search(r"```\n(.*?)```", self._section(), re.DOTALL)
        assert block is not None
        assert block.group(1).strip() == printed

    def test_prose_quotes_the_bfs_peak(self, rows):
        peak = max((r for rs in rows.values() for r in rs if r.app == "bfs"),
                   key=lambda r: r.system)
        prose = " ".join(self._section().split())
        assert (f"peaks at {100 * peak.system:.1f}% of the 1-GPU total"
                in prose)
        assert f"System {peak.system:.3f} on {peak.ngpus} GPUs" in prose


def _run(cmd, **kw):
    full_env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(cmd, cwd=REPO, env=full_env, text=True,
                          capture_output=True, timeout=600, **kw)


class TestExplainCLI:
    def test_module_runs_on_bundled_app(self):
        proc = _run([sys.executable, "-m", "repro.explain",
                     "--app", "stencil"])
        assert proc.returncode == 0, proc.stderr
        assert "stencil_L0" in proc.stdout

    def test_module_runs_json_no_infer(self):
        proc = _run([sys.executable, "-m", "repro.explain",
                     "--app", "md", "--json", "--no-infer"])
        assert proc.returncode == 0, proc.stderr
        assert '"loops"' in proc.stdout


class TestDocSnippets:
    def test_readme_quickstart_block_executes(self):
        """The first self-contained ```python block in README runs."""
        text = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        runnable = [b for b in blocks if "import repro" in b]
        assert runnable, "README.md lost its runnable quickstart block"
        sys.path.insert(0, str(REPO / "src"))
        try:
            exec(compile(runnable[0], "README.md", "exec"), {})
        finally:
            sys.path.remove(str(REPO / "src"))

    def test_host_source_snippet_is_current(self):
        """docs/PERFORMANCE.md "Host program" shows what the host emitter
        generates for the C function printed above it."""
        text = (REPO / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
        m = re.search(r"<!-- host-source-snippet: (\w+) -->\n```c\n(.*?)```"
                      r"\n+```python\n(.*?)```", text, re.DOTALL)
        assert m, "docs/PERFORMANCE.md lost its host-source snippet"
        func, c_source, shown = m.groups()
        sys.path.insert(0, str(REPO / "src"))
        try:
            import repro
            generated = repro.compile(c_source).host_source(func)
        finally:
            sys.path.remove(str(REPO / "src"))
        assert generated == shown

    def test_auto_localaccess_example_runs(self):
        """The example the inference docs reference, at a tiny size."""
        proc = _run([sys.executable, "examples/auto_localaccess.py",
                     "2048", "3"])
        assert proc.returncode == 0, proc.stderr
        assert "inferred placement matches" in proc.stdout
