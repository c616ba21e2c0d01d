"""Documentation integrity: the docs must reference real artifacts."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design_text():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments_text():
    return (ROOT / "EXPERIMENTS.md").read_text()


class TestDocumentsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/ARCHITECTURE.md", "pyproject.toml"],
    )
    def test_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 200, name


class TestDesignReferences:
    def test_benchmark_targets_exist(self, design_text):
        """Every benchmarks/*.py file DESIGN.md names must exist."""
        referenced = set(re.findall(r"benchmarks/\w+\.py", design_text))
        assert referenced, "DESIGN.md should name benchmark targets"
        for target in referenced:
            assert (ROOT / target).exists(), target

    def test_modules_exist(self, design_text):
        """Every repro.x.y module path in the inventory must import."""
        import importlib

        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", design_text))
        assert len(modules) >= 15
        for module in modules:
            importlib.import_module(module)

    def test_paper_check_recorded(self, design_text):
        assert "matches" in design_text.lower()
        assert "SIGMOD 2003" in design_text

    def test_every_table_and_figure_indexed(self, design_text):
        for artifact in ("Fig. 3", "Table 2", "Table 3", "Table 4",
                         "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8"):
            assert artifact in design_text, artifact


class TestExperimentsReferences:
    def test_every_results_file_mentioned_is_generated(
        self, experiments_text
    ):
        """Result names in EXPERIMENTS.md must match benchmark reports.

        The results/ directory is produced by a benchmark run; here we
        check the names against the report() calls in the bench sources.
        """
        bench_sources = "".join(
            path.read_text() for path in (ROOT / "benchmarks").glob("*.py")
        )
        referenced = set(
            re.findall(r"`([a-z0-9_]+)`", experiments_text)
        ) & set(re.findall(r'report\(\s*"([a-z0-9_]+)"', bench_sources))
        assert len(referenced) >= 8

    def test_records_paper_table4_values(self, experiments_text):
        for value in ("2.0520", "0.9814", "0.0322"):
            assert value in experiments_text

    def test_aggregation_note_present(self, experiments_text):
        assert "error of the" in experiments_text.lower()


class TestRepoPaths:
    """Every repository path a document names must exist.

    Covers the prose documents; ``perfbench/README.md`` belongs to the
    benchmark and is edited only with it.
    """

    PATH = re.compile(
        r"(?<![\w/.-])(?:"
        r"(?:benchmarks|examples|results|src/repro|tests)/[\w./-]*\w\."
        r"(?:py|txt)|BENCH_\w+\.json)"
    )

    def test_named_paths_exist(self):
        documents = [
            ROOT / name
            for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
        ] + sorted((ROOT / "docs").glob("*.md"))
        named = {
            (path, document.relative_to(ROOT).as_posix())
            for document in documents
            for path in self.PATH.findall(document.read_text())
        }
        assert len(named) >= 30
        missing = sorted(
            f"{document}: {path}"
            for path, document in named
            if not (ROOT / path).exists()
        )
        assert not missing, missing


class TestReadme:
    def test_examples_table_matches_directory(self):
        readme = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, script.name

    def test_cli_commands_documented_exist(self):
        from repro.__main__ import _COMMANDS

        readme = (ROOT / "README.md").read_text()
        for command in re.findall(r"python -m repro ([\w-]+)", readme):
            assert (
                command in _COMMANDS
                or command in ("all", "obs-report", "qa")
            ), command

    def test_api_doc_present_and_linked(self):
        api_doc = ROOT / "docs" / "API.md"
        assert api_doc.exists()
        assert len(api_doc.read_text()) > 200
        assert "docs/API.md" in (ROOT / "README.md").read_text()
        architecture = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        assert "API.md" in architecture
