"""``LintConfig``: root discovery, the layer table, the entry-point sync."""

from pathlib import Path

import pytest

from repro.devtools.config import LintConfig, discover_config

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestLintConfig:
    def test_layer_of_follows_the_declared_order(self, tmp_path):
        config = LintConfig(root=tmp_path, layers=(("base",), ("top",)))
        assert config.layer_of("base") == 0
        assert config.layer_of("top") == 1
        assert config.layer_of("unknown") is None


class TestDiscover:
    def test_walks_up_to_the_nearest_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text('[project]\nname = "x"\n', encoding="utf-8")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        config = discover_config(nested)
        assert config.root == tmp_path.resolve()

    def test_no_pyproject_falls_back_to_defaults(self, tmp_path):
        config = discover_config(tmp_path)
        assert config.root == tmp_path.resolve()
        assert config == LintConfig(root=tmp_path.resolve())


def test_pyproject_scripts_match_entry_points():
    # R013 keeps the console-script targets alive; they must be the
    # ones pyproject.toml actually installs.
    tomllib = pytest.importorskip("tomllib")
    data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    scripts = data["project"]["scripts"]
    assert tuple(sorted(scripts.values())) == LintConfig(root=REPO_ROOT).entry_points
