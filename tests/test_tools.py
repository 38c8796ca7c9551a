"""The repository tools under tools/, loaded by path."""
import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_commands_skip_prose_with_an_unpaired_quote(tmp_path):
    (tmp_path / "README.md").write_text(
        "# T\n\n## Command line\n\n"
        "The gadget's vertices come first.\n\n"
        "```sh\n"
        "threecolor generate --k 1 --ell 1 --format graph6   # one graph6 line\n"
        "threecolor count --k 1 --ell 1 --fix 1,2 --full\n"
        "```\n\n"
        "Each threecolor command exits 0 on success.\n\n"
        "## Library sketch\n\n"
        "threecolor report --ell-max 8\n"
    )
    tool = load_tool("cli_equivalence")
    assert tool.readme_commands(tmp_path) == [
        ["generate", "--k", "1", "--ell", "1", "--format", "graph6"],
        ["count", "--k", "1", "--ell", "1", "--fix", "1,2", "--full"],
    ]


def fake_checkout(root, cli_source):
    """A checkout whose README lists `threecolor slow` and `threecolor fast`,
    whose `threecolor.cli` module is `cli_source` and runs as `python -m threecolor`."""
    (root / "src" / "threecolor").mkdir(parents=True)
    (root / "src" / "threecolor" / "__init__.py").write_text("")
    (root / "src" / "threecolor" / "__main__.py").write_text("from . import cli\n")
    (root / "src" / "threecolor" / "cli.py").write_text(cli_source)
    (root / "demos").mkdir()
    (root / "README.md").write_text(
        "# T\n\n## Command line\n\nthreecolor slow\nthreecolor fast\n\n## End\n")
    return root


def test_a_command_past_the_timeout_is_a_difference(tmp_path, monkeypatch, capsys):
    before = fake_checkout(tmp_path / "before", "print('done')\n")
    after = fake_checkout(tmp_path / "after", "import sys, time\n"
                          "if 'slow' in sys.argv:\n    time.sleep(60)\nprint('done')\n")
    tool = load_tool("cli_equivalence")
    monkeypatch.setattr(tool, "TIMEOUT_S", 1)
    assert tool.main([str(before), str(after)]) == 1
    slow, fast, total, lines = capsys.readouterr().out.splitlines()
    assert slow.startswith("slow  [exit None, ")
    assert slow.endswith("DIFFERENT: after timed out after 1 s; stdout")
    assert fast.startswith("fast  [exit 0, ") and fast.endswith("same")
    assert total == "1/2 commands identical"
    assert lines == "src/threecolor/*.py: 2 -> 5 lines"  # the cli.py sources and __main__.py
