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
