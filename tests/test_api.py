"""The package's public names against the README's Library section."""
import ast
import re
from pathlib import Path

import cwcsim

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
LIBRARY = README[README.index("## Library"):].split("\n## ")[0]


def _block(text: str, lang: str) -> str:
    """The first fenced code block in lang within text."""
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def test_readme_library_block_runs_on_the_public_api(tmp_path, monkeypatch, capsys):
    quick_start = README[README.index("A model file (`death.cwc`)"):]
    (tmp_path / "death.cwc").write_text(_block(quick_start, "text"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = _block(LIBRARY, "python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("r top 3 0.75\na a b c 3\nhorizon-reached ")

    for name in cwcsim.__all__:
        assert hasattr(cwcsim, name), name
        assert f"`{name}`" in LIBRARY, f"{name} is exported but not documented"
    imports = [n for n in ast.walk(ast.parse(code)) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(n, ast.ImportFrom) and n.module == "cwcsim"
                           for n in imports)
    assert {a.name for n in imports for a in n.names} <= set(cwcsim.__all__)
