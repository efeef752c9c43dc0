import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # the example must keep running as the library's names change
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})
    survived, extinction, bound = capsys.readouterr().out.split()
    assert survived in ("True", "False")
    assert float(bound) == 0.375
