import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
