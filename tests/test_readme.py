"""README.md's Python examples run as written, in order, in one namespace."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quick start's cancellation and the recovered time constant
    assert abs(namespace["transient_coefficient"](namespace["pulse"], namespace["line"].tau)) < 1e-12
    assert abs(namespace["result"].fit.tau - 13e-6) < 0.1 * 13e-6
