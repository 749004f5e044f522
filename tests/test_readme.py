"""The README's library example runs and prints what it documents."""

import contextlib
import io
import re
from pathlib import Path

import polybase

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_documented_output():
    code = quick_start_block()
    documented = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(documented) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == documented
    assert namespace["verify"](namespace["f"], namespace["dec"]) == (True, [])
    # the README names polybase.replay as the way to re-execute a trace
    assert "`polybase.replay`" in README.read_text(encoding="utf-8")
    assert polybase.replay(namespace["trace"]).terms == namespace["dec"].terms
