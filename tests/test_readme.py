"""The README's library quick tour runs as written and prints what it promises."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    discrete, dynamic, meanfield = printed.getvalue().splitlines()
    assert discrete.endswith(" True")  # deterred
    assert len(dynamic.split()) == 2  # closed form and quadrature
    assert meanfield == "0.3828125"
