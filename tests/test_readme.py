"""The README's library example runs and prints what its comments say.

The ``## Library`` code block runs in a fresh interpreter with ``src`` on the
path.  Each ``print(...)`` statement ends in a ``# ...`` comment; the comment,
less a trailing ``...``, must begin the line that statement prints.
"""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _library_block() -> str:
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert m, "README has no python block under '## Library'"
    return m.group(1)


def _expected_lines(code: str):
    """The comment at the end of every print statement, in order."""
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    prints = [node for node in ast.parse(code).body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "print"]
    return [comments[node.end_lineno] for node in prints]


def test_library_example_prints_its_comments():
    code = _library_block()
    expected = _expected_lines(code)
    assert expected == ["0.60487306...", "(2, 4.39062)", "holds", "1/3"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    assert len(printed) == len(expected), printed
    for line, comment in zip(printed, expected):
        prefix = comment[:-3] if comment.endswith("...") else comment
        assert line.startswith(prefix), (line, comment)
