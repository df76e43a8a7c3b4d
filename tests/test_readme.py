"""The README's Quick start block runs, and its annotations are its output.

Each statement with a trailing `# ...` comment is checked against it: a
`print` call by what it prints, a bare expression by its `repr`.
"""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    match = re.search(r"^## Quick start\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README.md has no Quick start python block"
    return match.group(1)


def _comments(source: str) -> dict[int, str]:
    """Line number -> the text of the comment that ends a line of code."""
    comments, code_lines = {}, set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments[tok.start[0]] = tok.string[1:].strip()
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code_lines.add(tok.start[0])
    return {line: text for line, text in comments.items() if line in code_lines}


def test_quick_start_annotations_match_what_it_prints():
    source = _quick_start()
    comments = _comments(source)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        want = comments.get(stmt.end_lineno)
        if want is None:
            exec(code, namespace)
            continue
        assert isinstance(stmt, ast.Expr), f"line {stmt.lineno}: only expressions carry an annotation"
        call = stmt.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "print":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(code, namespace)
            got = out.getvalue().rstrip("\n")
        else:
            got = repr(eval(compile(ast.Expression(call), "README.md", "eval"), namespace))
        assert got == want, f"line {stmt.lineno}: {ast.unparse(stmt)}"
        checked += 1
    assert checked == 6
