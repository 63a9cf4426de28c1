"""Count the lines of the package source.

A code-only line holds a token other than a comment or a docstring (the
first statement of a module, class or function, when it is a string),
counted with ``tokenize`` and ``ast``; a token spanning lines marks each
of them.  Prints each module's lines and code-only lines, then the totals.

    python tools/src_lines.py [DIR]    # DIR defaults to src/dissipeuler
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set:
    """The lines of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path: Path) -> tuple:
    """(lines, code-only lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIP:
                continue
            rows = set(range(tok.start[0], tok.end[0] + 1))
            if tok.type == tokenize.STRING and rows <= docs:
                continue
            code |= rows
    return len(text.splitlines()), len(code)


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "dissipeuler"
    total = code = 0
    for path in sorted(root.glob("*.py")):
        lines, only = count(path)
        total, code = total + lines, code + only
        print(f"{path.name:20} {lines:6} {only:6}")
    print(f"{'total':20} {total:6} {code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
