"""Line counts of the `etdkf` package: physical lines and code lines per
module, and their totals.

Code lines are the lines that hold code: blank lines, comment lines and
docstrings (the string that opens a module, class or function) are not
counted. Standard library only.

    python tools/src_lines.py [package directory, default src/etdkf]
"""

import ast
import io
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers every docstring of the module spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple:
    """(physical lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in skip)
    return len(text.splitlines()), len(code)


def main(argv) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent / "src" / "etdkf")
    total_physical = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        physical, code = counts(path.read_text())
        total_physical, total_code = total_physical + physical, total_code + code
        print(f"{path.name:<16}{physical:>7}{code:>7}")
    print(f"{'total':<16}{total_physical:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
