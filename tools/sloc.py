"""Count the code lines of each module under src/matrex.

A code line is a physical line that holds at least one token other than a
comment; blank lines, comment lines and docstrings (a string literal that
stands alone as a statement) do not count.  Standard library only.

Usage: python tools/sloc.py [DIR]   (default: src/matrex next to this script)
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # A statement that is a lone string literal is a docstring.
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _SKIP:
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "matrex"
    total_code = total_physical = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        code, physical = code_lines(text), len(text.splitlines())
        total_code += code
        total_physical += physical
        print(f"{path.name:<16}{code:>6} code {physical:>6} lines")
    print(f"{'total':<16}{total_code:>6} code {total_physical:>6} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
