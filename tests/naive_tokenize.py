"""The former tokenizer, kept as a test oracle.

It steps over whitespace one character at a time and matches one token
at a time.  `eqpi1.documents.tokenize` scans each line with one pattern,
and the tests require both to return the same tokens and the same first
refusal.
"""

import re

from eqpi1.documents import DocumentSyntaxError, Token

_TOKEN = re.compile(
    r"->|\^|\{|\}|\(|\)|@|-?\d+|[A-Za-z_][A-Za-z0-9_.]*"
)

_KINDS = {
    "->": "ARROW",
    "^": "CARET",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "@": "AT",
}


def naive_tokenize(text: str):
    tokens = []
    for li, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(line, pos)
            if not m:
                raise DocumentSyntaxError(
                    f"unexpected character {line[pos]!r}", li, pos + 1
                )
            lex = m.group(0)
            kind = _KINDS.get(lex)
            if kind is None:
                kind = "INT" if lex.lstrip("-").isdigit() else "WORD"
            tokens.append(Token(kind, lex, li, m.start() + 1))
            pos = m.end()
    return tokens
