"""Tokenizer for the synthesizable Verilog subset.

Produces a flat list of :class:`Token` objects. Comments (``//`` and
``/* */``) and whitespace are skipped; line *and column* numbers are
tracked for diagnostics and for mapping instrumentation back to source.

One regex match yields one token: the pattern's leading group swallows
the whitespace and comments before it, so skipped text costs no match
of its own. Lines are counted with ``str.count`` over the text between
one token's start and the next, which also counts the newlines inside
a string literal.

Error handling has two modes:

* legacy (no sink): the first bad character raises :class:`LexerError`,
  whose message uses the canonical ``file:line:col:`` prefix and whose
  ``code``/``diagnostics`` attributes carry the structured finding;
* recovering (``sink=`` given): bad characters are reported as
  :class:`repro.diag.Diagnostic` records into the sink and skipped, so
  one run surfaces every lexical defect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..diag.model import DiagnosticSink, SourceSpan

KEYWORDS = frozenset(
    [
        "module", "endmodule", "input", "output", "inout", "reg", "wire",
        "integer", "parameter", "localparam", "assign", "always", "begin",
        "end", "if", "else", "case", "casez", "endcase", "default", "for",
        "posedge", "negedge", "or", "signed",
    ]
)

# Ordered: longest operators first so maximal-munch works.
_OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "+:", "-:",
    "~&", "~|", "~^", "^~",
    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^",
    "=", "?", ":", ",", ";", ".", "#", "(", ")", "[", "]", "{", "}", "@", "'",
]

# Token alternatives are tried in order (first match wins). ``bad`` takes
# any other character, so the token group matches nothing only at the
# end of the text.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*|/\*.*?\*/)*
    (?:
      (?P<sized>[0-9_]*'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+)
    | (?P<real>\d[\d_]*\.\d[\d_]*)
    | (?P<number>\d[\d_]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<sysname>\$[A-Za-z_][A-Za-z0-9_$\.]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$\.]*)
    | (?P<op>%s)
    | (?P<bad>.)
    )?
    """
    % "|".join(re.escape(op) for op in _OPERATORS),
    re.VERBOSE | re.DOTALL,
)

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}

_STRING_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


def _unescape_string(text):
    """Resolve ``\\"``-style escapes in a string literal's contents.

    Verilog semantics: ``\\n``/``\\t`` are newline/tab, ``\\\\`` and
    ``\\"`` are the literal character, and an unknown ``\\x`` is just
    ``x``. The AST stores the *unescaped* text; codegen re-escapes on
    output, so parse/codegen round-trips are exact.
    """
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            escaped = text[i + 1]
            out.append(_STRING_ESCAPES.get(escaped, escaped))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class LexerError(ValueError):
    """Raised when the input contains a character outside the subset.

    ``code`` is the stable rule code (``P01xx``) and ``diagnostics``
    the structured findings collected before the raise.
    """

    def __init__(self, message, code="P0101", diagnostics=None):
        super().__init__(message)
        self.code = code
        self.diagnostics = list(diagnostics or [])


@dataclass
class Token:
    """A single lexical token.

    ``kind`` is one of ``keyword``, ``ident``, ``sysname`` (``$display``),
    ``number`` (with ``value``/``width``/``signed`` filled in), ``string``,
    or ``op``. ``col`` is the 1-based column of the token's first
    character on its line.
    """

    kind: str
    text: str
    lineno: int
    value: int = 0
    width: object = None
    signed: bool = False
    col: int = 0

    def __repr__(self):
        return "Token(%s, %r, line %d)" % (self.kind, self.text, self.lineno)


def _parse_sized_number(text):
    """Parse ``8'hFF`` style literals; returns (value, width, signed)."""
    size_part, rest = text.split("'", 1)
    signed = rest[0] in "sS"
    if signed:
        rest = rest[1:]
    radix = _BASE_RADIX[rest[0].lower()]
    digits = rest[1:].replace("_", "")
    # Two-state simulation: x/z/? digits read as 0.
    digits = re.sub(r"[xXzZ?]", "0", digits)
    value = int(digits, radix) if digits else 0
    width = int(size_part.replace("_", "")) if size_part else None
    return value, width, signed


def tokenize(text, filename="<input>", sink=None):
    """Tokenize *text*, returning a list of :class:`Token`.

    With no *sink*, raises :class:`LexerError` at the first character
    outside the supported subset (message prefixed ``file:line:col:``).
    With a :class:`~repro.diag.DiagnosticSink`, every bad character is
    reported into the sink and skipped, and the (partial) token list is
    returned.
    """
    tokens = []
    append = tokens.append
    match = _TOKEN_RE.match
    lineno = 1
    line_start = 0
    # Newlines are counted from the previous token's start, so a string
    # literal's own newlines are counted before the token after it.
    last = 0
    pos = 0
    while True:
        found = match(text, pos)
        kind = found.lastgroup
        if kind is None:
            return tokens
        pos = found.end()
        raw = found.group(kind)
        start = pos - len(raw)
        newlines = text.count("\n", last, start)
        if newlines:
            lineno += newlines
            line_start = text.rfind("\n", last, start) + 1
        last = start
        col = start - line_start + 1
        if kind == "ident" or kind == "op" or kind == "sysname":
            if kind == "ident" and raw in KEYWORDS:
                kind = "keyword"
            append(Token(kind, raw, lineno, 0, None, False, col))
        elif kind == "number":
            value = int(raw.replace("_", ""))
            append(Token(kind, raw, lineno, value, None, False, col))
        elif kind == "sized":
            value, width, signed = _parse_sized_number(raw)
            append(Token("number", raw, lineno, value, width, signed, col))
        elif kind == "string":
            value = _unescape_string(raw[1:-1])
            append(Token(kind, value, lineno, 0, None, False, col))
        elif kind == "real":
            _lex_error(sink, "P0102", "real literal %r unsupported" % raw,
                       filename, lineno, col)
        else:
            _lex_error(sink, "P0101", "unexpected character %r" % raw,
                       filename, lineno, col)


def _lex_error(sink, code, message, filename, lineno, col):
    """Report a lexical error: into *sink*, or (strict mode, no sink) as
    a raised :class:`LexerError`."""
    span = SourceSpan(file=filename, line=lineno, col=col)
    if sink is not None:
        sink.error(code, message, span)
        return
    diagnostic = DiagnosticSink().error(code, message, span)
    raise LexerError(diagnostic.format(), code=code, diagnostics=[diagnostic])
