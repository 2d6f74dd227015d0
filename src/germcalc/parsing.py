"""Textual grammar: parsing and printing of scalars, polynomials, vector
fields, diffeomorphism tuples and commutator words.

Grammar (whitespace insignificant between tokens):

    poly    := ['-'|'+'] pterm (('+'|'-') pterm)*
    pterm   := factor ('*' factor)*
    factor  := atom ['^' ['-'] INT]
    atom    := INT ['/' INT] | 'i' | VAR | '(' poly ')'
    field   := ['-'] fterm (('+'|'-') fterm)*
    fterm   := pterm DERIV
    fields  := [field] (';' [field])*
    diffeo  := '(' poly (',' poly)* ')'
    word    := 'g' INT ['^-1'] | '[' word ',' word ']'
    matrix  := row (';' row)*      row := poly (',' poly)*

with VAR = x1, x2, ... and DERIV = d1, d2, ...  '^' binds tighter than '*',
which binds tighter than '+'/'-'.  Exponents may be negative; rational
literals are INT or INT/INT; 'i' is the imaginary unit; a scalar, such as a
matrix entry, is a poly in one variable that is constant.  Dimension is always
explicit: a variable index outside 1..dim is an error, never a reason to
silently grow the ambient space.

A recursive-descent parser reads the tokens once and computes the value as
it goes: sums, products and powers of ``LaurentPoly`` values, then the
``VectorField``, diffeomorphism components or word.  Each check runs where
its token is read, so an error reports the first problem in reading order
(an unknown character, found by the tokenizer, comes before all others),
with its line and column in the whole text.

Printers emit canonical graded-lex term order, so parse(print(v)) == v
exactly for every value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .diffeos import FormalDiffeo, WordComm, WordLeaf
from .fields import VectorField
from .laurent import LaurentPoly
from .scalars import Scalar


class ParseError(ValueError):
    """Syntax, dimension or power error, carrying the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos
        self.line = line
        self.column = col


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)"
    r"|(?P<deriv>d\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<imag>i)"
    r"|(?P<gen>g\d+)"
    r"|(?P<op>[-+*/^(),;\[\]]))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, position) tokens of the text."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over the tokens, building values as it reads."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", self.text, tok[2])
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", self.text, tok[2])

    def index(self, what: str, value: str, dim: int, pos: int) -> int:
        """The index of x<i> or d<i>, which must lie in 1..dim."""
        index = int(value[1:])
        letter = value[0]
        if index > dim:
            raise ParseError(f"{what} {letter}{index} exceeds the declared dimension {dim}",
                             self.text, pos)
        if index < 1:
            raise ParseError(f"{what} {letter}{index} is not one of {letter}1..{letter}{dim}",
                             self.text, pos)
        return index

    # poly ----------------------------------------------------------------

    def parse_poly(self, dim: int) -> LaurentPoly:
        sign = self.next()[1] if self.at_op("+", "-") else "+"
        out = self.parse_pterm(dim)
        if sign == "-":
            out = -out
        while self.at_op("+", "-"):
            sign = self.next()[1]
            term = self.parse_pterm(dim)
            out = out + term if sign == "+" else out - term
        return out

    def parse_pterm(self, dim: int) -> LaurentPoly:
        out = self.parse_factor(dim)
        while self.at_op("*"):
            self.next()
            out = out * self.parse_factor(dim)
        return out

    def parse_factor(self, dim: int) -> LaurentPoly:
        start = self.i
        base = self.parse_atom(dim)
        if not self.at_op("^"):
            return base
        self.next()
        negative = self.at_op("-")
        if negative:
            self.next()
        kind, value, pos = self.next()
        if kind != "int":
            raise ParseError("expected an integer exponent", self.text, pos)
        e = -int(value) if negative else int(value)
        if e < 0 and len(base.terms) != 1:
            raise ParseError("negative powers are only defined for single-term values",
                             self.text, self.tokens[start][2])
        return base ** e

    def parse_atom(self, dim: int) -> LaurentPoly:
        kind, value, pos = self.next()
        if kind == "int":
            q = Fraction(int(value))
            if self.at_op("/"):
                self.next()
                den_kind, den, den_pos = self.next()
                if den_kind != "int":
                    raise ParseError("expected a denominator", self.text, den_pos)
                if int(den) == 0:
                    raise ParseError("zero denominator", self.text, den_pos)
                q /= int(den)
            return LaurentPoly.constant(dim, q)
        if kind == "imag":
            return LaurentPoly.constant(dim, Scalar(0, 1))
        if kind == "var":
            return LaurentPoly.variable(dim, self.index("variable", value, dim, pos))
        if kind == "op" and value == "(":
            inner = self.parse_poly(dim)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", self.text, pos)

    # field ----------------------------------------------------------------

    def parse_field(self, dim: int) -> VectorField:
        coeffs = [LaurentPoly.zero(dim) for _ in range(dim)]
        sign = self.next()[1] if self.at_op("-") else "+"
        while True:
            start = self.i
            coeff = self.parse_pterm(dim)
            kind, value, pos = self.next()
            if kind != "deriv":
                raise ParseError("expected a direction d<i> after the coefficient", self.text, pos)
            j = self.index("direction", value, dim, self.tokens[start][2]) - 1
            coeffs[j] = coeffs[j] + coeff if sign == "+" else coeffs[j] - coeff
            if not self.at_op("+", "-"):
                return VectorField(coeffs)
            sign = self.next()[1]

    def parse_fields(self, dim: int) -> list[VectorField]:
        fields = []
        while True:
            if self.peek() is not None and not self.at_op(";"):
                fields.append(self.parse_field(dim))
            if not self.at_op(";"):
                return fields
            self.next()

    # diffeo ----------------------------------------------------------------

    def parse_diffeo(self, dim: int) -> list[LaurentPoly]:
        """The components; the caller builds the diffeomorphism from them."""
        start = self.expect_op("(")[2]
        comps = [self.parse_poly(dim)]
        while self.at_op(","):
            self.next()
            comps.append(self.parse_poly(dim))
        self.expect_op(")")
        if len(comps) != dim:
            raise ParseError(f"diffeomorphism has {len(comps)} components, expected {dim}",
                             self.text, start)
        return comps

    # commutator word ----------------------------------------------------------

    def parse_word(self):
        kind, value, pos = self.next()
        if kind == "gen":
            index = int(value[1:])
            inverse = False
            if self.at_op("^"):
                self.next()
                for expected in (("op", "-"), ("int", "1")):
                    if self.next()[:2] != expected:
                        raise ParseError("only ^-1 is meaningful on a generator", self.text, pos)
                inverse = True
            return WordLeaf(index, inverse)
        if kind == "op" and value == "[":
            left = self.parse_word()
            self.expect_op(",")
            right = self.parse_word()
            self.expect_op("]")
            return WordComm(left, right)
        raise ParseError(f"unexpected token {value!r} in word", self.text, pos)

    # scalars and matrices -----------------------------------------------------

    def parse_scalar(self) -> Scalar:
        start = self.i
        p = self.parse_poly(1)
        if not p.is_constant():
            raise ParseError("expected a scalar literal", self.text, self.tokens[start][2])
        return p.constant_term()

    def parse_matrix(self) -> list[list[Scalar]]:
        rows: list[list[Scalar]] = [[]]
        while True:
            rows[-1].append(self.parse_scalar())
            if self.at_op(";"):
                rows.append([])
            elif not self.at_op(","):
                return rows
            self.next()


# -- public entry points ----------------------------------------------------------


def _parse(text: str, read, *args):
    """read(parser, *args) over the whole text."""
    p = _Parser(text)
    out = read(p, *args)
    p.done()
    return out


def parse_poly(text: str, dim: int) -> LaurentPoly:
    return _parse(text, _Parser.parse_poly, dim)


def parse_field(text: str, dim: int) -> VectorField:
    return _parse(text, _Parser.parse_field, dim)


def parse_diffeo(text: str, dim: int, order: int) -> FormalDiffeo:
    return FormalDiffeo(_parse(text, _Parser.parse_diffeo, dim), order)


def parse_fields(text: str, dim: int) -> list[VectorField]:
    """Semicolon-separated vector fields; empty entries are skipped."""
    return _parse(text, _Parser.parse_fields, dim)


def parse_word(text: str):
    return _parse(text, _Parser.parse_word)


def parse_scalar(text: str) -> Scalar:
    """A constant, written as a polynomial in x1 that is constant."""
    return _parse(text, _Parser.parse_scalar)


def parse_matrix(text: str) -> list[list[Scalar]]:
    """Rows of scalars, entries separated by ',' and rows by ';'."""
    return _parse(text, _Parser.parse_matrix)


# -- printers ---------------------------------------------------------------------


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(s: Scalar) -> str:
    if not s.im:
        return format_rational(s.re)
    if not s.re:
        if s.im == 1:
            return "i"
        if s.im == -1:
            return "-i"
        return f"{format_rational(s.im)}*i"
    im = format_scalar(Scalar(0, s.im))
    if s.im > 0:
        return f"{format_rational(s.re)}+{im}"
    return f"{format_rational(s.re)}{im}"


def _scalar_needs_parens(s: Scalar) -> bool:
    return bool(s.re and s.im)


def _format_term(exps, coeff: Scalar) -> str:
    monomial = "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
        for i, e in enumerate(exps)
        if e
    )
    if not monomial:
        c = format_scalar(coeff)
        return f"({c})" if _scalar_needs_parens(coeff) else c
    if coeff == Scalar(1):
        return monomial
    if coeff == Scalar(-1):
        return f"-{monomial}"
    c = format_scalar(coeff)
    if _scalar_needs_parens(coeff) or (not coeff.re and coeff.im not in (1, -1)):
        c = f"({c})"
    return f"{c}*{monomial}"


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.terms.items():
        term = _format_term(exps, coeff)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f" - {term[1:]}")
        else:
            parts.append(f" + {term}")
    return "".join(parts)


def format_field(X: VectorField) -> str:
    parts = []
    for i, c in enumerate(X.coeffs, start=1):
        if c.is_zero():
            continue
        body = format_poly(c)
        if len(c.terms) == 1 and not body.startswith("-"):
            coeff_str = body
        else:
            coeff_str = f"({body})"
        parts.append(f"{coeff_str} d{i}")
    if not parts:
        return "0 d1"
    return " + ".join(parts)


def format_diffeo(phi: FormalDiffeo) -> str:
    return "(" + ", ".join(format_poly(c) for c in phi.components) + ")"


def format_word(word) -> str:
    if isinstance(word, WordLeaf):
        return f"g{word.index}^-1" if word.inverse else f"g{word.index}"
    return f"[{format_word(word.left)},{format_word(word.right)}]"


def format_monomial_header(basis) -> str:
    return " ".join(_format_term(exps, Scalar(1)) for exps in basis)
