"""Tiny arithmetic grammar for angle flags.

Angles like pi/sqrt(3) appear all over the command line; typing them as
decimal literals invites transcription drift, so flags accept

    expr := term (('*' | '/') term)*
    term := '-' term | NUMBER | 'pi' | 'sqrt' '(' expr ')' | '(' expr ')'

evaluated in double precision. That is the whole language: multiplication,
division, unary minus, parentheses, sqrt, pi, and numeric literals
(including exponent notation). A literal or a product or quotient that
overflows a double is an error, so every value is finite.
"""

import math
import re

from .errors import ConfigurationError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]+)|(?P<sym>[*/()\-]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            raise ConfigurationError(
                f"bad character {src[pos:].strip()[0]!r} in angle "
                f"expression {src!r} at position {pos}"
            )
        if m.lastgroup == "num":
            value = float(m.group("num"))
            if math.isinf(value):
                raise ConfigurationError(
                    f"number {m.group('num')} in angle expression {src!r} "
                    f"overflows a double"
                )
            tokens.append(("num", value, m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ConfigurationError(
                f"angle expression {self.src!r} ends unexpectedly"
            )
        self.i += 1
        return tok

    def expect_sym(self, sym):
        tok = self.take()
        if tok[0] != "sym" or tok[1] != sym:
            raise ConfigurationError(
                f"expected {sym!r} at position {tok[2]} in {self.src!r}"
            )

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "sym" or tok[1] not in "*/":
                return value
            self.take()
            rhs = self.term()
            if tok[1] == "*":
                value *= rhs
            else:
                if rhs == 0.0:
                    raise ConfigurationError(
                        f"division by zero in angle expression {self.src!r}"
                    )
                value /= rhs
            if math.isinf(value):
                raise ConfigurationError(
                    f"angle expression {self.src!r} overflows a double"
                )

    def term(self):
        tok = self.take()
        kind, val, pos = tok
        if kind == "sym" and val == "-":
            return -self.term()
        if kind == "num":
            return val
        if kind == "name":
            if val == "pi":
                return math.pi
            if val == "sqrt":
                self.expect_sym("(")
                inner = self.expr()
                self.expect_sym(")")
                if inner < 0.0:
                    raise ConfigurationError(
                        f"sqrt of negative value in {self.src!r}"
                    )
                return math.sqrt(inner)
            raise ConfigurationError(
                f"unknown name {val!r} at position {pos} in {self.src!r} "
                f"(only pi and sqrt are defined)"
            )
        if kind == "sym" and val == "(":
            inner = self.expr()
            self.expect_sym(")")
            return inner
        raise ConfigurationError(
            f"unexpected {val!r} at position {pos} in {self.src!r}"
        )


def parse_angle(src: str) -> float:
    """Evaluate an angle expression to a float (radians by convention)."""
    if not isinstance(src, str) or not src.strip():
        raise ConfigurationError("empty angle expression")
    parser = _Parser(src)
    try:
        value = parser.expr()
    except RecursionError:
        raise ConfigurationError("angle expression nests too deeply") from None
    trailing = parser.peek()
    if trailing is not None:
        raise ConfigurationError(
            f"trailing {trailing[1]!r} at position {trailing[2]} in {src!r}"
        )
    return float(value)
