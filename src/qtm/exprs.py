"""Tiny arithmetic grammar for angle flags.

Angles like pi/sqrt(3) appear all over the command line; typing them as
decimal literals invites transcription drift, so flags accept

    expr := term (('*' | '/') term)*
    term := '-' term | NUMBER | 'pi' | 'sqrt' '(' expr ')' | '(' expr ')'

evaluated in double precision, with decimal literals in exponent notation
and with leading zeros (007 is 7). A literal or a product or quotient that
overflows a double is an error, so every value is finite. Python's parser
(ast) reads the text, and the rest of Python is refused: other operators,
names, calls, attributes and keywords, comments, trailing commas, and
literals such as 1_0, 0x10, 1j or True.
"""

import ast
import math
import re
import warnings

from .errors import ConfigurationError

_BAD_CHAR = re.compile(r"[^0-9A-Za-z_.+\-*/() ]")
# leading zeros of an integer part, which Python refuses in 007
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _finite(value, what, src):
    if math.isinf(value):
        raise ConfigurationError(f"{what} in {src!r} overflows a double")
    return value


def _value(node, text, src):
    spelled = text[node.col_offset:node.end_col_offset]
    match node:
        case ast.Constant() if _NUMBER.fullmatch(spelled):
            return _finite(float(spelled), f"number {spelled}", src)
        case ast.Name(id="pi"):
            return math.pi
        case ast.UnaryOp(ast.USub(), operand):
            return -_value(operand, text, src)
        case ast.BinOp(left, ast.Mult() | ast.Div() as op, right):
            lhs, rhs = _value(left, text, src), _value(right, text, src)
            if isinstance(op, ast.Mult):
                return _finite(lhs * rhs, "a product", src)
            if rhs == 0.0:
                raise ConfigurationError(f"division by zero in {src!r}")
            return _finite(lhs / rhs, "a quotient", src)
        case ast.Call(ast.Name(id="sqrt"), [arg], []):
            inner = _value(arg, text, src)
            if inner < 0.0:
                raise ConfigurationError(f"sqrt of negative value in {src!r}")
            return math.sqrt(inner)
    raise ConfigurationError(f"{spelled!r} in angle expression {src!r} is "
                             f"outside the grammar (* / - ( ) pi sqrt NUMBER)")


def parse_angle(src: str) -> float:
    """Evaluate an angle expression to a float (radians by convention)."""
    if not isinstance(src, str) or not src.strip():
        raise ConfigurationError("empty angle expression")
    text = " ".join(src.split())
    bad = _BAD_CHAR.search(text)
    if bad is not None:
        raise ConfigurationError(f"bad character {bad.group()!r} in {src!r}")
    text = _LEADING_ZEROS.sub("", text)
    try:
        with warnings.catch_warnings():  # "1if" warns; refuse it like an error
            warnings.simplefilter("error")
            tree = ast.parse(text, mode="eval")
        return _value(tree.body, text, src)
    except SyntaxError as exc:
        why = "nests too deeply" if "nested" in exc.msg else "does not parse"
        raise ConfigurationError(
            f"angle expression {src!r} {why}: {exc.msg}") from None
    except RecursionError:
        raise ConfigurationError("angle expression nests too deeply") from None
