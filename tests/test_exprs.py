import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtm import ConfigurationError, parse_angle


@pytest.mark.parametrize("src,value", [
    ("3", 3.0),
    ("3.", 3.0),
    (".5", 0.5),
    ("1e-3", 1e-3),
    ("2.5E2", 250.0),
    ("pi", math.pi),
    ("-pi/6", -math.pi / 6),
    ("2*pi/4", math.pi / 2),
    ("pi/2/2", math.pi / 4),  # division associates left
    ("sqrt(2)", math.sqrt(2)),
    ("pi/sqrt(3)", math.pi / math.sqrt(3)),
    ("sqrt(sqrt(16))", 2.0),
    ("(pi)", math.pi),
    ("2*(3*4)", 24.0),
    ("--1", 1.0),
    (" pi / 2 ", math.pi / 2),
    ("1.7976931348623157e308", 1.7976931348623157e308),  # largest double
    ("1e308*1.5", 1.5e308),
    ("1e-400", 0.0),  # underflow rounds to zero, which is finite
])
def test_accepted_expressions(src, value):
    assert parse_angle(src) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("src", [
    "",
    "   ",
    "pi + 1",  # no addition in the grammar
    "2 @ 3",
    "tau",
    "pi pi",
    "2*",
    "sqrt 3",
    "sqrt(3",
    "(1))",
    "1/0",
    "sqrt(-1)",
    pytest.param("(" * 1000 + "1" + ")" * 1000, id="1000-nested-parens"),
    pytest.param("-" * 2000 + "1", id="2000-unary-minus"),
    # Python syntax outside the grammar
    "pi # c",  # a comment in Python
    "sqrt(2,)",  # a trailing comma in Python
    "sqrt(x=2)",
    "sqrt(2, 3)",
    "2**3",
    "1_0",
    "0x10",
    "1j",
    "True",
    "pi.real",
    "pi()",
    "+1",
    "1 if 1 else 2",
    pytest.param("pi\x00", id="nul-byte"),
])
def test_rejected_expressions(src):
    with pytest.raises(ConfigurationError):
        parse_angle(src)


@pytest.mark.parametrize("src", [
    "1e309",
    "-1e309",
    "1/1e309",  # an overflowing literal is refused even where 1/inf is 0
    "sqrt(1e400)",
    "1e308*10",
    "1e308*10/10",
    "-1e200*1e200",
    "1e300/1e-300",
])
def test_overflow_is_rejected(src):
    with pytest.raises(ConfigurationError, match="overflows a double"):
        parse_angle(src)


@given(st.floats(min_value=1e-300, max_value=1e300,
                 allow_nan=False, allow_infinity=False))
def test_repr_round_trip(x):
    assert parse_angle(repr(x)) == x


@pytest.mark.parametrize("src,value", [
    ("007", 7.0),  # leading zeros, which Python refuses in an integer
    ("00.5", 0.5),
    (".05", 0.05),
    ("1e05", 1e5),
    ("pi\t/ 2", math.pi / 2),
    ("pi\n/2", math.pi / 2),
    pytest.param("(" * 150 + "1" + ")" * 150, 1.0, id="150-nested-parens"),
    ("-0", -0.0),  # the literal is a float before it is negated
])
def test_pinned_accepted_spellings(src, value):
    assert parse_angle(src).hex() == value.hex()


_SPELLED_FLOATS = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.sampled_from(["0.0", "2.", ".5", "1.5e2", "25E-1", "00.5", "7.e-1"]),
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["*", " * ", "/", " / "]), inner)
        .map("".join),
        inner.map("-{}".format),
        inner.map("sqrt({})".format),
        inner.map("({})".format),
    )


_GRAMMAR = st.recursive(st.one_of(_SPELLED_FLOATS, st.just("pi")), _compound,
                        max_leaves=12)


@settings(max_examples=300)
@given(_GRAMMAR)
def test_agrees_with_python_eval(src):
    # literals are spelled as floats: Python's -0 is the integer 0, but
    # -0.0 keeps its sign; magnitudes stay far from overflow
    try:
        want = eval(src, {"__builtins__": {}},
                    {"pi": math.pi, "sqrt": math.sqrt})
    except (ArithmeticError, ValueError):
        want = math.inf
    if not math.isfinite(want):
        with pytest.raises(ConfigurationError):
            parse_angle(src)
    else:
        assert parse_angle(src).hex() == want.hex()
