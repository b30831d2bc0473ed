from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cloudcost import money

NON_ZERO = st.integers().filter(bool)
# num / den is exactly halfway between two integers
TIES = st.builds(lambda half, scale: ((2 * half + 1) * scale, 2 * scale),
                 st.integers(), NON_ZERO)


@given(st.one_of(st.tuples(st.integers(), NON_ZERO), TIES))
def test_round_half_even_rounds_as_fraction_does(pair):
    num, den = pair
    assert money.round_half_even(num, den) == round(Fraction(num, den))
