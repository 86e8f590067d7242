"""The fuzz tests' values, with either sign: as often as not an ordinary size,
which the checks' hypotheses admit (|c| = 6 or 13 for winding, say), and else
0's neighbours, the subnormals, the square-root limits, the float limit, inf or
nan."""
import math

from hypothesis import strategies as st

ORDINARY = (0.0, 0.2, 0.5, 1.0, 2.0, 3.0, 6.0, 13.0)
EXTREME = (5e-324, 1e-310, 1.5e-154, 1e-100, 1e-8, 1e8, 1e154, 1e300, 1.7e308,
           math.inf, math.nan)

real = st.builds(lambda m, neg: -m if neg else m,
                 st.sampled_from(ORDINARY) | st.sampled_from(EXTREME), st.booleans())
# A complex value's imaginary part is 0 half the time.
complex_value = st.builds(complex, real, st.just(0.0) | real)
