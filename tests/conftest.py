import os
import sys

import numpy as np
from hypothesis import strategies as st

from dirmetric import DirectedMetricSpace, random_space

sys.path.insert(0, os.path.dirname(__file__))


@st.composite
def small_spaces(draw, max_n: int = 4, min_n: int = 1) -> DirectedMetricSpace:
    """Analyzed verify.random_space spaces of min_n to max_n points, weakly connected or not."""
    n = draw(st.integers(min_n, max_n))
    connected = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DirectedMetricSpace.from_space(random_space(rng, n, connected=connected))
