"""Which refusal a witness build reports when two of its inputs are bad at once.

Each case breaks two inputs of one theorem (or one input in two ways) and
pins the message that wins, so a builder that stops checking a value twice
keeps the order in which its inputs are refused.
"""

import math

import pytest

from dualitymap import C01Space, FiniteMeasureSpace, HypothesisViolation, LpSpace, build_witness

NAN = math.nan
HUGE = 1.7e308  # four of them overflow the l_2 norm, three the L1 norm of unit weights
LP, L1, C01 = LpSpace(2.0), FiniteMeasureSpace([1.0, 1.0, 1.0]), C01Space()
FLAT = {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]}
RISING = {"breakpoints": [0.0, 1.0], "values": [0.0, 2.0]}
HEAVY_ATOM = {"atoms": [[0.5, 2.0]]}  # twice the mass a member of J(FLAT) has

CASES = [
    # l_p
    (LP, "thm31", {"x": [], "w": [NAN]}, ValueError, "vector must be one-dimensional"),
    (LP, "thm31", {"x": [1.0, 0.0], "w": [0.0, 0.0, 1.0], "m": 5}, HypothesisViolation, "x and w share a dimension"),
    (LP, "thm31", {"x": [1.0, 2.0], "w": [0.0, 0.0], "m": 1.5}, ValueError, "params m must be a finite integer"),
    (LP, "thm32", {"x": [], "y": [NAN]}, ValueError, "vector must be one-dimensional"),
    (LP, "thm32", {"x": [HUGE] * 4, "y": [0.0] * 4}, HypothesisViolation, r"<J\(x\), y> != 0"),
    (LP, "thm32", {"x": [HUGE] * 4, "y": [1.0, 0.0, 0.0, 0.0]}, ValueError, "norm overflows"),
    (LP, "thm33", {"x": [], "a": NAN}, ValueError, "vector must be one-dimensional"),
    (LP, "thm33", {"x": [0.0, 0.0], "a": 1.0}, HypothesisViolation, r"x != 0"),
    (LP, "thm33", {"x": [HUGE] * 4, "a": 2.0}, ValueError, "norm overflows"),  # a J(x) overflows too
    (LP, "thm33", {"x": [1e308, 0.0], "a": 2.0}, ValueError, "vector coordinates must be finite"),
    # L1
    (L1, "thm45_case1", {"f": [1.0, 0.0, 1.0], "k_star": [1.0, 1.0]}, ValueError, "do not match the 3-point space"),
    (L1, "thm45_case1", {"f": [HUGE] * 3, "k_star": [1.0, 1.0, 1.0]}, ValueError, r"<k\*, f> overflows"),
    (L1, "thm45_case2", {"f": [1.0, 0.0, 1.0], "k_star": [1.0, 1.0, 1.0], "D": [5], "a": NAN},
     ValueError, r"params D\[0\] must be an integer in \[0, 3\)"),
    (L1, "thm45_case2", {"f": [HUGE] * 3, "k_star": [1.0, 1.0, 1.0], "D": [0], "a": 1.0}, ValueError, "L1 norm overflows"),
    (L1, "thm45_case2", {"f": [2.0, 1.0, -1.0], "k_star": [1.0, 1.0, 1.0], "D": [], "a": -1.0},
     HypothesisViolation, r"<k\*, f> = 0"),
    (L1, "thm46", {"k_star": [0.0, 0.0, 0.0], "D": []}, HypothesisViolation, r"k\* != 0\*"),
    (L1, "thm46", {"k_star": [NAN, 0.0, 0.0], "D": [3]}, ValueError, r"params k_star\[0\] must be a finite number"),
    (L1, "thm47", {"f": [-1.0, 2.0, 2.0], "D": [0], "a": -1.0}, HypothesisViolation, r"f in L1\+"),
    (L1, "thm47", {"f": [2.0, 2.0, 2.0], "D": [7], "a": NAN}, ValueError, r"params D\[0\] must be an integer"),
    (L1, "thm47", {"f": [HUGE] * 3, "D": [], "a": 1.0}, HypothesisViolation, "D is nonempty"),
    (L1, "cor48", {"f": [1.0, 0.0, 1.0], "u_star": [NAN, 1.0, 1.0]}, ValueError, r"params u_star\[0\] must be a finite number"),
    (L1, "cor48", {"f": [0.0, 1.0, 1.0], "u_star": [0.0, 0.0, 0.0]}, HypothesisViolation, "f strictly positive"),
    (L1, "cor48", {"f": [HUGE] * 3, "u_star": [0.0, 0.0, 0.0]}, ValueError, "L1 norm overflows"),
    (L1, "cor48", {"f": [1.0, 1.0, 1.0], "u_star": [4.0, 4.0, 4.0], "E": [], "b": -1.0}, HypothesisViolation, "E is nonempty"),
    # C[0,1]
    (C01, "thm53", {"f": {"breakpoints": [0.0, 1.0], "values": [-1.0, 1.0]}, "mu": HEAVY_ATOM, "selection": {}},
     HypothesisViolation, r"f in C\+\[0,1\]"),
    (C01, "thm53", {"f": FLAT, "mu": HEAVY_ATOM, "selection": {}}, ValueError, "params give both mu and selection"),
    (C01, "thm53", {"f": FLAT, "mu": HEAVY_ATOM}, HypothesisViolation, r"mu in J\(f\)"),
    (C01, "thm54", {"f": {"breakpoints": [0.0], "values": [1.0]}, "lambda": {"atoms": 3}}, ValueError, "two endpoint breakpoints"),
    (C01, "thm54", {"f": FLAT, "lambda": {"atoms": []}, "mu": {"atoms": 3}}, HypothesisViolation, r"<lambda, f> != 0"),
    (C01, "thm54", {"f": FLAT, "lambda": {"atoms": [[0.5, 1.0]]}, "mu": HEAVY_ATOM}, HypothesisViolation, r"mu in J\(f\)"),
    (C01, "thm55", {"f": {"breakpoints": [0.0], "values": [1.0]}, "lambda": {"atoms": []}}, ValueError, "two endpoint breakpoints"),
    (C01, "thm55", {"f": FLAT, "lambda": {"atoms": [[0.2, 1.0], [0.7, -1.0]]}}, HypothesisViolation, r"lambda\[0,1\] != 0"),
    (C01, "thm56", {"f": {"breakpoints": [0.0, 1.0], "values": [-1.0, 1.0]}, "u": {"breakpoints": [0.0], "values": [1.0]}},
     ValueError, "two endpoint breakpoints"),
    (C01, "thm56", {"f": {"breakpoints": [0.0, 1.0], "values": [-1.0, 1.0]}, "u": {"breakpoints": [0.0, 1.0], "values": [-1.0, 1.0]}},
     HypothesisViolation, r"f in C\+\[0,1\]"),
    (C01, "thm56", {"f": FLAT, "u": FLAT, "points": [0.5], "alphas": [NAN]}, HypothesisViolation, r"\|\|u\|\| > \|\|f\|\|"),
    (C01, "cor57", {"f": {"breakpoints": [0.0, 1.0], "values": [1.0, 0.0]}, "u": {"breakpoints": [0.0, 1.0], "values": [2.0, 0.0]}},
     HypothesisViolation, "f increasing"),
    (C01, "cor57", {"f": RISING, "u": RISING}, HypothesisViolation, r"u\(1\) > f\(1\)"),
    (C01, "thm58", {"f": {"breakpoints": [0.0, 1.0], "values": [0.0, 0.0]}, "c": 1.0}, HypothesisViolation, r"\|\|f\|\| > 0"),
    (C01, "thm58", {"f": FLAT, "c": 1e308, "mu": HEAVY_ATOM}, ValueError, "atom weights must be finite"),  # c mu overflows, mu is no member
]


@pytest.mark.parametrize("space, theorem, params, error, message", CASES, ids=[f"{c[1]}-{i}" for i, c in enumerate(CASES)])
def test_the_first_bad_input_is_the_one_refused(space, theorem, params, error, message):
    with pytest.raises(error, match=message) as refused:
        build_witness(space, theorem, params)
    if error is ValueError:  # a malformed value is not a broken hypothesis
        assert not isinstance(refused.value, HypothesisViolation)
