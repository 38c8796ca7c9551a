import pytest

from threecolor import suites
from threecolor.bounds import BitBudgetExceededError


def test_run_all_passes_its_bit_budget_down():
    # The lemma3 bound 2^25 at (k, ell) = (2, 2) is the first power over 25 bits.
    with pytest.raises(BitBudgetExceededError,
                       match=r"^2\^25 needs 26 bits, over the budget of 25$"):
        suites.run_all(bit_budget=25)

