import pytest

from deadline import deadline
from threecolor import suites
from threecolor.bounds import BitBudgetExceededError


def test_run_all_passes_its_bit_budget_down():
    # The lemma3 bound 2^25 at (k, ell) = (2, 2) is the first power over 25 bits.
    with pytest.raises(BitBudgetExceededError,
                       match=r"^2\^25 needs 26 bits, over the budget of 25$"):
        suites.run_all(bit_budget=25)



def test_embedding_sweep_refuses_its_largest_gadget_before_any_build():
    # T(1,0) to T(1,11) take seconds to build and certify; T(1,12) is refused.
    with deadline(1), pytest.raises(
            ValueError, match=r"^T\(1,12\) has 2391484 vertices, over the limit of 2097152$"):
        suites.run_embedding(ell_max=12, k_max=1)
