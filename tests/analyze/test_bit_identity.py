"""The strict validators and the analyzer share one defect scan.

``validate_generator`` delegates to ``generator_defects`` and
``CompiledCTMC.validate`` delegates to ``validate_terms`` — so the
raise-mode messages and the collect-mode diagnostics cannot drift.
These tests pin that contract: same defect, same message, same
exception type, same precedence order.
"""

import numpy as np
import pytest

from repro.analyze.compiled import validate_terms
from repro.analyze.markov import generator_defects
from repro.compile.ctmc import CompiledCTMC, Param
from repro.exceptions import DistributionError, ModelDefinitionError
from repro.markov.solvers import validate_generator

BAD_GENERATORS = [
    np.array([[-1.0, 0.5], [2.0, -2.0]]),            # M001 row sum
    np.array([[1.0, -1.0], [2.0, -2.0]]),            # M002 negative off-diag
    np.array([[np.nan, np.nan], [2.0, -2.0]]),       # M003 non-finite
    np.array([[-1.0, 1.0, 0.0], [2.0, -2.0, 0.0]]),  # M004 non-square
]


class TestGeneratorBitIdentity:
    @pytest.mark.parametrize("q", BAD_GENERATORS, ids=["M001", "M002", "M003", "M004"])
    def test_raise_message_equals_first_defect_message(self, q):
        _n, defects = generator_defects(q, 1e-8)
        assert defects
        with pytest.raises(ModelDefinitionError) as excinfo:
            validate_generator(q)
        assert str(excinfo.value) == defects[0].message

    def test_clean_generator_agrees(self):
        q = np.array([[-1e-3, 1e-3], [0.5, -0.5]])
        assert validate_generator(q) == 2
        n, defects = generator_defects(q, 1e-8)
        assert (n, defects) == (2, [])

    def test_tolerance_scaling_agrees(self):
        # row-sum deviation 1e-4 against entries of 1e9: inside the
        # relative tolerance for both the validator and the analyzer.
        q = np.array([[-1e9, 1e9 + 1e-4], [2.0, -2.0]])
        assert validate_generator(q) == 2
        assert generator_defects(q, 1e-8)[1] == []

    def test_negative_tolerance_still_rejected(self):
        with pytest.raises(ModelDefinitionError, match="tolerance must be >= 0"):
            validate_generator(np.eye(2), tol=-1.0)


class TestCompiledValidateBitIdentity:
    def _chain(self):
        return CompiledCTMC(
            ["up", "down"], [(0, 1, Param("lam")), (1, 0, Param("mu"))]
        )

    def test_missing_parameter_same_keyerror(self):
        chain = self._chain()
        with pytest.raises(KeyError) as via_method:
            chain.validate({"lam": 1.0})
        with pytest.raises(KeyError) as via_shared:
            validate_terms(chain._terms, {"lam": 1.0})
        assert str(via_method.value) == str(via_shared.value)

    def test_bad_rate_same_distribution_error(self):
        chain = self._chain()
        values = {"lam": -1.0, "mu": 2.0}
        with pytest.raises(DistributionError) as via_method:
            chain.validate(values)
        with pytest.raises(DistributionError) as via_shared:
            validate_terms(chain._terms, values)
        assert str(via_method.value) == str(via_shared.value)

    def test_clean_values_pass_both(self):
        chain = self._chain()
        values = {"lam": 1e-3, "mu": 0.5}
        chain.validate(values)
        validate_terms(chain._terms, values)
