import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from randlab import BudgetError, automorphisms, pure_set, type_space
from randlab.cli import main
from randlab.errors import DEFAULT_BUDGET, budget, charge, limit


def test_budget_scopes_nest_and_restore():
    assert limit() == DEFAULT_BUDGET
    with budget(10):
        assert limit() == 10
        with budget(3):
            assert limit() == 3
        assert limit() == 10
    assert limit() == DEFAULT_BUDGET


def test_budget_restores_the_limit_after_an_exception():
    with pytest.raises(BudgetError):
        with budget(5):
            charge("probe", 6)
    assert limit() == DEFAULT_BUDGET


def test_cli_leaves_the_default_limit_behind(tmp_path):
    path = tmp_path / "ws.rl"
    path.write_text("structure c3 { universe = 3; relation E/2 = {(0,1), (1,2), (2,0)}; }\n")
    # one command refused (3**2 pairs), one run to the end
    for limit_arg, code in (("3", 4), ("1000", 0)):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            got = main(["--workspace", str(path), "--budget", limit_arg, "types",
                        "--structure", "c3", "--arity", "2"])
        assert got == code
        assert limit() == DEFAULT_BUDGET


def test_a_warm_automorphism_group_runs_no_search():
    p8 = pure_set(8)
    assert len(automorphisms(p8)) == math.factorial(8)
    with budget(1):
        # refused as its search would be, without running it again
        with pytest.raises(BudgetError) as err:
            automorphisms(p8)
        assert err.value.required == 2
        # a type space charges its tuples on every call, cached or not
        with pytest.raises(BudgetError) as err:
            type_space(p8, 1)
    assert err.value.required == 8
