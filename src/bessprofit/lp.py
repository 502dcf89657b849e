"""Placeholders for the dispatch LP, which is in tests/_reference.py; the package
solves every dispatch by dynamic programming alone. These names and
``optimizer.build_lp`` exist only because perfbench/tracing.py binds them, as
``cli`` keeps an unused ``baseline_metrics`` import; they go with ROADMAP item 1.
"""

INFEASIBLE = "infeasible"


def solve(*args, **kwargs): raise NotImplementedError("the dispatch LP is in tests/_reference.py")


linprog = solve
