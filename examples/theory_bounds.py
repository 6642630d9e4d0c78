"""Section 6 theory, numerically: search spaces and intervention bounds.

Prints Example 3, a Figure 6 instance, validates Lemma 1 against brute
force on random series-parallel DAGs, and checks the measured synthetic
intervention counts against the Theorem 2/3 bounds.

Run:  python examples/theory_bounds.py
"""

import random

from repro.core import discover
from repro.core.theory import (
    aid_upper_bound_branch,
    aid_upper_bound_pruning,
    count_cpd_solutions,
    cpd_lower_bound,
    gt_lower_bound,
    horizontal_expansion,
    symmetric_acdag,
    symmetric_search_space,
    tagt_upper_bound,
    vertical_expansion,
)
from repro.harness import example3_report, figure6_report
from repro.workloads import generate_app, spec_for_maxt

print(example3_report())
print()
print(figure6_report(junctions=3, branches=4, chain_length=3, n_causal=4, s1=2, s2=2))

# Lemma 1 vs brute force on symmetric DAGs small enough to enumerate.
print("\nLemma 1 closed form vs brute-force chain counting:")
for j, b, n in [(1, 2, 3), (2, 2, 2), (1, 3, 2), (3, 2, 1)]:
    graph = symmetric_acdag(j, b, n)
    brute = count_cpd_solutions(graph)
    closed = symmetric_search_space(j, b, n)
    composed = vertical_expansion(*[horizontal_expansion(*[2**n] * b)] * j)
    print(f"  J={j} B={b} n={n}:  brute={brute}  closed={closed}  "
          f"composed={composed}  agree={brute == closed == composed}")

# Bounds vs measured interventions on synthetic apps.
print("\nTheorem 2/3 bounds vs measured AID rounds (synthetic apps):")
for seed in range(5):
    app = generate_app(seed, spec_for_maxt(12))
    n, d = app.n_predicates, app.n_causal
    result = discover("AID", app.dag, app.runner(), rng=random.Random(seed))
    print(f"  app {seed}: N={n:3d} D={d:2d}  measured={result.n_rounds:3d}  "
          f"GT-lower={gt_lower_bound(n, d):6.1f}  "
          f"CPD-lower(S1=2)={cpd_lower_bound(n, d, 2):6.1f}  "
          f"TAGT-upper={tagt_upper_bound(n, d):6.1f}")

print("\nBranch-pruning bound (Section 6.3.1), J log T + D log N_M vs D log(T·N_M):")
for junctions, threads, path_len, d in [(2, 8, 10, 4), (1, 16, 12, 6), (4, 4, 8, 5)]:
    with_branch = aid_upper_bound_branch(junctions, threads, path_len, d)
    without = tagt_upper_bound(threads * path_len, d)
    pruning = aid_upper_bound_pruning(threads * path_len, d, s2=3)
    print(f"  J={junctions} T={threads} N_M={path_len} D={d}: "
          f"branch={with_branch:.1f}  tagt={without:.1f}  theorem3={pruning:.1f}")
