"""The trace does not care which term list represents the operator.

We build a random nuclear representation, churn it through rewrite chains
(split / merge / rotate all leave the assembled matrix fixed), and watch
the trace and the eigenvalue sum hold still.
"""

import numpy as np

from nuctrace import (
    NuclearRep,
    SchemeNotApplicableError,
    assemble,
    conjugate_tag,
    lp,
    nuclear_trace,
    rewrite_equivalent,
    row_norms,
    spectral_report,
)

rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2718)))

dim, n_terms = 24, 9
ambient = lp(2, dim)
conj = conjugate_tag(ambient)
# rows drawn in term order f_0, v_0, f_1, v_1, ...
draws = rng.standard_normal((n_terms, 2, dim))
fun = draws[:, 0] / row_norms(draws[:, 0], conj)[:, None]
vec = draws[:, 1] / row_norms(draws[:, 1], ambient)[:, None]
rep = NuclearRep(ambient, [(k + 1.0) ** -1.3 for k in range(n_terms)], fun, vec)

t0 = nuclear_trace(rep)
print(f"start: {len(rep)} terms, trace = {t0:+.15f}")

cur = rep
for step in range(12):
    scheme = ("split", "rotate", "merge")[int(rng.integers(3))]
    try:
        cur = rewrite_equivalent(cur, scheme, seed=int(rng.integers(2**32)))
    except SchemeNotApplicableError:
        scheme = "split"  # no two terms are exact copies; fall back
        cur = rewrite_equivalent(cur, scheme, seed=int(rng.integers(2**32)))
    drift = nuclear_trace(cur) - t0
    frob = np.linalg.norm(assemble(cur).matrix - assemble(rep).matrix)
    print(f"  {scheme:>6} -> {len(cur):2d} terms   trace drift {drift:+.2e}   matrix drift {frob:.2e}")

report = spectral_report(cur)
print(f"\neigenvalue sum      = {report.eigen_sum.real:+.15f}")
print(f"representation trace = {nuclear_trace(cur):+.15f}")
print(f"trace identity residual {report.lidskii_residual:.2e}")
print(f"eigenvalue moduli sum {report.abs_sum:.6f} (finite, as promised)")
