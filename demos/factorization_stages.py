"""Factor a representation through the five-stage diagonal chain.

A representation on lp(p) with p >= 2 factors as

    lp(p) -> linf -> lp(r) -> c0 -> lp(2) -> lp(1) -> lp(p)

with both middle diagonals carrying mu^(s/2) and the decay diagonal
carrying mu^(1-s); below p = 2 the chain runs on the conjugate lp(p')
(the p = 4/3 case prints lp(4) tags).  The demo prints each stage's name
and tags, verifies the reconstruction, and shows the three summing
certificates whose exponents (r, 2, p) always spend exactly the full
reciprocal budget 1.
"""

import numpy as np

from nuctrace import (
    NuclearRep,
    build_pipeline,
    conjugate_tag,
    lp,
    row_norms,
    summing_certificates,
)

rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1618)))


def demo(p, dim=12, n_terms=6):
    ambient = lp(p, dim)
    conj = conjugate_tag(ambient)
    # rows drawn in term order f_0, v_0, f_1, v_1, ...
    draws = rng.standard_normal((n_terms, 2, dim))
    fun = draws[:, 0] / row_norms(draws[:, 0], conj)[:, None]
    vec = draws[:, 1] / row_norms(draws[:, 1], ambient)[:, None]
    rep = NuclearRep(ambient, [(k + 1.0) ** -1.5 for k in range(n_terms)], fun, vec)
    pipe = build_pipeline(rep)
    print(f"p = {pipe.triple.p}: s = {pipe.triple.s}, r = {pipe.triple.r}")
    for name, stage in pipe.stages.items():
        print(f"  {name:>13}: {str(stage.domain):>12} -> {stage.codomain}")
    print(f"  reconstruction error {pipe.reconstruction_error:.2e}")
    for cert in summing_certificates(pipe):
        print(f"  {cert.stage_label}: Pi_{cert.exponent} bound {cert.bound:.6f}  [{cert.formula}]")
    print()


for p in (2, "4/3", 4, np.inf):
    demo(p)
