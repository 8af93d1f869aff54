"""Walk through the exact exponent relations.

Every quantity below is an exact rational (infinity is the exact
reciprocal 0); nothing in this demo touches floating point.
"""

from nuctrace import (
    INF,
    Exponent,
    ParameterTriple,
    check_holder_chain,
    conjugate,
    r_from_s,
    reduce_to_p_ge_2,
    s_from_p,
)

print("summability order s and residual exponent r for a grid of p:")
print(f"{'p':>8} {'conj p':>8} {'reduced':>8} {'s':>6} {'r':>6}   1/r + 1/2 + 1/p = 1?")
for text in ["1", "6/5", "4/3", "3/2", "2", "7/3", "3", "4", "7", "100", "inf"]:
    p = Exponent(text)
    p2 = reduce_to_p_ge_2(p)
    triple = ParameterTriple(p)
    chain = check_holder_chain([triple.r, Exponent(2), p2])
    print(
        f"{str(p):>8} {str(conjugate(p)):>8} {str(p2):>8} "
        f"{str(triple.s):>6} {str(triple.r):>6}   {chain}"
    )

# the two endpoints worth remembering: the Hilbert case needs no decay
# budget at all (r = inf), the sup-normed case needs the full 2/3 order
assert s_from_p(Exponent(2)).value.numerator == 1
assert str(s_from_p(INF)) == "2/3"
assert r_from_s(s_from_p(INF)) == Exponent(2)

# s never distinguishes p from its conjugate, so everything below 2
# reduces to the mirror exponent above 2
for text in ["1", "4/3", "8/5"]:
    p = Exponent(text)
    assert s_from_p(p) == s_from_p(conjugate(p))

print("\nall identities verified exactly (rational arithmetic, no rounding)")
