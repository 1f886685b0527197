# Adding 1 to an expansion by carry propagation.
#
# Incrementing a digit usually breaks admissibility.  The repair walks
# the free-block structure outward, each round trading the broken block
# for one subtracted tail value, and the rounds add up to an exact
# certificate for frac(x+1) - frac(x).

from betafin import (
    add_one,
    beta_expand,
    carry_step,
    d_beta_star,
    free_blocks,
    frac_part,
    make_field,
    format_word,
    t_orbit_of_one,
    witness_for_natural,
)
from betafin.words import Word

trib = make_field((1, 1, 1))
print("base:", trib, "| quasi-greedy word:", format_word(d_beta_star(trib)))

# the word 10(110)(110)1 and its free blocks
w = Word((1, 0, 1, 1, 0, 1, 1, 0, 1), ())
fb = free_blocks(trib, w)
print("word:", format_word(w))
print("block boundaries:", fb.boundaries(6), "...")

# x is the value with that digit string (L(x) = 9); x + 1 increments
# digit 9, between the boundaries k_1 = 2 and k_2 = 10, and the cascade
# repairs it in one round
b = trib.beta()
x = b**8 + b**6 + b**5 + b**3 + b**2 + 1
expansion, witness = add_one(x)
print("\nx + 1 expands as: L =", expansion.exponent, "digits =", format_word(expansion.word))
print(f"  carry round 1: {format_word(carry_step(trib, w, fb, 9, w.shift(9), fb.locate(9)))}")
print("witness: theta =", witness.theta, "omegas =", witness.omegas,
      "| verified:", witness.verified)
print("agrees with the direct expansion:",
      expansion == beta_expand(x + 1))

# certificates accumulate along 0, 1, 2, ..., N
fam = make_field((2, -4, 4))
print("\nbase:", fam)
for n in (5, 17, 50):
    omegas = witness_for_natural(n, fam)
    total = frac_part(fam.from_rational(n))
    orbit = t_orbit_of_one(fam, len(omegas))
    for j, o in enumerate(omegas):
        total = total + o * orbit[j]
    print(f"N = {n:3d}: omegas = {omegas} | congruence lands in Z:",
          total.is_rational() and total.as_rational().denominator == 1)
