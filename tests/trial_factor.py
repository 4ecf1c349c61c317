"""Mersenne trial factoring one divisor at a time (test oracle).

The code under test is :func:`prime_oracle.pipeline.trial_factor_batch`,
one sieved, vectorised sweep over many exponents at once, and its
one-exponent view :func:`prime_oracle.pipeline.mersenne_small_factor`.
This is the scalar loop they replaced: for one exponent at a time it walks
every ``q = 2mp + 1`` below the bound in order, keeps those congruent to
+-1 mod 8, and tests each with Python's own ``pow(2, p, q)``.  It strikes
nothing and shares no lanes, so it is an independent route to the same
smallest divisors.
"""

import math

from prime_oracle.errors import DomainError


def mersenne_small_factor(p: int, bits: int) -> int | None:
    """Smallest ``q = 2mp + 1 < 2**bits`` (capped at ``isqrt(2**p - 1)``) dividing ``2**p - 1``."""
    if bits < 2 or bits > 48:
        raise DomainError("trial-factor bits must lie in [2, 48]")
    limit = 1 << bits
    if p <= 2 * bits:  # only then can 2**bits reach past sqrt(2**p - 1)
        limit = min(limit, math.isqrt((1 << p) - 1) + 1)
    q = 2 * p + 1
    while q < limit:
        if q % 8 in (1, 7) and pow(2, p, q) == 1:
            return q
        q += 2 * p
    return None


def trial_factor_batch(ps, bits) -> list[int | None]:
    """:func:`mersenne_small_factor` of each exponent; ``bits`` is one int or one per exponent."""
    levels = [bits] * len(ps) if isinstance(bits, int) else bits
    return [mersenne_small_factor(p, b) for p, b in zip(ps, levels, strict=True)]


if __name__ == "__main__":
    # The live 30-bit sweep over every odd prime below 3000 takes about a
    # minute, so the tests read its output from a file.  Regenerate it with
    #   PYTHONPATH=src python tests/trial_factor.py > tests/data/mersenne_factors_30bit.txt
    from prime_oracle.numtheory import primes_up_to

    print("# p and mersenne_small_factor(p, 30) of tests/trial_factor.py, for every odd prime p < 3000")
    for p in primes_up_to(3000).primes[1:].tolist():
        print(p, mersenne_small_factor(p, 30))
