#!/usr/bin/env python3
"""End-to-end prime hunting at desk scale.

The sampler walks the log-reparameterized predictive surface; every visited
state is floored, shifted above the starting prime and primality-tested.
The Mersenne-exponent variant carries the extra -exp(z)*log(2) term from the
change of variable s = 2^t - 1, so candidate exponents are generated without
ever forming a power of two.
"""

import tempfile
from pathlib import Path

from prime_oracle import HuntPlan, TmcmcConfig, hunt_general, hunt_mersenne, verify_file
from prime_oracle.numtheory import lucas_lehmer, mersenne_digit_count, primes_up_to

workdir = Path(tempfile.mkdtemp(prefix="prime-hunt-"))
out = workdir / "records.jsonl"

print("hunting general primes above 999983 (two target shapes, 1e5 iterations each)...")
plan = HuntPlan(p0=999_983, iterations=100_000, config=TmcmcConfig(seed=42), out_path=out)
result = hunt_general(plan)
for rec in result.records:
    print(f"  found {rec.value}  (target {rec.target_kind}, iteration {rec.iteration_found})")
print(f"  target overlap: {result.stats.intersection_report()}")
print(f"  {result.stats.summary()}")

print("\nhunting candidate Mersenne exponents above the twin prime 1000037...")
mers = hunt_mersenne(
    HuntPlan(p0=1_000_037, iterations=100_000, burn_in=100_000, config=TmcmcConfig(seed=3))
)
for rec in mers.records:
    print(f"  candidate exponent {rec.value}: 2^{rec.value}-1 has {rec.digit_count} digits")
print(f"  {mers.stats.summary()}")

values_file = workdir / "values.txt"
values_file.write_text("".join(f"{rec.value}\n" for rec in result.records))
report = verify_file(values_file)
print(f"\nindependent re-verification of the persisted values: {report.summary()}")

print("\nexact certification only reaches small exponents; sweeping p <= 1000:")
found = [p for p in primes_up_to(1000).primes if int(p) > 2 and lucas_lehmer(int(p))]
for p in found:
    print(f"  2^{p}-1 is prime ({mersenne_digit_count(int(p))} digits)")
