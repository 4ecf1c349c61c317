"""Chain steps and candidate collection one state at a time (test oracles).

:func:`run_steps` is the TMCMC kernel with the same draw protocol as
:func:`prime_oracle.tmcmc.run_steps`, but it evaluates the log target at
every proposal in range instead of reusing the stored value of the state the
chain last left.  :func:`collect_candidates` is the per-step loop that
:func:`prime_oracle.pipeline.collect_candidates` replaced with block-wise
numpy reductions: it runs the whole chain through :func:`run_steps`, then
floors ``exp(z)`` with Python integers state by state and probes a dict for
every visit.  Neither shares code with the loops it checks beyond the chain
type and the compiled log target.
"""

import math

from prime_oracle.pipeline import CollectResult
from prime_oracle.tmcmc import Z_MAX, TmcmcChain, initial_z, make_log_target

U64_LIMIT = 1 << 64


def run_steps(chain, target, config, iterations):
    """Advance ``chain`` by ``iterations`` steps; the state after each, as a list."""
    log_t = target if callable(target) else make_log_target(target)
    rng_random = chain.rng.random
    z = chain.z
    lz = log_t(z) if chain.log_density is None else chain.log_density
    zs = []
    for _ in range(iterations):
        if rng_random() < config.p_add:
            z_new = z + (config.add_scale if rng_random() < 0.5 else -config.add_scale)
            log_jac = 0.0
            chain.proposals_add += 1
        else:
            log_jac = config.mult_scale if rng_random() < 0.5 else -config.mult_scale
            z_new = z * math.exp(log_jac)
            chain.proposals_mult += 1
        if abs(z_new) > Z_MAX:
            chain.auto_rejects += 1
        else:
            d = log_t(z_new) - lz + log_jac
            if d >= 0.0 or rng_random() < math.exp(d):
                z = z_new
                lz = lz + (d - log_jac)
                if log_jac == 0.0:
                    chain.accepts_add += 1
                else:
                    chain.accepts_mult += 1
        zs.append(z)
    chain.z = z
    chain.log_density = lz
    chain.iteration += iterations
    return zs


def collect_candidates(target, config, iterations, burn_in=0, snapshot=None):
    """Same contract as :func:`prime_oracle.pipeline.collect_candidates`."""
    if snapshot is None:
        chain = TmcmcChain(initial_z(target), config.seed)
    else:
        chain = TmcmcChain.from_snapshot(snapshot)
    visited = {}
    skipped_small = 0
    skipped_oversize = 0
    p0 = target.p0
    first = chain.iteration + 1
    for it, z in enumerate(run_steps(chain, target, config, iterations), start=first):
        if it <= burn_in:
            continue
        c = int(math.exp(z))
        if c <= 1:
            skipped_small += 1
            continue
        value = c + p0
        if value >= U64_LIMIT:
            skipped_oversize += 1
            continue
        if value not in visited:
            visited[value] = it
    return CollectResult(visited, chain, skipped_small, skipped_oversize)
