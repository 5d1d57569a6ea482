"""Reference forms of the joint age transform E[exp(-s . A)].

The library evaluates the joint transform by a subset recursion, which
never orders the sources.  These are independent forms to check it
against: the same recursion as a plain loop over every subset of all K
sources, the K! permutation sum over the sources' recency orderings, and
the reduced closed form for two sources.
"""

from __future__ import annotations

import itertools
import math


def joint_laplace_subset_loop(spec, s) -> float:
    """E[exp(-s . A)] as F(all sources) of the subset recursion

        F(H) = sum_{k in H} lambda_k L_k(sbar_H + lambda) F(H - {k})
               / (sbar_H + sum_{j in H} lambda_j L_j(sbar_H + lambda)),

    F({}) = 1, run one bitmask at a time over all 2^K subsets with the
    scalar service transforms: no reduction to the support of s.
    """
    K = spec.num_sources
    svec = [float(v) for v in s]
    lam = spec.total_rate
    nmask = 1 << K
    # per-subset tables indexed by bitmask; a mask's subsets come before it
    sbar = [0.0] * nmask
    F = [1.0] + [0.0] * (nmask - 1)
    for mask in range(1, nmask):
        low = (mask & -mask).bit_length() - 1
        sbar[mask] = sbar[mask & (mask - 1)] + svec[low]
        arg = sbar[mask] + lam
        rate_sum = 0.0
        acc = 0.0
        for k in range(K):
            if mask >> k & 1:
                val = spec.rates[k] * spec.services[k].laplace(arg)
                rate_sum += val
                acc += val * F[mask ^ (1 << k)]
        F[mask] = acc / (sbar[mask] + rate_sum)
    return F[nmask - 1]


def joint_laplace_permutation_sum(spec, s) -> float:
    """E[exp(-s . A)] as the sum over the K! recency orderings.

    The term for ordering (j_1, ..., j_K) is a product over positions of
    L_{j_m}(sbar + lambda) / (sbar + lbar * L_H(sbar + lambda)), where H is
    the suffix {j_m, ..., j_K}, sbar and lbar are the suffix sums of s and
    of the rates, and L_H is the rate-weighted suffix mixture transform; the
    sum is scaled by the product of the rates.
    """
    K = spec.num_sources
    svec = [float(v) for v in s]
    lam = spec.total_rate
    nmask = 1 << K
    sbar = [0.0] * nmask
    denom = [0.0] * nmask
    numer = [[0.0] * nmask for _ in range(K)]
    for mask in range(1, nmask):
        low = (mask & -mask).bit_length() - 1
        sbar[mask] = sbar[mask & (mask - 1)] + svec[low]
        arg = sbar[mask] + lam
        acc = 0.0
        for k in range(K):
            if mask >> k & 1:
                val = spec.services[k].laplace(arg)
                numer[k][mask] = val
                acc += spec.rates[k] * val
        denom[mask] = sbar[mask] + acc
    terms = []
    for perm in itertools.permutations(range(K)):
        mask = nmask - 1
        prod = 1.0
        for k in perm:
            prod *= numer[k][mask] / denom[mask]
            mask &= ~(1 << k)
        terms.append(prod)
    return math.prod(spec.rates) * math.fsum(terms)


def joint_aoi_laplace_two_source(spec, s1: float, s2: float) -> float:
    """Two-source joint transform in its reduced closed form.

    With sbar = s1 + s2 and L_S the rate-weighted mixture transform,
    lambda_1 lambda_2 / (sbar + lambda L_S(sbar + lambda)) times the sum
    over k of L_k(s_k + lambda) L_j(sbar + lambda) / (s_k + lambda_k
    L_k(s_k + lambda)), j the other source.
    """
    if spec.num_sources != 2:
        raise ValueError(f"two-source form needs exactly 2 sources, got {spec.num_sources}")
    lam = spec.total_rate
    sbar = s1 + s2
    l1, l2 = spec.rates
    m1, m2 = spec.services
    # lam L_S(sbar + lam), L_S the rate-weighted mix of the two transforms
    mix = math.fsum(r * m.laplace(sbar + lam) for r, m in zip(spec.rates, spec.services))
    outer = l1 * l2 / (sbar + mix)
    term1 = m1.laplace(s1 + lam) * m2.laplace(sbar + lam) / (s1 + l1 * m1.laplace(s1 + lam))
    term2 = m2.laplace(s2 + lam) * m1.laplace(sbar + lam) / (s2 + l2 * m2.laplace(s2 + lam))
    return outer * (term1 + term2)
