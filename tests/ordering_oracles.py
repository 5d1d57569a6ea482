"""Reference evaluations that walk the sources' recency orderings.

The library evaluates the joint transform by a subset recursion and the
delivery-sampled (Palm) exponent as s . A(t+), neither of which orders
the sources.  These are the literal ordered forms they replace: the K!
permutation sum of the closed form, and the sorted, telescoped exponent
of one departure's Palm term.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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


def sorted_palm_exponent(last_update, last_delay, s) -> np.ndarray:
    """Per-row exponent of the Palm term, by sorting sources by recency.

    With the sources of a row sorted by decreasing update epoch U_(m), the
    exponent is sum_m s_(m) D_(m) + sum_{m >= 1} ssuf_m (U_(m-1) - U_(m)),
    where ssuf_m is the sum of the sorted arguments from position m on.
    """
    svec = np.asarray(s, dtype=float)
    order = np.argsort(-last_update, axis=1, kind="stable")
    SU = np.take_along_axis(last_update, order, axis=1)
    SD = np.take_along_axis(last_delay, order, axis=1)
    ss = svec[order]
    ssuf = np.cumsum(ss[:, ::-1], axis=1)[:, ::-1]
    expo = (ss * SD).sum(axis=1)
    if SU.shape[1] > 1:
        expo += (ssuf[:, 1:] * (-np.diff(SU, axis=1))).sum(axis=1)
    return expo
