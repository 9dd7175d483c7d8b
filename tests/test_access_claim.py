"""The abstract's access claim for every AP: upgrading the central AP with
mMIMO-U "provides increased channel access opportunities for all of them".

Access success is an AP's pooled grants over its pooled attempts, a ratio of
two drop sums. Drops are independent, so its error is the drop-level
ratio-estimator standard error, exact to compute from the per-drop counts.
The test reads the desk-scale runs that criterion 4 already makes.
"""

import math

import pytest


def ratio_se(numerators, denominators):
    """Drop-level standard error of R = sum(x) / sum(y):
    sqrt(sum((x_i - R y_i)^2) / (n (n - 1))) / mean(y)."""
    n = len(numerators)
    ratio = sum(numerators) / sum(denominators)
    spread = sum((x - ratio * y) ** 2 for x, y in zip(numerators, denominators))
    return math.sqrt(spread / (n * (n - 1))) / (sum(denominators) / n)


def access_with_se(results, ap):
    grants = [d.ap_grants[ap] for d in results.drops]
    attempts = [d.ap_attempts[ap] for d in results.drops]
    return results.ap_access_success(ap), ratio_se(grants, attempts)


def test_ratio_se_by_hand():
    # R = 4 / 6; residuals -1/3 and +1/3; sqrt((2/9) / 2) / 3 = 1/9
    assert ratio_se([1, 3], [2, 4]) == pytest.approx(1.0 / 9.0, rel=1e-12)
    # a drop on the ratio adds no spread but counts in n and in the mean
    assert ratio_se([1, 3, 2], [2, 4, 3]) == pytest.approx(math.sqrt((2.0 / 9.0) / 6.0) / 3.0, rel=1e-12)
    assert ratio_se([2, 4], [4, 8]) == 0.0


@pytest.mark.parametrize("ap", [0, 1, 2])
def test_mmimo_u_raises_every_aps_access(sim_cache, ap):
    acc = {s: access_with_se(sim_cache(s, 1.0)[0], ap) for s in "ABC"}
    (c, se_c) = acc["C"]
    for s in "AB":
        other, se_other = acc[s]
        assert c - other > 2.0 * math.hypot(se_c, se_other), (ap, s, acc)
