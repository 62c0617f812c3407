#include "ks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "special.h"

namespace eddie::stats
{

namespace
{

/** EDF sup-distance by simultaneous merge-walk of two sorted
 *  samples, O(m + n). */
double
ksSortedMergeWalk(std::span<const double> r, std::span<const double> m)
{
    double d = 0.0;
    std::size_t i = 0, j = 0;
    const double inv_r = 1.0 / double(r.size());
    const double inv_m = 1.0 / double(m.size());
    while (i < r.size() && j < m.size()) {
        const double x = std::min(r[i], m[j]);
        while (i < r.size() && r[i] <= x)
            ++i;
        while (j < m.size() && m[j] <= x)
            ++j;
        d = std::max(d, std::abs(double(i) * inv_r - double(j) * inv_m));
    }
    // Remaining tail cannot increase the gap beyond 1 - min EDFs, but
    // check the step where one sample is exhausted.
    d = std::max(d, std::abs(1.0 - double(j) * inv_m));
    d = std::max(d, std::abs(double(i) * inv_r - 1.0));
    return d;
}

/**
 * EDF sup-distance evaluated only at the monitored sample's jump
 * points, locating the reference EDF by binary search: O(n log m).
 * The candidate maxima of |R - M| are the steps of either EDF; at a
 * reference-only step between two monitored values, M is constant
 * and R is largest just before the next monitored value, which the
 * r_before_next probe covers — so walking monitored tie groups
 * suffices.
 */
double
ksSortedSearchWalk(std::span<const double> ref,
                   std::span<const double> mon)
{
    const std::size_t m = ref.size();
    const std::size_t n = mon.size();
    const double inv_m = 1.0 / double(m);
    const double inv_n = 1.0 / double(n);
    double d = 0.0;

    // Before the first monitored point M = 0; R can rise up to
    // R(mon[0]^-).
    {
        const auto lb =
            std::lower_bound(ref.begin(), ref.end(), mon[0]);
        d = std::max(d, double(lb - ref.begin()) * inv_m);
    }
    // Walk distinct monitored values; M only plateaus after the last
    // occurrence of a tie group.
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && mon[j + 1] == mon[i])
            ++j;
        const double level = double(j + 1) * inv_n; // M on [mon[i], next)
        const auto ub =
            std::upper_bound(ref.begin(), ref.end(), mon[i]);
        const double r_at = double(ub - ref.begin()) * inv_m;
        d = std::max(d, std::abs(r_at - level));
        const double next = (j + 1 < n)
                                ? mon[j + 1]
                                : std::numeric_limits<double>::infinity();
        const auto lb = std::lower_bound(ref.begin(), ref.end(), next);
        const double r_before_next =
            double(lb - ref.begin()) * inv_m;
        d = std::max(d, std::abs(r_before_next - level));
        i = j + 1;
    }
    return d;
}

} // namespace

double
ksStatisticSorted(std::span<const double> sorted_reference,
                  std::span<const double> sorted_monitored)
{
    const std::size_t m = sorted_reference.size();
    const std::size_t n = sorted_monitored.size();
    if (m == 0 || n == 0)
        return 0.0;
    // The monitor compares small groups (n ~ 8..64) against large
    // references (m up to thousands): there the log-search walk does
    // ~2 n log2 m probes against the merge walk's m + n steps.
    // Lopsidedness the other way is symmetric.
    if (n * 32 < m)
        return ksSortedSearchWalk(sorted_reference, sorted_monitored);
    if (m * 32 < n)
        return ksSortedSearchWalk(sorted_monitored, sorted_reference);
    return ksSortedMergeWalk(sorted_reference, sorted_monitored);
}

double
ksStatisticRanked(std::span<const RankedValue> g, std::size_t m)
{
    const std::size_t n = g.size();
    if (m == 0 || n == 0)
        return 0.0;
    const double inv_m = 1.0 / double(m);
    const double inv_n = 1.0 / double(n);
    const auto gap = [&](std::size_t i, std::size_t j) {
        return std::abs(double(i) * inv_m - double(j) * inv_n);
    };
    double d = 0.0;
    if (n * 32 < m || m * 32 < n) {
        // ksStatisticSorted's search walks. Walking the monitored tie
        // groups visits, per group ending at e, R at the group (le)
        // and R just before the next group (its lt; m past the last).
        // Walking the reference instead visits the other plateaus'
        // endpoints; both reach the maximum of |R - M| over the whole
        // walk, so one loop serves both.
        d = double(g[0].lt) * inv_m;
        for (std::size_t k = 0; k < n;) {
            std::size_t e = k + 1;
            while (e < n && g[e].value == g[k].value)
                ++e;
            d = std::max(d, gap(g[k].le, e));
            d = std::max(d, gap(e < n ? g[e].lt : m, e));
            k = e;
        }
        return d;
    }
    // Merge walk: between two monitored tie groups R climbs from the
    // first group's le to the next group's lt while M stays put, so
    // |R - M| peaks at one of those two ends. The walk stops once
    // either sample is used up; its two tail terms use the counts at
    // that point, exactly as ksSortedMergeWalk does.
    std::size_t exit_i = 0, exit_j = n, j = 0;
    for (std::size_t k = 0; k < n;) {
        std::size_t e = k + 1;
        while (e < n && g[e].value == g[k].value)
            ++e;
        d = std::max(d, gap(g[k].lt, j));
        if (g[k].lt == m) {
            exit_i = m;
            exit_j = j;
            break;
        }
        d = std::max(d, gap(g[k].le, e));
        exit_i = g[k].le;
        j = e;
        if (g[k].le == m) {
            exit_j = e;
            break;
        }
        k = e;
    }
    d = std::max(d, std::abs(1.0 - double(exit_j) * inv_n));
    d = std::max(d, std::abs(double(exit_i) * inv_m - 1.0));
    return d;
}

double
ksStatistic(std::span<const double> reference,
            std::span<const double> monitored)
{
    if (reference.empty() || monitored.empty())
        return 0.0;

    std::vector<double> r(reference.begin(), reference.end());
    std::vector<double> m(monitored.begin(), monitored.end());
    std::sort(r.begin(), r.end());
    std::sort(m.begin(), m.end());
    return ksStatisticSorted(r, m);
}

double
ksCritical(std::size_t m, std::size_t n, double alpha)
{
    if (m == 0 || n == 0)
        return 1.0;
    const double dm = double(m), dn = double(n);
    return kolmogorovCritical(alpha) * std::sqrt((dm + dn) / (dm * dn));
}

namespace
{

KsResult
ksResultFromStatistic(double statistic, std::size_t m_count,
                      std::size_t n_count, double alpha)
{
    KsResult res;
    const double m = double(m_count);
    const double n = double(n_count);
    res.statistic = statistic;
    res.critical = kolmogorovCritical(alpha) * std::sqrt((m + n) / (m * n));
    const double en = std::sqrt(m * n / (m + n));
    // Stephens' small-sample correction improves the asymptotic
    // p-value for the modest n used in online monitoring.
    const double lambda = (en + 0.12 + 0.11 / en) * res.statistic;
    res.p_value = kolmogorovQ(lambda);
    res.reject = res.statistic > res.critical;
    return res;
}

} // namespace

KsResult
ksTest(std::span<const double> reference, std::span<const double> monitored,
       double alpha)
{
    if (reference.empty() || monitored.empty())
        return KsResult();
    return ksResultFromStatistic(ksStatistic(reference, monitored),
                                 reference.size(), monitored.size(),
                                 alpha);
}

KsResult
ksTestSorted(std::span<const double> sorted_reference,
             std::span<const double> sorted_monitored, double alpha)
{
    if (sorted_reference.empty() || sorted_monitored.empty())
        return KsResult();
    return ksResultFromStatistic(
        ksStatisticSorted(sorted_reference, sorted_monitored),
        sorted_reference.size(), sorted_monitored.size(), alpha);
}

double
ksStatisticOneSample(std::span<const double> sample,
                     double (*cdf)(double, const void *), const void *ctx)
{
    if (sample.empty())
        return 0.0;
    std::vector<double> s(sample.begin(), sample.end());
    std::sort(s.begin(), s.end());
    const double n = double(s.size());
    double d = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const double f = cdf(s[i], ctx);
        d = std::max(d, std::abs(double(i + 1) / n - f));
        d = std::max(d, std::abs(f - double(i) / n));
    }
    return d;
}

} // namespace eddie::stats
