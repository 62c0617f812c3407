/**
 * @file
 * Two-sample Kolmogorov-Smirnov test — the core statistical decision
 * procedure of EDDIE (paper Sec. 4.2).
 *
 * D_{m,n} = max_x | R(x) - M(x) | over the two empirical CDFs; the
 * null hypothesis (both samples drawn from the same population) is
 * rejected at significance alpha when
 * D_{m,n} > c(alpha) * sqrt((m+n)/(m n)).
 *
 * Two entry points per operation: the historical convenience API
 * that accepts unsorted samples (and pays a copy + sort per call),
 * and the presorted overloads that take already-ascending spans and
 * run allocation-free — the monitoring hot path calls the latter
 * thousands of times per second against immutable reference samples
 * that were sorted once at training time.
 */

#ifndef EDDIE_STATS_KS_H
#define EDDIE_STATS_KS_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace eddie::stats
{

/** Result of a two-sample K-S test. */
struct KsResult
{
    /** The D statistic: max |R(x) - M(x)|. */
    double statistic = 0.0;
    /** Critical value c(alpha) * sqrt((m+n)/(m n)). */
    double critical = 0.0;
    /** Asymptotic p-value. */
    double p_value = 1.0;
    /** True when the null hypothesis is rejected at alpha. */
    bool reject = false;
};

/**
 * Two-sample K-S test.
 *
 * @param reference training-time sample (m elements)
 * @param monitored monitoring-time sample (n elements)
 * @param alpha significance level (paper default 0.01, i.e. 99 %
 *              confidence)
 */
KsResult ksTest(std::span<const double> reference,
                std::span<const double> monitored, double alpha = 0.01);

/** Just the D statistic, without the decision machinery. Copies and
 *  sorts both samples; a thin wrapper over ksStatisticSorted. */
double ksStatistic(std::span<const double> reference,
                   std::span<const double> monitored);

/**
 * D statistic when both samples are already ascending-sorted.
 * Allocation-free. Picks between a merge-walk (O(m+n)) and a
 * binary-search walk over the reference (O(n log m)) depending on
 * how lopsided the sizes are; both produce the same statistic
 * (verified by the brute-force property tests).
 */
double ksStatisticSorted(std::span<const double> sorted_reference,
                         std::span<const double> sorted_monitored);

/**
 * One monitored value with its rank in a reference sample: @p lt
 * reference values lie strictly below it, @p le at or below it. A
 * monitor that tests the same value against the same reference on
 * many consecutive windows counts these once and keeps them.
 */
struct RankedValue
{
    double value = 0.0;
    std::uint32_t lt = 0;
    std::uint32_t le = 0;
};

/**
 * D statistic of a monitored group against a reference of @p m
 * values, from the group's ranks in that reference alone: O(n), no
 * reference access. @p sorted_group must be ascending by value and
 * every value finite. Bit-identical to ksStatisticSorted on the same
 * samples: it evaluates |i/m - j/n| at the endpoints of the walk
 * ksStatisticSorted would choose (docs/ALGORITHM.md §11, "Cached
 * reference ranks").
 */
double ksStatisticRanked(std::span<const RankedValue> sorted_group,
                         std::size_t m);

/** Full test on presorted samples; allocation-free. */
KsResult ksTestSorted(std::span<const double> sorted_reference,
                      std::span<const double> sorted_monitored,
                      double alpha = 0.01);

/** Critical value c(alpha) * sqrt((m+n)/(m n)) for sample sizes
 *  @p m and @p n. */
double ksCritical(std::size_t m, std::size_t n, double alpha);

/**
 * One-sample K-S distance between a sample's EDF and a model CDF
 * evaluated through @p cdf. Used by the parametric baseline.
 */
double ksStatisticOneSample(std::span<const double> sample,
                            double (*cdf)(double, const void *),
                            const void *ctx);

} // namespace eddie::stats

#endif // EDDIE_STATS_KS_H
