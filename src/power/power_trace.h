/**
 * @file
 * Per-cycle energy accumulation sampled into a power trace, mirroring
 * the paper's setup of sampling the simulator-generated power signal
 * every fixed number of cycles.
 */

#ifndef EDDIE_POWER_POWER_TRACE_H
#define EDDIE_POWER_POWER_TRACE_H

#include <cstdint>
#include <vector>

namespace eddie::power
{

/**
 * Accumulates energy deposited at arbitrary cycles into fixed-width
 * sample buckets (power = energy per bucket).
 *
 * The simulator deposits several events per retired instruction, so
 * deposit() and sampleOf() are inline and divide by a multiply-shift
 * reciprocal instead of a 64-bit divide.
 */
class PowerTrace
{
  public:
    /**
     * @param cycles_per_sample bucket width (paper: 20 cycles)
     * @param clock_hz simulated core clock, for the sample rate
     */
    PowerTrace(std::uint64_t cycles_per_sample, double clock_hz);

    /** Deposits @p energy at absolute @p cycle. */
    void deposit(std::uint64_t cycle, double energy)
    {
        bucket(sampleOf(cycle)) += energy;
    }

    /** Sample bucket @p b, growing the trace to hold it. */
    double &bucket(std::uint64_t b)
    {
        if (b >= samples_.size())
            grow(b);
        return samples_[b];
    }

    /**
     * Finalizes the trace up to @p end_cycle, adding
     * @p baseline_per_cycle to every cycle.
     */
    void finalize(std::uint64_t end_cycle, double baseline_per_cycle);

    /** Sample rate of the trace in Hz. */
    double sampleRate() const;

    std::uint64_t cyclesPerSample() const { return cycles_per_sample_; }

    const std::vector<double> &samples() const { return samples_; }
    std::vector<double> takeSamples() { return std::move(samples_); }

    /** Bucket index of a cycle: exactly cycle / cyclesPerSample(). */
    std::uint64_t sampleOf(std::uint64_t cycle) const
    {
        if (magic_ == 0)
            return cycle / cycles_per_sample_;
        __extension__ using U128 = unsigned __int128;
        return std::uint64_t((U128(cycle) * magic_) >> 64) >> shift_;
    }

  private:
    void grow(std::uint64_t bucket);

    std::uint64_t cycles_per_sample_;
    /** floor(cycle * magic_ / 2^(64 + shift_)) == cycle / width for
     *  every 64-bit cycle; 0 when no such 64-bit magic exists. */
    std::uint64_t magic_ = 0;
    unsigned shift_ = 0;
    double clock_hz_;
    std::vector<double> samples_;
};

} // namespace eddie::power

#endif // EDDIE_POWER_POWER_TRACE_H
