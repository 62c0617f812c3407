#include "power_trace.h"

#include <stdexcept>

namespace eddie::power
{

PowerTrace::PowerTrace(std::uint64_t cycles_per_sample, double clock_hz)
    : cycles_per_sample_(cycles_per_sample), clock_hz_(clock_hz)
{
    if (cycles_per_sample_ == 0)
        throw std::invalid_argument("PowerTrace: zero bucket width");
    if (clock_hz_ <= 0.0)
        throw std::invalid_argument("PowerTrace: bad clock");

    // Round-up reciprocal m = ceil(2^n / d), n = 64 + s. With
    // e = m*d - 2^n < d, cycle*m / 2^n = cycle/d + cycle*e / (d*2^n),
    // so the quotient is exact for every 64-bit cycle when
    // e * (2^64 - 1) < 2^n. Take the first s whose m fits 64 bits and
    // meets that bound; otherwise sampleOf() divides.
    __extension__ using U128 = unsigned __int128;
    const U128 d = cycles_per_sample_;
    for (unsigned s = 0; s < 64; ++s) {
        const U128 two_n = U128(1) << (64 + s);
        const U128 m = (two_n + d - 1) / d;
        if ((m >> 64) != 0)
            break; // m only grows with s
        const U128 e = m * d - two_n;
        if (e * U128(UINT64_MAX) < two_n) {
            magic_ = std::uint64_t(m);
            shift_ = s;
            break;
        }
    }
}

void
PowerTrace::grow(std::uint64_t bucket)
{
    samples_.resize(bucket + 1, 0.0);
}

void
PowerTrace::finalize(std::uint64_t end_cycle, double baseline_per_cycle)
{
    bucket(sampleOf(end_cycle));
    for (auto &s : samples_)
        s += baseline_per_cycle * double(cycles_per_sample_);
}

double
PowerTrace::sampleRate() const
{
    return clock_hz_ / double(cycles_per_sample_);
}

} // namespace eddie::power
