/**
 * @file
 * The simulator's random source: a 64-bit Mersenne Twister and a
 * biased coin decided on its raw output.
 *
 * The simulator draws once per retired instruction, so both are
 * built for that rate while keeping the draws and decisions of
 * `std::mt19937_64` and `std::uniform_real_distribution<double>`
 * exactly:
 *  - Mt19937x64 emits the same stream as std::mt19937_64 for the same
 *    seed. Its twist selects the matrix term with a mask instead of
 *    libstdc++'s data-dependent branch, which mispredicts about every
 *    other word.
 *  - The standard coin maps a 64-bit output x to a double through a
 *    monotone function (libstdc++: double(x) * 2^-64, clamped below
 *    1), so `coin < p` holds exactly for x below some threshold T(p).
 *    CoinThreshold finds T(p) once by bisection over the library's
 *    own mapping; each flip is then one integer compare.
 */

#ifndef EDDIE_CPU_RNG_H
#define EDDIE_CPU_RNG_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>

namespace eddie::cpu
{

/** std::mt19937_64's output stream with a branch-free twist. */
class Mt19937x64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937x64(result_type seed)
    {
        x_[0] = seed;
        for (std::size_t i = 1; i < kN; ++i)
            x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) +
                    i;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max()
    {
        return std::numeric_limits<result_type>::max();
    }

    result_type operator()()
    {
        if (p_ >= kN)
            twist();
        result_type z = x_[p_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    static constexpr result_type kUpper = ~result_type(0) << 31;
    static constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;

    static result_type mix(result_type hi, result_type lo, result_type far)
    {
        const result_type y = (hi & kUpper) | (lo & ~kUpper);
        return far ^ (y >> 1) ^ ((result_type(0) - (y & 1)) & kMatrix);
    }

    void twist()
    {
        std::size_t k = 0;
        for (; k < kN - kM; ++k)
            x_[k] = mix(x_[k], x_[k + 1], x_[k + kM]);
        for (; k < kN - 1; ++k)
            x_[k] = mix(x_[k], x_[k + 1], x_[k + kM - kN]);
        x_[kN - 1] = mix(x_[kN - 1], x_[0], x_[kM - 1]);
        p_ = 0;
    }

    result_type x_[kN];
    std::size_t p_ = kN;
};

/** `uniform_real_distribution<double>(0, 1)(g) < p` as `g() < T(p)`
 *  for a 64-bit engine g. */
class CoinThreshold
{
  public:
    /** Never true. */
    CoinThreshold() = default;

    explicit CoinThreshold(double p)
    {
        if (canonical(kMax) < p) {
            all_ = true; // p above every value the coin can take
            return;
        }
        // Smallest x with !(canonical(x) < p); exists, as x = kMax
        // qualifies. NaN p gives 0 (never true), as `coin < NaN` does.
        std::uint64_t lo = 0;
        std::uint64_t hi = kMax;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (canonical(mid) < p)
                lo = mid + 1;
            else
                hi = mid;
        }
        bound_ = lo;
    }

    /** The coin's verdict for engine output @p x. */
    bool operator()(std::uint64_t x) const { return x < bound_ || all_; }

    /** The coin value the standard distribution makes of engine
     *  output @p x. */
    static double canonical(std::uint64_t x)
    {
        Fixed g{x};
        return std::uniform_real_distribution<double>(0.0, 1.0)(g);
    }

  private:
    static constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();

    /** An "engine" that returns one fixed 64-bit output. */
    struct Fixed
    {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return kMax; }
        result_type operator()() const { return x; }
        result_type x;
    };

    std::uint64_t bound_ = 0;
    bool all_ = false;
};

} // namespace eddie::cpu

#endif // EDDIE_CPU_RNG_H
