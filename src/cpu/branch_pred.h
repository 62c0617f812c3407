/**
 * @file
 * Gshare branch direction predictor.
 */

#ifndef EDDIE_CPU_BRANCH_PRED_H
#define EDDIE_CPU_BRANCH_PRED_H

#include <cstdint>
#include <vector>

namespace eddie::cpu
{

/** Gshare: global history XOR PC indexing a table of 2-bit counters. */
class BranchPredictor
{
  public:
    /** @param history_bits table has 2^history_bits counters */
    explicit BranchPredictor(std::size_t history_bits = 12);

    /** Predicts the direction of the branch at @p pc. */
    bool predict(std::uint64_t pc) const;

    /** Updates counters and history with the resolved direction.
     *  @return true when the earlier prediction was correct. */
    bool update(std::uint64_t pc, bool taken)
    {
        std::uint8_t &ctr = table_[index(pc)];
        const bool predicted = ctr >= 2;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & mask_;
        ++lookups_;
        const bool correct = predicted == taken;
        if (!correct)
            ++mispredicts_;
        return correct;
    }

    void reset();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

  private:
    std::size_t index(std::uint64_t pc) const
    {
        return std::size_t(pc ^ history_) & mask_;
    }

    std::size_t mask_;
    std::vector<std::uint8_t> table_;
    std::uint64_t history_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace eddie::cpu

#endif // EDDIE_CPU_BRANCH_PRED_H
