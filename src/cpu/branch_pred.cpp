#include "branch_pred.h"

#include <algorithm>
#include <stdexcept>

namespace eddie::cpu
{

BranchPredictor::BranchPredictor(std::size_t history_bits)
{
    if (history_bits == 0 || history_bits > 24)
        throw std::invalid_argument("BranchPredictor: bad history bits");
    const std::size_t entries = std::size_t(1) << history_bits;
    mask_ = entries - 1;
    table_.assign(entries, 1); // weakly not-taken
}

bool
BranchPredictor::predict(std::uint64_t pc) const
{
    return table_[index(pc)] >= 2;
}

void
BranchPredictor::reset()
{
    std::fill(table_.begin(), table_.end(), 1);
    history_ = 0;
    lookups_ = 0;
    mispredicts_ = 0;
}

} // namespace eddie::cpu
