#include "energy_model.h"

#include <cmath>

namespace eddie::power
{

EnergyModel::EnergyModel(const EnergyParams &params, std::size_t l1_bytes,
                         std::size_t l2_bytes, std::size_t pipeline_depth)
    : baseline_per_cycle_(params.baseline_per_cycle)
{
    // First-order CACTI behaviour: access energy ~ sqrt(capacity).
    const double l1 = params.l1_ref *
        std::sqrt(double(l1_bytes) / double(32 * 1024));
    const double l2 = params.l2_ref *
        std::sqrt(double(l2_bytes) / double(256 * 1024));
    const double flush = params.flush_per_stage * double(pipeline_depth);
    energy_ = {params.issue_base, params.alu, params.mul,
               params.div,        params.branch, l1,
               l2,                params.dram, flush};
}

} // namespace eddie::power
