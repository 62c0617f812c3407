#include "quality.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace eddie::core
{

QualityGate::QualityGate(const TrainedModel &model,
                         const QualityConfig &cfg)
    : model_(model), cfg_(cfg), energies_(cfg.energy_window)
{
    sorted_.reserve(cfg_.energy_window);
}

double
QualityGate::baseline() const
{
    if (sorted_.size() < cfg_.energy_warmup || sorted_.empty())
        return 0.0;
    return sorted_[sorted_.size() / 2];
}

void
QualityGate::push(double energy)
{
    if (cfg_.energy_window == 0)
        return;
    // The new value takes the evicted value's place in the sorted copy
    // (a new last place while the window fills), then slides into
    // order. Any copy of an equal evicted value will do: the multiset,
    // and so the median, is the same.
    auto it = sorted_.begin();
    if (energies_.full()) {
        it = std::lower_bound(sorted_.begin(), sorted_.end(),
                              energies_.popFront());
    } else {
        sorted_.push_back(energy);
        it = sorted_.end() - 1;
    }
    energies_.pushBack(energy);
    for (; it + 1 != sorted_.end() && it[1] < energy; ++it)
        it[0] = it[1];
    for (; it != sorted_.begin() && it[-1] > energy; --it)
        it[0] = it[-1];
    *it = energy;
}

std::vector<double>
QualityGate::exportEnergies() const
{
    std::vector<double> out(energies_.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = energies_.at(i);
    return out;
}

void
QualityGate::restoreEnergies(const std::vector<double> &energies)
{
    reset();
    for (double e : energies)
        push(e);
}

void
QualityGate::reset()
{
    energies_.clear();
    sorted_.clear();
}

WindowQuality
QualityGate::assess(const Sts &sts, std::size_t region)
{
    if (!cfg_.enabled)
        return WindowQuality::Good;

    const RegionModel *rm = region < model_.regions.size() ?
        &model_.regions[region] : nullptr;

    // Structural checks first: these need no baseline and catch
    // frame corruption regardless of channel state.
    std::size_t real_peaks = 0;
    for (double v : sts.peak_freqs) {
        if (!std::isfinite(v) || v < 0.0 || v > model_.sentinel)
            return WindowQuality::Malformed;
        if (v < model_.sentinel)
            ++real_peaks;
    }
    if (rm != nullptr && rm->trained &&
        sts.peak_freqs.size() < rm->ref.size()) {
        // Every in-process STS is padded to max_peaks; a shorter list
        // than the model's rank count means a truncated frame.
        return WindowQuality::Malformed;
    }

    // Energy gates; window_energy == 0 marks a legacy stream without
    // the quality fields, which the gate must not judge.
    if (sts.window_energy > 0.0) {
        const double base = baseline();
        if (base > 0.0) {
            if (sts.window_energy * cfg_.energy_drop_ratio < base)
                return WindowQuality::Dropout;
            if (sts.window_energy > base * cfg_.energy_surge_ratio)
                return WindowQuality::Saturated;
            const bool comb_gone = real_peaks == 0 ||
                sts.peak_energy_frac < cfg_.min_peak_energy_frac;
            if (sts.window_energy > base * cfg_.noise_energy_ratio &&
                comb_gone && rm != nullptr && rm->trained &&
                rm->num_peaks >= cfg_.min_expected_peaks) {
                return WindowQuality::NoiseFloor;
            }
        }
        push(sts.window_energy);
    }
    return WindowQuality::Good;
}

} // namespace eddie::core
