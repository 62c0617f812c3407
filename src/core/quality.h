/**
 * @file
 * Per-STS signal-quality gate (DESIGN.md §6). Real receivers lose
 * samples, clip, and pick up wideband interference; windows captured
 * during such episodes carry no information about program execution,
 * and K-S-testing them produces rejection streaks the monitor would
 * report as anomalies. The gate scores each window against a running
 * baseline of recent good windows plus the trained model's
 * expectations and tells the monitor which windows to quarantine
 * instead of feeding into its history.
 */

#ifndef EDDIE_CORE_QUALITY_H
#define EDDIE_CORE_QUALITY_H

#include <array>
#include <cstddef>
#include <vector>

#include "model.h"
#include "ring_buffer.h"
#include "sts.h"

namespace eddie::core
{

/** Why a window was (or was not) quarantined. */
enum class WindowQuality
{
    Good = 0,
    /** Window energy collapsed far below the running baseline:
     *  sample dropout or receiver squelch. */
    Dropout,
    /** Window energy far above baseline: clipping or a strong
     *  transient parked on the antenna. */
    Saturated,
    /** Energy elevated but spectrally flat where the model expects a
     *  peak comb: wideband interference burying the signal. */
    NoiseFloor,
    /** Structurally invalid features: non-finite or out-of-band peak
     *  frequencies, or a truncated peak list. */
    Malformed,
};

constexpr std::size_t kNumWindowQualities = 5;

/** Quality-gate thresholds. Defaults are deliberately generous: on a
 *  clean channel the gate must be a no-op (verified by test), so each
 *  gate only fires on order-of-magnitude departures. */
struct QualityConfig
{
    bool enabled = true;
    /** Number of recent good-window energies kept for the running
     *  median baseline. */
    std::size_t energy_window = 33;
    /** Good windows required before the energy gates arm; until then
     *  the baseline is too noisy to trust. */
    std::size_t energy_warmup = 8;
    /** Dropout: energy below baseline / this. */
    double energy_drop_ratio = 32.0;
    /** Saturated: energy above baseline * this. */
    double energy_surge_ratio = 32.0;
    /** NoiseFloor: energy above baseline * this while the peak
     *  structure is gone. */
    double noise_energy_ratio = 2.5;
    /** NoiseFloor only applies when the current region's model
     *  expects at least this many peaks. */
    std::size_t min_expected_peaks = 2;
    /** Peak structure counts as "gone" when no real peaks survived
     *  or they hold less than this fraction of window energy. */
    double min_peak_energy_frac = 0.05;
    /** Consecutive quarantined windows that count as an outage; the
     *  monitor drops its history and re-locks once signal returns. */
    std::size_t resync_outage = 4;
};

/** Degraded-mode counters kept by the monitor (surfaced through
 *  metrics::describe). */
struct DegradedStats
{
    /** Windows excluded from the K-S history. */
    std::size_t quarantined = 0;
    /** Quarantine episodes long enough to trigger a resync. */
    std::size_t outages = 0;
    /** Re-lock scans performed after an outage ended. */
    std::size_t resyncs = 0;
    /** Longest quarantine episode, in windows. */
    std::size_t longest_outage = 0;
    /** Quarantined windows by WindowQuality (index = enum value;
     *  the Good slot stays zero). */
    std::array<std::size_t, kNumWindowQualities> by_kind{};
};

/**
 * Scores windows one at a time. The energy baseline is the median of
 * the last energy_window *good* windows — quarantined windows never
 * contaminate it, so a long outage cannot drag the baseline down to
 * meet the degraded signal. The gate keeps that window twice, in
 * arrival order and ascending, so scoring a window neither allocates
 * nor sorts.
 *
 * Streams written before the quality fields existed carry
 * window_energy == 0; the gate treats that as "unknown" and skips the
 * energy checks (structural checks still apply), so legacy captures
 * monitor exactly as before.
 */
class QualityGate
{
  public:
    QualityGate(const TrainedModel &model, const QualityConfig &cfg);

    /** Scores one window against @p region (the monitor's current
     *  region) and, when Good, folds it into the baseline. */
    WindowQuality assess(const Sts &sts, std::size_t region);

    /** Current median baseline energy (0 before warmup). */
    double baseline() const;

    /** Energy baseline window, oldest first — part of the monitor's
     *  checkpointable state (serve/checkpoint.h). */
    std::vector<double> exportEnergies() const;

    /** Restores a window captured by exportEnergies(); only the
     *  newest energy_window values are kept. */
    void restoreEnergies(const std::vector<double> &energies);

    /** Drops the baseline window, returning the gate to its
     *  just-constructed state (Monitor::reset()). */
    void reset();

  private:
    /** Appends one good-window energy, evicting the oldest when the
     *  window is full. */
    void push(double energy);

    const TrainedModel &model_;
    QualityConfig cfg_;
    /** Baseline window in arrival order. */
    RingQueue<double> energies_;
    /** The same values, ascending: the median is read in place, and
     *  each window inserts and erases one value without allocating
     *  (capacity reserved at construction). */
    std::vector<double> sorted_;
};

} // namespace eddie::core

#endif // EDDIE_CORE_QUALITY_H
