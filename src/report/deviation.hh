/**
 * @file
 * Experiment runner and the paper's quality metric.
 *
 * Every figure in the paper plots, for a machine configuration and an
 * assignment variant, the distribution of
 *   deviation = II(clustered) - II(equally wide unified machine)
 * over the loop suite; x = 0 means the assignment hid all
 * communication. This module computes baseline IIs once per unified
 * machine and turns clustered runs into deviation histograms.
 */

#ifndef CAMS_REPORT_DEVIATION_HH
#define CAMS_REPORT_DEVIATION_HH

#include <string>
#include <vector>

#include "machine/machine.hh"
#include "pipeline/driver.hh"
#include "support/metrics.hh"
#include "support/stats.hh"
#include "workload/suite.hh"

namespace cams
{

/** One curve of a paper figure. */
struct DeviationSeries
{
    std::string label;
    IntHistogram deviations;

    /** Loops the clustered pipeline could not compile at all. */
    int failures = 0;

    /** Total copy operations inserted across the suite. */
    long totalCopies = 0;

    /** Clustered and unified II summed over the non-failed loops. */
    long iiSum = 0;
    long unifiedIiSum = 0;

    /** Loops measured (including failures). */
    int loops() const
    {
        return static_cast<int>(deviations.total()) + failures;
    }

    /** Percentage of loops at exactly this deviation. */
    double percentAt(int deviation) const;

    /** Percentage of loops at deviation <= bound. */
    double percentAtMost(int deviation) const;
};

/**
 * Baseline IIs of the suite on a unified machine (one entry per
 * loop). Fatal when the baseline itself cannot be scheduled -- the
 * unified machine always can, so that indicates a bug.
 *
 * @param threads worker count for the batch engine; the results are
 *        identical for every value (each compile is independent).
 * @param metrics optional registry the batch run aggregates into
 *        (see BatchRunner::run).
 */
std::vector<int> unifiedBaseline(const std::vector<Dfg> &suite,
                                 const MachineDesc &unified,
                                 const CompileOptions &options = {},
                                 int threads = 1,
                                 MetricsRegistry *metrics = nullptr);

/**
 * Runs the clustered pipeline over the suite through the batch engine
 * and histograms the II deviations against a precomputed baseline.
 * Deterministic for every @p threads value.
 */
DeviationSeries runClusteredSeries(const std::vector<Dfg> &suite,
                                   const MachineDesc &machine,
                                   const std::vector<int> &baseline,
                                   const CompileOptions &options,
                                   const std::string &label,
                                   int threads = 1,
                                   MetricsRegistry *metrics = nullptr);

} // namespace cams

#endif // CAMS_REPORT_DEVIATION_HH
