#include "report/deviation.hh"

#include "pipeline/batch.hh"
#include "support/logging.hh"

namespace cams
{

double
DeviationSeries::percentAt(int deviation) const
{
    const int total = loops();
    if (total == 0)
        return 0.0;
    return 100.0 * static_cast<double>(deviations.countAt(deviation)) /
           total;
}

double
DeviationSeries::percentAtMost(int deviation) const
{
    const int total = loops();
    if (total == 0)
        return 0.0;
    return 100.0 *
           static_cast<double>(deviations.countAtMost(deviation)) / total;
}

std::vector<int>
unifiedBaseline(const std::vector<Dfg> &suite, const MachineDesc &unified,
                const CompileOptions &options, int threads,
                MetricsRegistry *metrics)
{
    const BatchOutcome batch = BatchRunner::run(
        unifiedJobs(suite, unified, options), threads, 0.0, metrics);
    std::vector<int> baseline;
    baseline.reserve(suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        // A degraded (serialized) II is not a baseline: it would
        // silently poison every deviation measured against it.
        if (!batch.results[i].success ||
            batch.results[i].degraded != DegradeLevel::None) {
            cams_fatal("unified baseline failed on loop '",
                       suite[i].name(), "': ",
                       failureKindName(batch.results[i].failure));
        }
        baseline.push_back(batch.results[i].ii);
    }
    return baseline;
}

DeviationSeries
runClusteredSeries(const std::vector<Dfg> &suite,
                   const MachineDesc &machine,
                   const std::vector<int> &baseline,
                   const CompileOptions &options, const std::string &label,
                   int threads, MetricsRegistry *metrics)
{
    cams_assert(suite.size() == baseline.size(),
                "baseline does not match the suite");
    DeviationSeries series;
    series.label = label;
    const BatchOutcome batch = BatchRunner::run(
        clusteredJobs(suite, machine, options), threads, 0.0, metrics);
    for (size_t i = 0; i < suite.size(); ++i) {
        const CompileResult &result = batch.results[i];
        // The figures measure the paper's pipeline: a compile rescued
        // by the degradation ladder counts as a failure here.
        if (!result.success || result.degraded != DegradeLevel::None) {
            ++series.failures;
            continue;
        }
        series.totalCopies += result.copies;
        series.iiSum += result.ii;
        series.unifiedIiSum += baseline[i];
        series.deviations.add(result.ii - baseline[i]);
    }
    return series;
}

} // namespace cams
