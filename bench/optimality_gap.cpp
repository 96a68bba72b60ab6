/**
 * @file
 * Optimality-gap audit of the heuristic cascade against the exact
 * SAT backend: races every suite loop on the 2-cluster and 4-cluster
 * general-purpose reference machines and on 4c-fs-2b-2p, whose tight
 * buses and memory units hold the suite's hardest proofs, and writes
 * BENCH_exact_gap.json for the CI gate (tools/check_exact_gap.py).
 *
 * Per machine the race backend produces, for every loop, one of
 *
 *  - tightened: the exact arm found a schedule at a lower II than the
 *    heuristic; the gap (heuristic II - exact II) is the measured
 *    suboptimality of the cascade on that loop.
 *  - proved: the heuristic II sits above MII and UNSAT certificates
 *    cover [MII, heuristic II), so the answer is provably optimal
 *    (gap 0 by proof).
 *  - vacuous: the heuristic already sits at MII, so the window is
 *    empty and no probe ran. The answer is optimal, but the solver
 *    decided nothing; the gate does not count these.
 *  - timeout / unsupported: no claim either way; counted so the gate
 *    can bound the fraction of the suite the audit actually covers.
 *
 * Two independent cross-checks back every claim:
 *
 *  1. Every successful result -- tightened or not -- is re-run
 *     through AnnotatedLoop::validate and the independent verifier
 *     here, outside the driver. A reject is an optimality_violation.
 *  2. Every proved certificate is spot-checked by re-running the
 *     heuristic cascade (assignment + scheduler + verifier) pinned at
 *     heuristic II - 1. The heuristic finding a valid schedule at an
 *     II the solver certified infeasible is a violation; the
 *     heuristic failing is the expected agreement.
 *
 * The gate requires violations == 0 (an exact answer may never be
 * worse or wrong) and bounds the timeout fraction.
 */

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "machine/configs.hh"
#include "sched/verifier.hh"
#include "support/str.hh"

namespace
{

using namespace cams;

/** Audit of one machine's race over the suite. */
struct MachineAudit
{
    std::string machine;
    int jobs = 0;
    int succeeded = 0;
    int tightened = 0;
    int proved = 0;
    int vacuous = 0;
    int timeouts = 0;
    int unsupported = 0;
    int spotChecks = 0;
    int violations = 0;
    int maxGap = 0;
    long conflicts = 0;
    double exactMs = 0.0;
    std::map<int, int> gapHistogram;
    std::vector<std::string> violationDetails;
};

/**
 * Heuristic single-II probe: assignment + scheduling + verification
 * pinned at exactly @p ii, the same pieces the driver's cascade runs
 * per attempt. Returns true only for a verifier-approved schedule.
 */
bool
heuristicFeasibleAt(const Dfg &graph, const ResourceModel &model,
                    int ii, const CompileOptions &options)
{
    const ClusterAssigner assigner(model, options.assign);
    AssignResult assignment = assigner.run(graph, ii);
    if (!assignment.success)
        return false;
    const auto scheduler = makeScheduler(options.scheduler);
    Schedule schedule;
    if (!scheduler->schedule(assignment.loop, model, ii, schedule))
        return false;
    std::string why;
    return verifySchedule(assignment.loop, model, schedule, &why);
}

MachineAudit
auditMachine(const MachineDesc &machine)
{
    const std::vector<Dfg> &suite = benchutil::sharedSuite();
    CompileOptions options = benchutil::withTrace({});
    options.backend = CompileBackend::Race;

    std::cerr << "racing " << suite.size() << " loops on "
              << machine.name << " (" << benchutil::jobCount()
              << " jobs)..." << std::endl;
    const BatchOutcome outcome = BatchRunner::run(
        clusteredJobs(suite, machine, options), benchutil::jobCount(),
        0.0, &benchutil::sharedRegistry());

    MachineAudit audit;
    audit.machine = machine.name;
    audit.jobs = static_cast<int>(suite.size());
    const ResourceModel model(machine);

    for (size_t i = 0; i < suite.size(); ++i) {
        const CompileResult &result = outcome.results[i];
        const std::string &name = suite[i].name();
        if (!result.success)
            continue;
        ++audit.succeeded;
        audit.conflicts += result.exact.conflicts;
        audit.exactMs += result.exact.solveMs;

        switch (result.exact.outcome) {
          case ExactOutcome::Timeout:
            ++audit.timeouts;
            break;
          case ExactOutcome::Unsupported:
            ++audit.unsupported;
            break;
          default:
            break;
        }

        // Cross-check 1: re-verify every schedule the race produced,
        // independently of the driver's own verify pass.
        std::string why;
        if (!result.loop.validate(machine, &why) ||
            !verifySchedule(result.loop, model, result.schedule,
                            &why)) {
            ++audit.violations;
            audit.violationDetails.push_back(
                name + ": schedule re-verification failed: " + why);
            continue;
        }

        if (result.exact.tightened) {
            const int gap = result.exact.heuristicIi - result.ii;
            ++audit.tightened;
            if (gap <= 0) {
                // "Tightened" to an equal-or-worse II is a protocol
                // violation, not a gap.
                ++audit.violations;
                audit.violationDetails.push_back(
                    name + ": tightened gap " + std::to_string(gap) +
                    " is not positive");
                continue;
            }
            ++audit.gapHistogram[gap];
            if (gap > audit.maxGap)
                audit.maxGap = gap;
        } else if (result.exact.certified) {
            ++audit.gapHistogram[0];
            if (result.exact.probes == 0) {
                ++audit.vacuous;
                continue;
            }
            ++audit.proved;
            // Cross-check 2: the certificate says II - 1 (and below)
            // is infeasible. The heuristic agreeing -- failing at
            // II - 1 -- costs one probe; it succeeding disproves the
            // certificate.
            if (result.ii > result.mii.mii) {
                ++audit.spotChecks;
                if (heuristicFeasibleAt(suite[i], model, result.ii - 1,
                                        options)) {
                    ++audit.violations;
                    audit.violationDetails.push_back(
                        name + ": heuristic schedules II " +
                        std::to_string(result.ii - 1) +
                        " but the exact arm certified it UNSAT");
                }
            }
        }
    }
    return audit;
}

std::string
auditJson(const MachineAudit &audit)
{
    std::ostringstream os;
    const double timeoutFraction =
        audit.jobs > 0
            ? static_cast<double>(audit.timeouts) / audit.jobs
            : 0.0;
    os << "{\"machine\":\"" << audit.machine << "\","
       << "\"jobs\":" << audit.jobs << ","
       << "\"succeeded\":" << audit.succeeded << ","
       << "\"tightened\":" << audit.tightened << ","
       << "\"proved\":" << audit.proved << ","
       << "\"vacuous\":" << audit.vacuous << ","
       << "\"timeouts\":" << audit.timeouts << ","
       << "\"unsupported\":" << audit.unsupported << ","
       << "\"spot_checks\":" << audit.spotChecks << ","
       << "\"violations\":" << audit.violations << ","
       << "\"max_gap\":" << audit.maxGap << ","
       << "\"timeout_fraction\":" << formatFixed(timeoutFraction, 4)
       << ","
       << "\"exact_conflicts\":" << audit.conflicts << ","
       << "\"exact_ms\":" << formatFixed(audit.exactMs, 3) << ","
       << "\"gap_histogram\":{";
    bool first = true;
    for (const auto &[gap, count] : audit.gapHistogram) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << gap << "\":" << count;
    }
    os << "},\"violation_details\":[";
    first = true;
    for (const std::string &detail : audit.violationDetails) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << detail << "\"";
    }
    os << "]}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cams;
    benchutil::parseBatchArgs(argc, argv);

    const std::vector<MachineDesc> machines = {
        busedGpMachine(2, 2, 1),
        busedGpMachine(4, 4, 2),
        busedFsMachine(4, 2, 2),
    };

    std::vector<MachineAudit> audits;
    int violations = 0;
    int timeouts = 0;
    int jobs = 0;
    for (const MachineDesc &machine : machines) {
        audits.push_back(auditMachine(machine));
        violations += audits.back().violations;
        timeouts += audits.back().timeouts;
        jobs += audits.back().jobs;
    }

    const double timeoutFraction =
        jobs > 0 ? static_cast<double>(timeouts) / jobs : 0.0;
    std::ofstream json("BENCH_exact_gap.json");
    json << "{\"bench\":\"exact_gap\","
         << "\"loops\":" << benchutil::sharedSuite().size() << ","
         << "\"violations\":" << violations << ","
         << "\"timeout_fraction\":" << formatFixed(timeoutFraction, 4)
         << ",\"machines\":[";
    for (size_t i = 0; i < audits.size(); ++i) {
        if (i)
            json << ",";
        json << auditJson(audits[i]);
    }
    json << "]}\n";

    for (const MachineAudit &audit : audits) {
        std::cout << audit.machine << ": " << audit.succeeded << "/"
                  << audit.jobs << " compiled, " << audit.tightened
                  << " tightened (max gap " << audit.maxGap << "), "
                  << audit.proved << " proved optimal, "
                  << audit.vacuous << " vacuous (heuristic at MII), "
                  << audit.timeouts << " timeouts, "
                  << audit.unsupported << " unsupported, "
                  << audit.spotChecks << " UNSAT spot-checks, "
                  << audit.violations << " violations\n";
        for (const std::string &detail : audit.violationDetails)
            std::cout << "  VIOLATION: " << detail << "\n";
    }
    std::cout << "BENCH_exact_gap.json written\n";
    benchutil::writeObservability();
    return violations == 0 ? 0 : 1;
}
