/**
 * @file
 * The exact backend: per-II SAT decisions over the joint
 * cluster-assignment + modulo-scheduling problem, and the shared
 * types the driver uses to select and report backends.
 *
 * The driver consumes this in two modes (CompileOptions::backend):
 *
 *  - Exact: the II search itself is the ascending decision ladder
 *    MII, MII+1, ... -- the first SAT answer is an optimal schedule
 *    (every lower II carries an UNSAT certificate).
 *  - Race: the heuristic cascade answers first under the ordinary
 *    compile budget; the exact arm then probes II = MII .. II_h - 1.
 *    A SAT answer *tightens* the result to a strictly better II; an
 *    unbroken run of UNSAT answers *certifies* the heuristic II
 *    optimal; a budget blow-out leaves the heuristic answer standing
 *    with outcome Timeout.
 *
 * Budgets are conflict counts first (deterministic across machines
 * and sanitizers -- the same instance always dies at the same
 * conflict) with wall-clock as a backstop, so CI behavior is
 * reproducible.
 *
 * Certification honesty: a SAT answer is decoded and re-checked by
 * the independent verifier before anyone sees it, and an UNSAT
 * answer counts only when the encoder ran at its completeness-
 * preserving horizon (encode.hh) or the II lies below the resource
 * MII, where the units cannot issue the loop's operations at all (a
 * counting verdict, no search); anything else degrades to Budget.
 */

#ifndef CAMS_EXACT_EXACT_HH
#define CAMS_EXACT_EXACT_HH

#include <string>

#include "assign/assignment.hh"
#include "exact/sat.hh"
#include "sched/schedule.hh"

namespace cams
{

/** Which engine compiles a clustered loop. */
enum class CompileBackend
{
    Heuristic, ///< the paper's Figure 5 cascade (default)
    Exact,     ///< SAT decisions only: first SAT II is optimal
    Race,      ///< heuristic first, exact arm tightens or certifies
};

/** Stable lowercase name ("heuristic", "exact", "race"). */
const char *compileBackendName(CompileBackend backend);

/** Parses a backend name; returns false on an unknown one. */
bool parseCompileBackend(const std::string &name, CompileBackend &out);

/** Knobs of the exact arm. */
struct ExactOptions
{
    /**
     * Conflict budget per II decision; the deterministic primary
     * bound (same instance, same budget => same answer everywhere).
     * 0 = unbounded.
     */
    long conflictBudget = 50000;

    /**
     * Wall-clock backstop per II decision, milliseconds; 0 = none.
     * Non-deterministic by nature -- tests and CI gates should bound
     * by conflicts and leave this 0.
     */
    double timeBudgetMs = 0.0;

    /** Loops above this node count are not encoded (Unsupported). */
    int nodeLimit = 64;

    /**
     * Ceiling on the encoded time horizon. When the completeness-
     * preserving horizon exceeds it, SAT answers still count but
     * UNSAT degrades to Budget (no false certificates).
     */
    int horizonLimit = 2048;

    /** Most II values probed per compile (race and exact mode). */
    int maxProbes = 16;
};

/** How one per-II decision ended. */
enum class ExactVerdict
{
    Sat,         ///< schedule found, decoded and verifier-approved
    Unsat,       ///< certificate: no schedule exists at this II
    Budget,      ///< conflict/wall budget exhausted (or capped horizon)
    Unsupported, ///< instance not encodable (see detail)
};

/** Aggregate outcome of the exact arm of one compile. */
enum class ExactOutcome
{
    NotRun,      ///< heuristic backend, cache hit, or arm skipped
    Sat,         ///< exact schedule is the result
    Unsat,       ///< certified: no lower II exists
    Timeout,     ///< budget died before an answer
    Unsupported, ///< loop/machine outside the encodable fragment
};

/** Stable lowercase name of an outcome. */
const char *exactOutcomeName(ExactOutcome outcome);

/** Per-compile accounting of the exact arm (CompileResult::exact). */
struct ExactStats
{
    ExactOutcome outcome = ExactOutcome::NotRun;

    /** Race mode: the exact arm beat the heuristic II. */
    bool tightened = false;

    /** Race mode: UNSAT certificates cover [MII, heuristic II). */
    bool certified = false;

    /** II of the exact-found schedule; 0 = none. */
    int exactIi = 0;

    /** The heuristic II the race arm started from; 0 = none. */
    int heuristicIi = 0;

    /** II decision instances solved. */
    int probes = 0;

    /** Summed solver counters across all probes. */
    long conflicts = 0;
    long decisions = 0;
    long propagations = 0;

    /** Wall time spent inside the exact arm, milliseconds. */
    double solveMs = 0.0;

    /** Unsupported/budget slug for logs ("point_to_point_machine"). */
    std::string detail;
};

/** Result of one per-II decision. */
struct ExactDecision
{
    ExactVerdict verdict = ExactVerdict::Unsupported;

    /** Sat only: the decoded, verifier-approved result. */
    AnnotatedLoop loop;
    Schedule schedule;

    /** Solver counters summed over the horizon ladder. */
    long conflicts = 0;
    long decisions = 0;
    long propagations = 0;

    std::string detail;
};

/**
 * Decides schedulability of the loop at exactly the given II. SAT
 * answers are decoded and re-verified before being reported; a
 * decode the verifier rejects degrades to Budget (never a lie).
 */
ExactDecision exactDecideAtIi(const Dfg &graph,
                              const ResourceModel &model, int ii,
                              const ExactOptions &options);

} // namespace cams

#endif // CAMS_EXACT_EXACT_HH
