/**
 * @file
 * The traced run's replay of one compile. compileClustered is rebuilt
 * from the library's public calls -- computeMii, ClusterAssigner::run
 * with a LoopContext, ModuloScheduler::schedule, verifySchedule and,
 * for the race backend, ExactEncoder::encode -> SatSolver::solve ->
 * ExactEncoder::decode over the same horizon ladder -- with a span
 * around each call. The replayed result must equal what
 * compileClustered returns for the same input; callers check that.
 */

#ifndef CAMSBENCH_REPLAY_HH
#define CAMSBENCH_REPLAY_HH

#include "bench.hh"

namespace camsbench
{

/** Deterministic counts and non-span times gathered by a replay. */
struct LayerTally
{
    /** Loops the per-loop metrics are divided by. */
    long loops = 0;

    long iiAttempts = 0;
    long assignFails = 0;
    long evictions = 0;
    long copies = 0;
    long ctxMisses = 0;
    long wordScans = 0;
    /** AssignResult::orderMillis / routeMillis, summed (ns). */
    double orderNs = 0.0;
    double routeNs = 0.0;

    long probes = 0;
    long probeSat = 0;
    long probeUnsat = 0;
    long vars = 0;
    long clauses = 0;
    long conflicts = 0;
    long tightened = 0;
    long proved = 0;
    long vacuous = 0;
    long timeouts = 0;
    long unsupported = 0;

    long lookupHits = 0;
    long lookupMisses = 0;
    long stores = 0;
    long bytesStored = 0;

    double queueUsP50 = 0.0;
    double workerUsP50 = 0.0;
    double overheadUsP50 = 0.0;
    double encodeNs = 0.0;
    long encodes = 0;
    double decodeNs = 0.0;
    long decodes = 0;

    double genMs = 0.0;
};

/**
 * Replays compileClustered -- the heuristic or race search, then the
 * degradation ladder when the search fails -- under a "compile" span
 * and folds its counts into @p tally.
 */
cams::CompileResult replayCompile(const cams::Dfg &graph,
                                  const cams::MachineDesc &machine,
                                  const cams::CompileOptions &options,
                                  Tracer &tracer, LayerTally &tally);

/**
 * What a replay must reproduce of a result: its II, the hash of its
 * schedule image (placement, start cycles and every deterministic
 * counter) and the exact arm's accounting.
 */
struct ResultPrint
{
    int ii = 0;
    size_t image = 0;
    std::string exact;
    bool operator==(const ResultPrint &) const = default;
};

ResultPrint fingerprint(const cams::CompileResult &result);

/** Empty when the prints agree; otherwise names the difference. */
std::string comparePrints(const ResultPrint &replayed,
                          const ResultPrint &reference);

/**
 * Prints every per-layer metric. Layers that did not run in this
 * workload read 0. Fails the run when the named layers cover less
 * than 75% of the traced time.
 */
void reportLayers(Report &report, const Tracer &tracer,
                  const LayerTally &tally);

/** Writes the tracer's spans to <out-dir>/spans-<workload>.tsv. */
void writeSpans(const Tracer &tracer, const Args &args, Report &report);

} // namespace camsbench

#endif // CAMSBENCH_REPLAY_HH
