/**
 * @file
 * Iterative Modulo Scheduling (Rau, MICRO-27, 1994).
 *
 * Operations are scheduled highest-height-first. Each operation scans
 * an II-wide window starting at its earliest legal cycle; when no slot
 * fits, it is force-placed and the conflicting operations (resource
 * clashes and violated successors) are displaced back onto the work
 * list. A budget proportional to the operation count bounds the total
 * number of placements; exhausting it fails the II.
 *
 * The scheduler is cluster-oblivious: every operation, copies
 * included, exposes its resource needs through
 * AnnotatedLoop::request(), exactly as the paper's phase split
 * intends.
 */

#ifndef CAMS_SCHED_IMS_HH
#define CAMS_SCHED_IMS_HH

#include <vector>

#include "sched/schedule.hh"

namespace cams
{

/** Rau's iterative modulo scheduler. */
class IterativeModuloScheduler : public ModuloScheduler
{
  public:
    /** @param budget_ratio placements allowed per operation. */
    explicit IterativeModuloScheduler(double budget_ratio = 6.0)
        : budgetRatio_(budget_ratio)
    {
    }

    std::string name() const override { return "ims"; }

  protected:
    bool run(const AnnotatedLoop &loop, const ResourceModel &model,
             int ii, Schedule &out, LoopContext &ctx) const override;

  private:
    /** Working state of one node during a run. */
    struct NodeState
    {
        int start;
        int lastStart;
        /** Position in the height order. */
        int prio;
        /** MRT row while placed. */
        int row;
        bool placed;
    };

    double budgetRatio_;
    /** Reused across calls, like the scratch MRT: per node, the
     *  height order, and the work list's pending flags over it. */
    mutable std::vector<NodeState> nodes_;
    mutable std::vector<NodeId> byPrio_;
    mutable std::vector<char> pendingPrio_;
};

} // namespace cams

#endif // CAMS_SCHED_IMS_HH
