/**
 * @file
 * Swing Modulo Scheduling (Llosa, Gonzalez, Ayguade, Valero;
 * PACT 1996) -- the phase-two scheduler the paper uses.
 *
 * Nodes are taken in the swing order (order/swing_order.hh). Each
 * node scans an II-wide window anchored to its already scheduled
 * neighbors: forward from the predecessors' bound, backward from the
 * successors' bound, or both-bounded when it has scheduled neighbors
 * on each side. This is the *iterative* variant the paper schedules
 * with: when no slot fits, the operation is force-placed and the
 * conflicting operations (resource clashes, violated dependences) are
 * ejected back onto the work list, under a budget; exhausting the
 * budget fails the II and the driver retries at II + 1.
 */

#ifndef CAMS_SCHED_SMS_HH
#define CAMS_SCHED_SMS_HH

#include <vector>

#include "sched/schedule.hh"

namespace cams
{

/** The swing modulo scheduler. */
class SwingModuloScheduler : public ModuloScheduler
{
  public:
    std::string name() const override { return "sms"; }

  protected:
    bool run(const AnnotatedLoop &loop, const ResourceModel &model,
             int ii, Schedule &out, LoopContext &ctx) const override;

  private:
    /** Working state of one node during a run. */
    struct NodeState
    {
        long start;
        long lastStart;
        /** Position in the swing order. */
        int rank;
        /** MRT row while placed. */
        int row;
        bool placed;
    };

    /** Reused across calls, like the scratch MRT: per node, and the
     *  work list's rank-indexed pending flags. */
    mutable std::vector<NodeState> nodes_;
    mutable std::vector<char> pendingRank_;
};

} // namespace cams

#endif // CAMS_SCHED_SMS_HH
