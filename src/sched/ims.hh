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
    double budgetRatio_;
};

} // namespace cams

#endif // CAMS_SCHED_IMS_HH
