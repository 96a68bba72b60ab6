/**
 * @file
 * Independent legality checker for modulo schedules. Used as the
 * oracle in tests and assertions: it re-derives every dependence and
 * resource constraint from scratch instead of trusting the scheduler.
 */

#ifndef CAMS_SCHED_VERIFIER_HH
#define CAMS_SCHED_VERIFIER_HH

#include <string>

#include "assign/assignment.hh"
#include "sched/schedule.hh"

namespace cams
{

/**
 * Verifies a schedule against the annotated loop.
 *
 * Checks:
 *  - every dependence e = (u, v):
 *      start(v) >= start(u) + latency(e) - II * distance(e);
 *  - resources: replaying every operation's resource request into
 *    per-(pool, row) slot counts at row start mod II never exceeds
 *    any pool's capacity;
 *  - the placement annotations themselves (AnnotatedLoop::validate).
 *
 * @param why filled with the first violation found.
 * @return true when the schedule is legal.
 */
bool verifySchedule(const AnnotatedLoop &loop, const ResourceModel &model,
                    const Schedule &schedule, std::string *why = nullptr);

} // namespace cams

#endif // CAMS_SCHED_VERIFIER_HH
