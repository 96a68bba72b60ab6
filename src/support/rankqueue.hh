/**
 * @file
 * The work list both phases run on: pending operations keyed by their
 * position in a priority order, lowest rank first. The assigner keeps
 * its unassigned nodes in one (Fig. 11 evictions re-queue their
 * victims) and the schedulers' placement loop its unplaced operations
 * (ejections re-queue theirs).
 *
 * A rank-indexed flag array with a moving minimum cursor: a pop scans
 * the cursor forward, a re-queue below it moves it back. The flags
 * live in a buffer the caller keeps across runs and the rank of each
 * operation in the caller's own tables, so once the buffer has grown
 * to the largest loop nothing here allocates.
 *
 * Header-only on purpose: every call is a few instructions on the
 * assigner's and the schedulers' per-node paths.
 */

#ifndef CAMS_SUPPORT_RANKQUEUE_HH
#define CAMS_SUPPORT_RANKQUEUE_HH

#include <algorithm>
#include <vector>

namespace cams
{

/** The ranks [0, n) still pending, lowest first. */
class RankQueue
{
  public:
    /** Queues every rank in [0, n), keeping the flags in @p flags. */
    RankQueue(std::vector<char> &flags, int n) : flags_(flags), count_(n)
    {
        flags_.assign(n, 1);
    }

    bool empty() const { return count_ == 0; }

    /** The lowest queued rank; the queue must not be empty. */
    int top()
    {
        while (!flags_[cursor_])
            ++cursor_;
        return cursor_;
    }

    /** Removes and returns the lowest queued rank. */
    int pop()
    {
        const int rank = top();
        erase(rank);
        return rank;
    }

    /** Removes a rank; removing one that is not queued does nothing. */
    void erase(int rank)
    {
        if (flags_[rank]) {
            flags_[rank] = 0;
            --count_;
        }
    }

    /** Queues a rank; queueing a queued one does nothing. */
    void insert(int rank)
    {
        if (!flags_[rank]) {
            flags_[rank] = 1;
            ++count_;
        }
        cursor_ = std::min(cursor_, rank);
    }

  private:
    std::vector<char> &flags_;
    int cursor_ = 0;
    int count_;
};

} // namespace cams

#endif // CAMS_SUPPORT_RANKQUEUE_HH
