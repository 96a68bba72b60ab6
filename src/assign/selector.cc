#include "assign/selector.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "support/logging.hh"

namespace cams
{

namespace
{

/**
 * The surviving-cluster list plus the optional decision record. Every
 * Select step runs through here so the Figure 9 soft-keep rule and
 * the explain bookkeeping exist once. Survivors are a bitmask over the
 * input choices (a machine has at most maxClusters clusters), so the
 * list keeps input order and filtering allocates nothing.
 */
class Cascade
{
  public:
    Cascade(const std::vector<ClusterChoice> &choices,
            SelectionExplain *explain)
        : choices_(choices), explain_(explain)
    {
        cams_assert(choices.size() <= static_cast<size_t>(maxClusters),
                    "selection over ", choices.size(), " clusters");
        if (explain_) {
            explain_->verdicts.assign(choices.size(), {});
            for (size_t i = 0; i < choices.size(); ++i)
                explain_->verdicts[i].cluster = choices[i].cluster;
            explain_->winner = invalidCluster;
            explain_->decidingStep = nullptr;
        }
    }

    /** Admits the i-th choice into the initial list. */
    void admit(size_t i) { alive_ |= uint64_t{1} << i; }

    /** Records the i-th choice as excluded from the initial list. */
    void
    exclude(size_t i, const char *step)
    {
        if (explain_)
            explain_->verdicts[i].eliminatedBy = step;
    }

    bool empty() const { return alive_ == 0; }

    size_t size() const { return std::popcount(alive_); }

    /** The n-th survivor, in input order. */
    const ClusterChoice &
    at(size_t n) const
    {
        uint64_t rest = alive_;
        for (; n > 0; --n)
            rest &= rest - 1;
        return choices_[std::countr_zero(rest)];
    }

    /** Figure 9: keep the old list when the filter would empty it. */
    template <typename Keep>
    void
    select(const char *step, Keep keep)
    {
        uint64_t kept = 0;
        for (uint64_t rest = alive_; rest != 0; rest &= rest - 1) {
            const int i = std::countr_zero(rest);
            if (keep(choices_[i]))
                kept |= uint64_t{1} << i;
        }
        if (kept == 0 || kept == alive_)
            return; // vacuous or would empty the list: soft-keep
        if (explain_) {
            for (uint64_t lost = alive_ & ~kept; lost != 0;
                 lost &= lost - 1) {
                SelectionExplain::Verdict &verdict =
                    explain_->verdicts[std::countr_zero(lost)];
                if (!verdict.eliminatedBy)
                    verdict.eliminatedBy = step;
            }
            explain_->decidingStep = step;
        }
        alive_ = kept;
    }

    /** Keeps the minimizers of a metric (soft: a min always exists). */
    template <typename Metric>
    void
    selectMin(const char *step, Metric metric)
    {
        if (empty())
            return;
        int best = metric(at(0));
        for (uint64_t rest = alive_; rest != 0; rest &= rest - 1)
            best = std::min(best, metric(choices_[std::countr_zero(rest)]));
        select(step, [&](const ClusterChoice &choice) {
            return metric(choice) == best;
        });
    }

    /** Stamps the final pick and the tie-break survivors. */
    ClusterId
    finish(const ClusterChoice &picked)
    {
        if (explain_) {
            for (uint64_t rest = alive_; rest != 0; rest &= rest - 1)
                explain_->verdicts[std::countr_zero(rest)].survived = true;
            explain_->winner = picked.cluster;
        }
        return picked.cluster;
    }

  private:
    const std::vector<ClusterChoice> &choices_;
    SelectionExplain *explain_;
    uint64_t alive_ = 0;
};

} // namespace

ClusterId
selectBestCluster(const std::vector<ClusterChoice> &choices,
                  bool full_heuristic, bool avoid_previous, bool in_scc,
                  int rotation, bool use_scc_affinity, bool use_pcr,
                  SelectionExplain *explain)
{
    Cascade cascade(choices, explain);
    for (size_t i = 0; i < choices.size(); ++i) {
        if (choices[i].feasible)
            cascade.admit(i);
        else
            cascade.exclude(i, "feasible");
    }
    if (cascade.empty())
        return invalidCluster;

    if (avoid_previous) {
        cascade.select("avoid_previous",
                       [](const ClusterChoice &choice) {
                           return !choice.previouslyTried;
                       });
    }

    if (full_heuristic) {
        if (in_scc && use_scc_affinity) {
            cascade.select("scc_affinity",
                           [](const ClusterChoice &choice) {
                               return choice.sccMate;
                           });
        }
        if (use_pcr) {
            cascade.select("pcr", [](const ClusterChoice &choice) {
                return choice.pcrOk;
            });
            cascade.select("pcr_in", [](const ClusterChoice &choice) {
                return choice.pcrInOk;
            });
        }
        cascade.selectMin("required_copies",
                          [](const ClusterChoice &choice) {
                              return choice.requiredCopies;
                          });
        cascade.selectMin("free_resources",
                          [](const ClusterChoice &choice) {
                              return -choice.freeResources;
                          });
    }

    return cascade.finish(cascade.at(static_cast<size_t>(rotation) %
                                     cascade.size()));
}

ClusterId
selectForcedCluster(const std::vector<ClusterChoice> &choices,
                    bool avoid_previous, SelectionExplain *explain)
{
    cams_assert(!choices.empty(), "forced selection over no clusters");
    Cascade cascade(choices, explain);
    for (size_t i = 0; i < choices.size(); ++i)
        cascade.admit(i);

    if (avoid_previous) {
        cascade.select("avoid_previous",
                       [](const ClusterChoice &choice) {
                           return !choice.previouslyTried;
                       });
    }
    cascade.select("bare_op_fits", [](const ClusterChoice &choice) {
        return choice.bareOpFits;
    });
    cascade.selectMin("conflicting_neighbors",
                      [](const ClusterChoice &choice) {
                          return choice.conflictingNeighbors;
                      });
    return cascade.finish(cascade.at(0));
}

} // namespace cams
