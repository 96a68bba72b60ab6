#include "exact/sat.hh"

#include <algorithm>
#include <cassert>

#include "support/time.hh"

namespace cams
{

const char *
satStatusName(SatStatus status)
{
    switch (status) {
      case SatStatus::Sat:
        return "sat";
      case SatStatus::Unsat:
        return "unsat";
      case SatStatus::Unknown:
        return "unknown";
    }
    return "?";
}

SatVar
SatSolver::newVar()
{
    const SatVar v = static_cast<SatVar>(assign_.size());
    assign_.push_back(-1);
    phase_.push_back(0); // default polarity false: encodings are sparse
    level_.push_back(0);
    reason_.push_back(noClause);
    activity_.push_back(0.0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heapPos_.push_back(-1);
    heapInsert(v);
    return v;
}

SatSolver::ClauseRef
SatSolver::pushClause(std::span<const SatLit> lits)
{
    const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
    arena_.push_back(static_cast<int32_t>(lits.size()));
    for (const SatLit l : lits)
        arena_.push_back(l.code);
    ++numClauses_;
    return ref;
}

void
SatSolver::watchClause(ClauseRef c)
{
    watch(clauseLit(c, 0), c);
    watch(clauseLit(c, 1), c);
}

void
SatSolver::watch(SatLit l, ClauseRef c)
{
    // Most lists stay short; starting them at a few entries spares
    // the 1 -> 2 -> 4 growth on every watched literal.
    std::vector<ClauseRef> &ws = watches_[l.code];
    if (ws.capacity() == 0)
        ws.reserve(4);
    ws.push_back(c);
}

bool
SatSolver::addClause(std::span<const SatLit> lits)
{
    if (!ok_)
        return false;
    assert(decisionLevel() == 0);

    // Root-level simplification: drop false literals, detect
    // satisfied/tautological clauses, dedupe.
    std::vector<SatLit> &out = simplified_;
    out.clear();
    for (const SatLit l : lits) {
        assert(l.valid() && l.var() < numVars());
        const int v = litValue(l);
        if (v == 1)
            return true; // already satisfied at the root
        if (v == 0)
            continue; // already false at the root: drop
        bool dup = false;
        for (const SatLit o : out) {
            if (o == l)
                dup = true;
            if (o == ~l)
                return true; // tautology
        }
        if (!dup)
            out.push_back(l);
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], noClause);
        if (propagate() != noClause)
            ok_ = false;
        return ok_;
    }
    watchClause(pushClause(out));
    return true;
}

bool
SatSolver::addClause(SatLit a)
{
    return addClause(std::span<const SatLit>(&a, 1));
}

bool
SatSolver::addClause(SatLit a, SatLit b)
{
    const SatLit lits[] = {a, b};
    return addClause(lits);
}

bool
SatSolver::addClause(SatLit a, SatLit b, SatLit c)
{
    const SatLit lits[] = {a, b, c};
    return addClause(lits);
}

void
SatSolver::enqueue(SatLit l, ClauseRef reason)
{
    const SatVar v = l.var();
    assert(assign_[v] < 0);
    assign_[v] = l.sign() ? 0 : 1;
    level_[v] = decisionLevel();
    reason_[v] = reason;
    trail_.push_back(l);
}

SatSolver::ClauseRef
SatSolver::propagate()
{
    while (qhead_ < trail_.size()) {
        const SatLit p = trail_[qhead_++]; // p just became true
        ++stats_.propagations;
        // Clauses watching ~p may have lost their watch.
        std::vector<ClauseRef> &ws = watches_[(~p).code];
        size_t keep = 0;
        for (size_t i = 0; i < ws.size(); ++i) {
            const ClauseRef c = ws[i];
            // Normalize: the falsified watch sits at slot 1.
            if (clauseLit(c, 0) == ~p)
                std::swap(arena_[c + 1], arena_[c + 2]);
            const SatLit first = clauseLit(c, 0);
            if (litValue(first) == 1) {
                ws[keep++] = c; // clause satisfied; keep the watch
                continue;
            }
            // Hunt for a replacement watch.
            const int size = clauseSize(c);
            bool moved = false;
            for (int j = 2; j < size; ++j) {
                if (litValue(clauseLit(c, j)) != 0) {
                    std::swap(arena_[c + 2], arena_[c + 2 + j - 1]);
                    watch(clauseLit(c, 1), c);
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // No replacement: unit or conflicting on `first`.
            ws[keep++] = c;
            if (litValue(first) == 0) {
                // Conflict: restore the remaining watches and report.
                for (size_t j = i + 1; j < ws.size(); ++j)
                    ws[keep++] = ws[j];
                ws.resize(keep);
                qhead_ = trail_.size();
                return c;
            }
            enqueue(first, c);
        }
        ws.resize(keep);
    }
    return noClause;
}

void
SatSolver::analyze(ClauseRef conflict, std::vector<SatLit> &learnt,
                   int &backtrackLevel)
{
    learnt.clear();
    learnt.push_back(SatLit{}); // slot 0: the asserting literal
    int pathCount = 0;
    SatLit p{};
    int index = static_cast<int>(trail_.size()) - 1;
    ClauseRef c = conflict;

    do {
        assert(c != noClause);
        const int size = clauseSize(c);
        for (int j = p.valid() ? 1 : 0; j < size; ++j) {
            const SatLit q = clauseLit(c, j);
            const SatVar v = q.var();
            if (seen_[v] || level_[v] == 0)
                continue;
            seen_[v] = 1;
            bump(v);
            if (level_[v] >= decisionLevel())
                ++pathCount;
            else
                learnt.push_back(q);
        }
        // Walk back to the next marked trail literal.
        while (!seen_[trail_[index].var()])
            --index;
        p = trail_[index];
        c = reason_[p.var()];
        seen_[p.var()] = 0;
        --index;
        --pathCount;
    } while (pathCount > 0);
    learnt[0] = ~p;

    // Backtrack level: the deepest level among the tail literals.
    backtrackLevel = 0;
    int maxAt = 1;
    for (size_t i = 1; i < learnt.size(); ++i) {
        const int lv = level_[learnt[i].var()];
        if (lv > backtrackLevel) {
            backtrackLevel = lv;
            maxAt = static_cast<int>(i);
        }
    }
    if (learnt.size() > 1)
        std::swap(learnt[1], learnt[maxAt]);
    for (size_t i = 1; i < learnt.size(); ++i)
        seen_[learnt[i].var()] = 0;
}

void
SatSolver::cancelUntil(int level)
{
    if (decisionLevel() <= level)
        return;
    const int bound = trailLim_[level];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
        const SatVar v = trail_[i].var();
        phase_[v] = assign_[v];
        assign_[v] = -1;
        reason_[v] = noClause;
        if (heapPos_[v] < 0)
            heapInsert(v);
    }
    trail_.resize(bound);
    trailLim_.resize(level);
    qhead_ = trail_.size();
}

void
SatSolver::bump(SatVar v)
{
    activity_[v] += activityInc_;
    if (activity_[v] > 1e100) {
        for (double &a : activity_)
            a *= 1e-100;
        activityInc_ *= 1e-100;
    }
    if (heapPos_[v] >= 0)
        heapUp(heapPos_[v]);
}

void
SatSolver::decayActivities()
{
    activityInc_ *= (1.0 / 0.95);
}

bool
SatSolver::heapLess(SatVar a, SatVar b) const
{
    // Max-heap on activity; ties broken by lower variable index so
    // the search is fully deterministic.
    if (activity_[a] != activity_[b])
        return activity_[a] > activity_[b];
    return a < b;
}

void
SatSolver::heapInsert(SatVar v)
{
    heapPos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heapUp(heapPos_[v]);
}

SatVar
SatSolver::heapPop()
{
    const SatVar top = heap_[0];
    heapPos_[top] = -1;
    if (heap_.size() > 1) {
        heap_[0] = heap_.back();
        heapPos_[heap_[0]] = 0;
        heap_.pop_back();
        heapDown(0);
    } else {
        heap_.pop_back();
    }
    return top;
}

void
SatSolver::heapUp(int i)
{
    const SatVar v = heap_[i];
    while (i > 0) {
        const int parent = (i - 1) / 2;
        if (!heapLess(v, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heapPos_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = v;
    heapPos_[v] = i;
}

void
SatSolver::heapDown(int i)
{
    const SatVar v = heap_[i];
    const int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heapLess(heap_[child + 1], heap_[child]))
            ++child;
        if (!heapLess(heap_[child], v))
            break;
        heap_[i] = heap_[child];
        heapPos_[heap_[i]] = i;
        i = child;
    }
    heap_[i] = v;
    heapPos_[v] = i;
}

namespace
{

/** The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... */
long
luby(long i)
{
    // Find the smallest complete subtree (size 2^k - 1) holding
    // position i, then recurse into it; i is the 0-based index.
    long k = 1;
    while ((1L << k) - 1 < i + 1)
        ++k;
    while ((1L << k) - 1 != i + 1) {
        --k;
        i %= (1L << k) - 1;
    }
    return 1L << (k - 1);
}

} // namespace

SatStatus
SatSolver::solve(const SatBudget &budget)
{
    if (!ok_)
        return SatStatus::Unsat;
    if (propagate() != noClause) {
        ok_ = false;
        return SatStatus::Unsat;
    }

    constexpr long restartBase = 128;
    Stopwatch watch;
    std::vector<SatLit> learnt;
    long restartConflicts = 0;
    long restartLimit = restartBase * luby(0);

    while (true) {
        const ClauseRef conflict = propagate();
        if (conflict != noClause) {
            ++stats_.conflicts;
            ++restartConflicts;
            if (decisionLevel() == 0) {
                ok_ = false;
                return SatStatus::Unsat;
            }
            int backtrackLevel = 0;
            analyze(conflict, learnt, backtrackLevel);
            cancelUntil(backtrackLevel);
            if (learnt.size() == 1) {
                enqueue(learnt[0], noClause);
            } else {
                const ClauseRef c = pushClause(learnt);
                watchClause(c);
                enqueue(learnt[0], c);
            }
            ++stats_.learned;
            decayActivities();

            if (budget.maxConflicts > 0 &&
                stats_.conflicts >= budget.maxConflicts) {
                return SatStatus::Unknown;
            }
            if (budget.timeBudgetMs > 0.0 &&
                (stats_.conflicts & 0xFF) == 0 &&
                watch.elapsedMs() > budget.timeBudgetMs) {
                return SatStatus::Unknown;
            }
            continue;
        }

        if (restartConflicts >= restartLimit) {
            ++stats_.restarts;
            restartConflicts = 0;
            restartLimit = restartBase * luby(stats_.restarts);
            cancelUntil(0);
            continue;
        }

        // Decide: highest-activity unassigned variable, saved phase.
        SatVar next = -1;
        while (!heap_.empty()) {
            const SatVar v = heapPop();
            if (assign_[v] < 0) {
                next = v;
                break;
            }
        }
        if (next < 0)
            return SatStatus::Sat; // every variable assigned
        ++stats_.decisions;
        trailLim_.push_back(static_cast<int>(trail_.size()));
        enqueue(mkLit(next, phase_[next] == 0), noClause);
    }
}

} // namespace cams
