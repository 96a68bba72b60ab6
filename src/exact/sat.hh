/**
 * @file
 * A small self-contained CDCL SAT solver: two-watched-literal unit
 * propagation, first-UIP conflict analysis with clause learning,
 * VSIDS-lite variable activities with phase saving, Luby restarts,
 * and budget-aware cancellation.
 *
 * The solver exists to answer the exact backend's per-II decision
 * problems (src/exact/encode.*); it is deliberately minimal -- no
 * preprocessing, no learned-clause deletion, no incremental
 * assumptions -- because the instances are rebuilt per II and die
 * with the solve. Budgets are expressed primarily as a *conflict
 * count* so that test and CI behavior is deterministic across
 * machines and sanitizers; an optional wall-clock bound rides along
 * for the compile driver's per-job deadline.
 *
 * Determinism: with a fixed clause stream and fixed budget the solve
 * is a pure function -- decision order depends only on activities,
 * which depend only on the conflict history. No randomness anywhere.
 */

#ifndef CAMS_EXACT_SAT_HH
#define CAMS_EXACT_SAT_HH

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace cams
{

/** A propositional variable, 0-based. */
using SatVar = int;

/**
 * A literal: variable plus sign, encoded as 2v (positive) or 2v+1
 * (negated) so it can index watch lists directly.
 */
struct SatLit
{
    int code = -2;

    SatVar var() const { return code >> 1; }
    bool sign() const { return code & 1; } ///< true = negated
    bool valid() const { return code >= 0; }

    bool operator==(const SatLit &o) const { return code == o.code; }
    bool operator!=(const SatLit &o) const { return code != o.code; }
};

/** The positive (neg = false) or negated literal of a variable. */
inline SatLit
mkLit(SatVar v, bool neg = false)
{
    return SatLit{(v << 1) | (neg ? 1 : 0)};
}

/** Negation. */
inline SatLit
operator~(SatLit l)
{
    return SatLit{l.code ^ 1};
}

/** Outcome of one solve call. */
enum class SatStatus
{
    Sat,     ///< a model was found; read it via SatSolver::value
    Unsat,   ///< refutation complete: no model exists
    Unknown, ///< budget exhausted before an answer
};

/** Stable lowercase name (for logs and JSON). */
const char *satStatusName(SatStatus status);

/**
 * Solve budget. maxConflicts is the deterministic primary bound
 * (0 = unbounded); timeBudgetMs is a coarse wall-clock backstop
 * checked every few hundred conflicts (0 = unbounded).
 */
struct SatBudget
{
    long maxConflicts = 0;
    double timeBudgetMs = 0.0;
};

/** Search counters of one solver lifetime. */
struct SatSolverStats
{
    long conflicts = 0;
    long decisions = 0;
    long propagations = 0;
    long learned = 0;
    long restarts = 0;
};

/** The CDCL solver. Add variables and clauses, then solve once. */
class SatSolver
{
  public:
    SatSolver() = default;

    /** Creates a fresh variable and returns it. */
    SatVar newVar();

    int numVars() const { return static_cast<int>(assign_.size()); }

    long numClauses() const { return numClauses_; }

    /**
     * Adds one clause (empty = immediate contradiction). Literals
     * must name existing variables. False literals already fixed at
     * the root level are dropped; a clause true at the root level is
     * dropped whole. Returns false when the solver became
     * contradictory at the root (okay() goes false and stays false).
     */
    bool addClause(std::span<const SatLit> lits);

    /** Convenience for tiny clauses; they build no vector. */
    bool addClause(SatLit a);
    bool addClause(SatLit a, SatLit b);
    bool addClause(SatLit a, SatLit b, SatLit c);

    /** False once a root-level contradiction was derived. */
    bool okay() const { return ok_; }

    /**
     * Runs the CDCL search. Callable once per solver instance (the
     * learned clauses and trail are not rewound between calls).
     */
    SatStatus solve(const SatBudget &budget = {});

    /** Value of a variable in the model; valid only after Sat. */
    bool value(SatVar v) const { return assign_[v] == 1; }

    const SatSolverStats &stats() const { return stats_; }

  private:
    // Clause storage: one flat arena; a clause ref is the offset of
    // its header. Layout: [size, lit0, lit1, ...]. The first two
    // literals are the watched pair.
    using ClauseRef = int32_t;
    static constexpr ClauseRef noClause = -1;

    int clauseSize(ClauseRef c) const { return arena_[c]; }
    SatLit clauseLit(ClauseRef c, int i) const
    {
        return SatLit{arena_[c + 1 + i]};
    }

    ClauseRef pushClause(std::span<const SatLit> lits);
    void watchClause(ClauseRef c);
    void watch(SatLit l, ClauseRef c);

    // Assignment plumbing. lbool encoding: -1 unset, 0 false, 1 true.
    int litValue(SatLit l) const
    {
        const int8_t a = assign_[l.var()];
        return a < 0 ? -1 : (a ^ static_cast<int8_t>(l.sign()));
    }
    void enqueue(SatLit l, ClauseRef reason);
    ClauseRef propagate();
    void analyze(ClauseRef conflict, std::vector<SatLit> &learnt,
                 int &backtrackLevel);
    void cancelUntil(int level);
    int decisionLevel() const
    {
        return static_cast<int>(trailLim_.size());
    }

    // VSIDS-lite: a max-heap over activities.
    void bump(SatVar v);
    void decayActivities();
    void heapInsert(SatVar v);
    SatVar heapPop();
    void heapUp(int i);
    void heapDown(int i);
    bool heapLess(SatVar a, SatVar b) const;

    bool ok_ = true;
    std::vector<int32_t> arena_;
    long numClauses_ = 0;
    /** watches_[lit.code]: clauses currently watching that literal. */
    std::vector<std::vector<ClauseRef>> watches_;
    std::vector<int8_t> assign_;  ///< -1 / 0 / 1 per var
    std::vector<int8_t> phase_;   ///< saved polarity (1 = true)
    std::vector<int> level_;      ///< decision level per assigned var
    std::vector<ClauseRef> reason_;
    std::vector<SatLit> trail_;
    std::vector<int> trailLim_;
    size_t qhead_ = 0;

    std::vector<double> activity_;
    double activityInc_ = 1.0;
    std::vector<SatVar> heap_;
    std::vector<int> heapPos_; ///< -1 = not in heap

    std::vector<uint8_t> seen_;      ///< analyze() scratch
    std::vector<SatLit> simplified_; ///< addClause() scratch
    SatSolverStats stats_;
};

} // namespace cams

#endif // CAMS_EXACT_SAT_HH
