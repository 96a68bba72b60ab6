/**
 * @file
 * Reproduces every deviation figure of the paper's evaluation --
 * Figs. 12-19, Table 3, the Section 6 grid result -- plus the
 * assignment-ingredient ablation, from one table of series.
 *
 * Each series is a (label, machine, assignment-option tweak) row run
 * over the shared suite against the unified baseline of its machine
 * (benchutil::runSeries). The binary prints each figure's deviation
 * table in row order and writes BENCH_figures.json: per series its
 * loops, failures, copies, clustered and unified II sums and the
 * histogram of x = II(clustered) - II(unified). Every value is an
 * integer and each series sits on its own line, so the checked-in
 * bench/baselines/figures.json (full suite, default seed) pins every
 * paper number and `diff` names the series that moved.
 *
 * Flags: --only <id> (fig12 ... fig19, table3, grid, ablation) runs
 * one figure; every benchutil::parseBatchArgs flag works as well.
 * The output is identical for every --jobs value.
 *
 * Paper shapes: Fig. 12, Heuristic-Iterative dominates with ~99% of
 * loops at x = 0, dropping iteration costs 2-11% and dropping the
 * heuristic 1-9%; Figs. 14/16, one bus hurts ~4% of loops on two
 * clusters and two buses >10% on four, where four are the knee and
 * eight add ~3%; Figs. 15/17, one port is enough on two clusters and
 * two are the knee on four; Figs. 18/19, ~95% and ~94% at x = 0 at
 * the knee bus counts; Table 3, 99.7/97.5/96.5/99.5% at x = 0 on
 * 2/4/6/8 clusters; grid, 92% at x = 0 and 98% within one cycle.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "machine/configs.hh"

namespace
{

using namespace cams;

/** One curve: a machine and how its options differ from the default
 *  Heuristic-Iterative assignment (nullptr: no change). */
struct Row
{
    std::string label;
    MachineDesc machine;
    void (*tweak)(AssignOptions &) = nullptr;
};

/** One figure: its --only id, printed title and series. */
struct Figure
{
    const char *id;
    const char *title;
    std::vector<Row> rows;
};

void
noHeuristic(AssignOptions &o)
{
    o.fullHeuristic = false;
}

void
noIteration(AssignOptions &o)
{
    o.iterative = false;
}

void
simpleOnly(AssignOptions &o)
{
    o.iterative = false;
    o.fullHeuristic = false;
}

std::vector<Figure>
figureTable()
{
    const MachineDesc gp2 = busedGpMachine(2, 2, 1);
    const MachineDesc gp4 = busedGpMachine(4, 4, 2);
    return {
        {"fig12",
         "Figure 12: assignment variants, 2 clusters x 4 GP, 2 buses, "
         "1 port",
         {{"heuristic-iterative", gp2},
          {"simple-iterative", gp2, noHeuristic},
          {"heuristic", gp2, noIteration},
          {"simple", gp2, simpleOnly}}},
        {"fig13",
         "Figure 13: assignment variants, 4 clusters x 4 GP, 4 buses, "
         "2 ports",
         {{"heuristic-iterative", gp4},
          {"simple-iterative", gp4, noHeuristic},
          {"heuristic", gp4, noIteration},
          {"simple", gp4, simpleOnly}}},
        {"fig14",
         "Figure 14: varying buses, 2 clusters x 4 GP, 1 port",
         {{"1 bus(es)", busedGpMachine(2, 1, 1)},
          {"2 bus(es)", busedGpMachine(2, 2, 1)},
          {"4 bus(es)", busedGpMachine(2, 4, 1)}}},
        {"fig15",
         "Figure 15: varying ports, 2 clusters x 4 GP, 2 buses",
         {{"1 port(s)", busedGpMachine(2, 2, 1)},
          {"2 port(s)", busedGpMachine(2, 2, 2)}}},
        {"fig16",
         "Figure 16: varying buses, 4 clusters x 4 GP, 2 ports",
         {{"2 buses", busedGpMachine(4, 2, 2)},
          {"4 buses", busedGpMachine(4, 4, 2)},
          {"8 buses", busedGpMachine(4, 8, 2)}}},
        {"fig17",
         "Figure 17: varying ports, 4 clusters x 4 GP, 4 buses",
         {{"1 port(s)", busedGpMachine(4, 4, 1)},
          {"2 port(s)", busedGpMachine(4, 4, 2)},
          {"4 port(s)", busedGpMachine(4, 4, 4)}}},
        {"fig18",
         "Figure 18: varying buses, 2 clusters x 4 FS, 1 port",
         {{"1 bus(es)", busedFsMachine(2, 1, 1)},
          {"2 bus(es)", busedFsMachine(2, 2, 1)},
          {"4 bus(es)", busedFsMachine(2, 4, 1)}}},
        {"fig19",
         "Figure 19: varying buses, 4 clusters x 4 FS, 2 ports",
         {{"2 buses", busedFsMachine(4, 2, 2)},
          {"4 buses", busedFsMachine(4, 4, 2)},
          {"8 buses", busedFsMachine(4, 8, 2)}}},
        {"table3",
         "Table 3: bus/port resource comparisons",
         {{"2c-gp-2b-1p", busedGpMachine(2, 2, 1)},
          {"4c-gp-4b-2p", busedGpMachine(4, 4, 2)},
          {"6c-gp-6b-3p", busedGpMachine(6, 6, 3)},
          {"8c-gp-7b-3p", busedGpMachine(8, 7, 3)}}},
        {"grid",
         "Grid result: 4-cluster point-to-point grid, 1m/1i/1f per "
         "cluster (paper: 92% at x=0, 98% within 1)",
         {{"4c grid (2 links/cluster)", gridMachine()}}},
        {"ablation",
         "Ablation: assignment ingredients on 2 clusters x 4 GP, "
         "2 buses, 1 port",
         {{"full algorithm", gp2},
          {"- swing order (id order)", gp2,
           [](AssignOptions &o) { o.useSwingOrder = false; }},
          {"- scc affinity", gp2,
           [](AssignOptions &o) { o.useSccAffinity = false; }},
          {"- pcr prediction", gp2,
           [](AssignOptions &o) { o.usePcrPrediction = false; }},
          {"- restarts (1 try/II)", gp2,
           [](AssignOptions &o) { o.restartsPerIi = 1; }},
          {"- iteration", gp2, noIteration},
          {"- everything (simple)", gp2, simpleOnly}}},
    };
}

/** One series as a single JSON line of integers. */
std::string
seriesJson(const char *figure, const Row &row,
           const DeviationSeries &series)
{
    std::ostringstream os;
    os << "{\"figure\":\"" << figure << "\",\"label\":\"" << row.label
       << "\",\"machine\":\"" << row.machine.name
       << "\",\"loops\":" << series.loops()
       << ",\"failures\":" << series.failures
       << ",\"copies\":" << series.totalCopies
       << ",\"ii_sum\":" << series.iiSum
       << ",\"unified_ii_sum\":" << series.unifiedIiSum << ",\"x\":{";
    const char *sep = "";
    for (const auto &[deviation, count] : series.deviations.bins()) {
        os << sep << "\"" << deviation << "\":" << count;
        sep = ",";
    }
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Figure> figures = figureTable();

    // --only picks a figure; the rest is the shared flag surface.
    std::string only;
    std::vector<char *> shared = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--only" && i + 1 < argc)
            only = argv[++i];
        else
            shared.push_back(argv[i]);
    }
    benchutil::parseBatchArgs(static_cast<int>(shared.size()),
                              shared.data(), " [--only ID]");
    if (!only.empty()) {
        bool known = false;
        for (const Figure &figure : figures)
            known = known || only == figure.id;
        if (!known) {
            std::cerr << "unknown figure '" << only << "'; --only takes";
            for (const Figure &figure : figures)
                std::cerr << " " << figure.id;
            std::cerr << "\n";
            return 2;
        }
    }

    std::vector<std::string> lines;
    for (const Figure &figure : figures) {
        if (!only.empty() && only != figure.id)
            continue;
        std::vector<DeviationSeries> series;
        for (const Row &row : figure.rows) {
            CompileOptions options;
            if (row.tweak)
                row.tweak(options.assign);
            series.push_back(
                benchutil::runSeries(row.label, row.machine, options));
            lines.push_back(seriesJson(figure.id, row, series.back()));
        }
        benchutil::printFigure(figure.title, series);
    }

    std::ofstream json("BENCH_figures.json");
    json << "{\"bench\":\"figures\",\"loops\":"
         << benchutil::sharedSuite().size()
         << ",\"suite_seed\":" << benchutil::suiteSeed()
         << ",\"series\":[\n";
    for (size_t i = 0; i < lines.size(); ++i)
        json << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
    json << "]}\n";
    std::cerr << "BENCH_figures.json written" << std::endl;
    return 0;
}
