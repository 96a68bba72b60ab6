#include "codegen/emit.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"

namespace cams
{

namespace
{

/** Operand text for reading the value of @p producer at distance d. */
std::string
operandText(const AnnotatedLoop &loop,
            const RegisterAllocation &allocation, NodeId producer,
            int distance, ClusterId reading_cluster)
{
    const ValueAllocation *value = allocation.of(producer);
    cams_assert(value, "reading an unallocated value");
    std::ostringstream os;
    os << "c" << reading_cluster << ":r" << value->base;
    if (value->count > 1)
        os << "+" << value->count - 1 << "w";
    if (distance > 0)
        os << "[-" << distance << "]";
    (void)loop;
    return os.str();
}

/** Full instruction text of one operation. */
std::string
instructionText(const AnnotatedLoop &loop,
                const RegisterAllocation &allocation,
                const MachineDesc &machine, NodeId v)
{
    const DfgNode &node = loop.graph.node(v);
    const OpPlacement &place = loop.placement[v];
    std::ostringstream os;

    os << "C" << place.cluster << ": ";
    const ValueAllocation *dst = allocation.of(v);
    if (dst) {
        if (node.op == Opcode::Copy) {
            os << "{";
            for (size_t i = 0; i < place.copyDsts.size(); ++i) {
                os << (i ? "," : "") << "c" << place.copyDsts[i] << ":r"
                   << dst->base;
            }
            os << "} = ";
        } else {
            os << "c" << place.cluster << ":r" << dst->base << " = ";
        }
    }
    os << opcodeName(node.op) << "(";
    bool first = true;
    for (const AdjEdge &edge : loop.graph.inEdges(v)) {
        os << (first ? "" : ", ")
           << operandText(loop, allocation, edge.node, edge.distance,
                          place.cluster);
        first = false;
    }
    os << ")";
    if (node.op == Opcode::Copy) {
        if (machine.broadcast()) {
            os << " via bus";
        } else {
            os << " via link" << place.cluster << "-"
               << place.copyDsts.front();
        }
    }
    return os.str();
}

} // namespace

std::string
emitKernel(const AnnotatedLoop &loop, const Schedule &schedule,
           const RegisterAllocation &allocation,
           const MachineDesc &machine)
{
    std::ostringstream os;
    os << "; kernel, II=" << schedule.ii
       << ", stages=" << schedule.stageCount() << "\n";
    for (int row = 0; row < schedule.ii; ++row) {
        os << "cycle " << row << ":\n";
        for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
            if (schedule.row(v) != row)
                continue;
            os << "    (p" << schedule.stage(v) << ") "
               << instructionText(loop, allocation, machine, v)
               << "\n";
        }
    }
    return os.str();
}

std::string
emitMveKernel(const AnnotatedLoop &loop, const Schedule &schedule,
              const RegisterAllocation &allocation,
              const MachineDesc &machine)
{
    const int unroll = std::max(1, allocation.mveFactor);
    std::ostringstream os;
    os << "; MVE kernel, II=" << schedule.ii << ", unrolled x" << unroll
       << " (no rotating register file)\n";

    auto regName = [&](NodeId producer, long iteration) {
        const ValueAllocation *value = allocation.of(producer);
        cams_assert(value, "reading an unallocated value");
        std::string name = "r" + std::to_string(value->base);
        if (value->count > 1) {
            name += "#" + std::to_string(
                              ((iteration % value->count) +
                               value->count) %
                              value->count);
        }
        return name;
    };

    for (int u = 0; u < unroll; ++u) {
        os << "; unrolled copy " << u << "\n";
        for (int row = 0; row < schedule.ii; ++row) {
            os << "cycle " << u * schedule.ii + row << ":\n";
            for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
                if (schedule.row(v) != row)
                    continue;
                const DfgNode &node = loop.graph.node(v);
                const OpPlacement &place = loop.placement[v];
                os << "    C" << place.cluster << ": ";
                if (allocation.of(v))
                    os << regName(v, u) << " = ";
                os << opcodeName(node.op) << "(";
                bool first = true;
                for (const AdjEdge &edge : loop.graph.inEdges(v)) {
                    os << (first ? "" : ", ")
                       << regName(edge.node, u - edge.distance);
                    first = false;
                }
                os << ")";
                if (node.op == Opcode::Copy && machine.broadcast())
                    os << " via bus";
                os << "\n";
            }
        }
    }
    return os.str();
}

std::string
emitPipeline(const AnnotatedLoop &loop, const Schedule &schedule,
             const RegisterAllocation &allocation,
             const MachineDesc &machine, int extra_iterations)
{
    const int stages = schedule.stageCount();
    // The steady-state window [ (stages-1)*II, (iters-stages+1)*II )
    // holds one kernel repetition per iteration beyond 2*(stages-1);
    // run enough iterations for at least max(1, extra) repetitions.
    const int iterations =
        2 * (stages - 1) + std::max(1, extra_iterations);
    const int ii = schedule.ii;

    struct Instance
    {
        long cycle;
        NodeId node;
        int iteration;
    };
    std::vector<Instance> instances;
    for (int k = 0; k < iterations; ++k) {
        for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
            instances.push_back(
                {schedule.startCycle[v] + static_cast<long>(k) * ii, v,
                 k});
        }
    }
    std::sort(instances.begin(), instances.end(),
              [](const Instance &a, const Instance &b) {
                  if (a.cycle != b.cycle)
                      return a.cycle < b.cycle;
                  return a.node < b.node;
              });

    // Every cycle in [ (stages-1)*II, iterations*II ) executes a full
    // kernel row (all stages active); before is fill, after is drain.
    const long kernel_from = static_cast<long>(stages - 1) * ii;
    const long kernel_to = static_cast<long>(iterations) * ii;

    std::ostringstream os;
    os << "; pipeline for " << iterations << " iterations (II=" << ii
       << ", " << stages << " stages)\n";
    os << "; prologue\n";
    long cycle = -1;
    bool in_kernel_note = false;
    for (const Instance &inst : instances) {
        if (inst.cycle >= kernel_from && inst.cycle < kernel_to) {
            if (!in_kernel_note) {
                os << "; steady state: kernel repeats "
                   << (kernel_to - kernel_from) / ii << " time(s)\n";
                os << emitKernel(loop, schedule, allocation, machine);
                os << "; epilogue\n";
                in_kernel_note = true;
            }
            continue;
        }
        if (inst.cycle != cycle) {
            cycle = inst.cycle;
            os << "cycle " << cycle << ":\n";
        }
        os << "    [i" << inst.iteration << "] "
           << instructionText(loop, allocation, machine, inst.node)
           << "\n";
    }
    return os.str();
}

} // namespace cams
