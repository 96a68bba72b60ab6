#include "regalloc/regalloc.hh"

#include <algorithm>
#include <map>

#include "support/logging.hh"

namespace cams
{

namespace
{

/** Files a value is written into: own cluster, or the copy's dsts. */
std::vector<ClusterId>
filesOf(const AnnotatedLoop &loop, NodeId producer)
{
    const OpPlacement &place = loop.placement[producer];
    if (loop.graph.node(producer).op == Opcode::Copy)
        return place.copyDsts;
    return {place.cluster};
}

/** Last read cycle of the value relative to iteration 0. */
long
lastUse(const AnnotatedLoop &loop, const Schedule &schedule,
        NodeId producer)
{
    long last = schedule.startCycle[producer];
    for (const AdjEdge &edge : loop.graph.outEdges(producer)) {
        last = std::max(last,
                        static_cast<long>(schedule.startCycle[edge.node]) +
                            static_cast<long>(schedule.ii) *
                                edge.distance);
    }
    return last;
}

} // namespace

const ValueAllocation *
RegisterAllocation::of(NodeId producer) const
{
    for (const ValueAllocation &value : values) {
        if (value.producer == producer)
            return &value;
    }
    return nullptr;
}

RegisterAllocation
allocateRegisters(const AnnotatedLoop &loop, const Schedule &schedule,
                  const MachineDesc &machine)
{
    RegisterAllocation allocation;
    allocation.registersPerFile.assign(machine.numClusters(), 0);

    for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
        if (loop.graph.outEdges(v).empty())
            continue; // dead value: nothing to hold

        ValueAllocation value;
        value.producer = v;
        value.lifetime = lastUse(loop, schedule, v) -
                         schedule.startCycle[v];
        cams_assert(value.lifetime >= 1, "consumer before producer");
        value.count = static_cast<int>(
            (value.lifetime + schedule.ii - 1) / schedule.ii);
        value.count = std::max(value.count, 1);

        const auto files = filesOf(loop, v);
        cams_assert(!files.empty(), "value with no register file");
        // A broadcast copy writes the same register number in every
        // destination file, so the bases must align: take the highest
        // current offset and advance every touched file to the same
        // watermark.
        int base = 0;
        for (ClusterId file : files)
            base = std::max(base, allocation.registersPerFile[file]);
        value.base = base;
        value.file = files.front();
        for (ClusterId file : files)
            allocation.registersPerFile[file] = base + value.count;

        allocation.mveFactor =
            std::max(allocation.mveFactor, value.count);
        allocation.values.push_back(value);
    }
    return allocation;
}

bool
verifyAllocation(const AnnotatedLoop &loop, const Schedule &schedule,
                 const RegisterAllocation &allocation, std::string *why)
{
    auto fail = [&](const std::string &message) {
        if (why)
            *why = message;
        return false;
    };

    // Every live value must have an allocation, in the right file(s).
    for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
        const bool live = !loop.graph.outEdges(v).empty();
        const ValueAllocation *value = allocation.of(v);
        if (live && !value)
            return fail("live value without registers: " +
                        loop.graph.node(v).name);
        if (!live && value)
            return fail("dead value with registers: " +
                        loop.graph.node(v).name);
    }

    // Dynamic occupancy: expand several iterations and check that no
    // two instances overlap on a physical register. Occupancy runs
    // from the defining issue to the last read; a write landing
    // exactly on the previous instance's last read is legal
    // (read-before-write register files).
    struct Interval
    {
        long from;
        long to;
        NodeId owner;
    };
    std::map<std::pair<ClusterId, int>, std::vector<Interval>> occupancy;

    const int horizon = 4 * std::max(1, allocation.mveFactor) + 4;
    for (const ValueAllocation &value : allocation.values) {
        const long def = schedule.startCycle[value.producer];
        const long last = def + value.lifetime;
        for (long k = 0; k < horizon; ++k) {
            const int reg = value.instanceRegister(k);
            for (ClusterId file : filesOf(loop, value.producer)) {
                occupancy[{file, reg}].push_back(
                    {def + k * schedule.ii, last + k * schedule.ii,
                     value.producer});
            }
        }
    }

    for (auto &[key, intervals] : occupancy) {
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.from < b.from;
                  });
        for (size_t i = 0; i + 1 < intervals.size(); ++i) {
            if (intervals[i].to > intervals[i + 1].from) {
                return fail(
                    "register clash in file C" +
                    std::to_string(key.first) + " r" +
                    std::to_string(key.second) + " between " +
                    loop.graph.node(intervals[i].owner).name + " and " +
                    loop.graph.node(intervals[i + 1].owner).name);
            }
        }
    }

    if (why)
        why->clear();
    return true;
}

} // namespace cams
