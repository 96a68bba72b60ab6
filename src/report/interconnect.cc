#include "report/interconnect.hh"

#include "mrt/mrt.hh"
#include "support/logging.hh"

namespace cams
{

InterconnectStats
computeInterconnectStats(const AnnotatedLoop &loop,
                         const Schedule &schedule,
                         const ResourceModel &model)
{
    InterconnectStats stats;
    cams_assert(schedule.ii > 0, "stats on an empty schedule");

    Mrt mrt(model, schedule.ii);
    std::vector<PoolId> request;
    for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
        loop.requestInto(model, v, request);
        mrt.occupy(request, schedule.row(v));
        if (loop.isCopy(v))
            ++stats.copies;
    }

    auto occupancy = [&](PoolId pool) {
        const double capacity =
            static_cast<double>(model.capacity(pool)) * schedule.ii;
        return mrt.usedTotal(pool) / capacity;
    };

    const MachineDesc &machine = model.machine();
    if (model.busPool() != invalidPool)
        stats.busUtilization = occupancy(model.busPool());
    for (size_t link = 0; link < machine.links.size(); ++link) {
        stats.linkUtilization.push_back(
            occupancy(model.linkPool(static_cast<int>(link))));
    }

    int read_files = 0;
    int write_files = 0;
    for (ClusterId c = 0; c < machine.numClusters(); ++c) {
        if (model.readPool(c) != invalidPool) {
            stats.readPortUtilization += occupancy(model.readPool(c));
            ++read_files;
        }
        if (model.writePool(c) != invalidPool) {
            stats.writePortUtilization += occupancy(model.writePool(c));
            ++write_files;
        }
    }
    if (read_files > 0)
        stats.readPortUtilization /= read_files;
    if (write_files > 0)
        stats.writePortUtilization /= write_files;
    return stats;
}

} // namespace cams
