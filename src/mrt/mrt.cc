#include "mrt/mrt.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace cams
{

ResourceModel::ResourceModel(const MachineDesc &machine)
    : machine_(machine)
{
    machine_.validate();

    // At most every unit class and both ports per cluster, the bus and
    // the links.
    const int clusters = machine_.numClusters();
    const size_t maxPools =
        static_cast<size_t>(clusters) * (numFuClasses + 2) + 1 +
        machine_.links.size();
    capacity_.reserve(maxPools);
    fuPools_.reserve(clusters);
    linkPools_.reserve(machine_.links.size());
    readPools_.reserve(clusters);
    writePools_.reserve(clusters);
    localPools_.reserve(static_cast<size_t>(clusters) * (numFuClasses + 2));
    localOff_.reserve(clusters + 1);

    auto addPool = [&](int capacity) -> PoolId {
        capacity_.push_back(capacity);
        return static_cast<PoolId>(capacity_.size() - 1);
    };

    for (ClusterId c = 0; c < machine_.numClusters(); ++c) {
        const ClusterDesc &cluster = machine_.cluster(c);
        std::array<PoolId, numFuClasses> pools;
        pools.fill(invalidPool);
        if (cluster.usesGpPool()) {
            pools.fill(addPool(cluster.gpUnits));
        } else {
            for (int cls = 0; cls < numFuClasses; ++cls) {
                if (cluster.fsUnits[cls] > 0)
                    pools[cls] = addPool(cluster.fsUnits[cls]);
            }
        }
        fuPools_.push_back(pools);

        readPools_.push_back(invalidPool);
        writePools_.push_back(invalidPool);
        if (cluster.readPorts > 0)
            readPools_.back() = addPool(cluster.readPorts);
        if (cluster.writePorts > 0)
            writePools_.back() = addPool(cluster.writePorts);
    }

    if (machine_.interconnect == InterconnectKind::Bus &&
        machine_.numBuses > 0) {
        busPool_ = addPool(machine_.numBuses);
    }
    for (size_t i = 0; i < machine_.links.size(); ++i)
        linkPools_.push_back(addPool(1));
    for (PoolId pool = 0; pool < numPools(); ++pool) {
        const int capacity = capacity_[pool];
        cams_assert(capacity > 0, "pool '", poolName(pool),
                    "' with capacity 0");
    }

    if (machine_.interconnect == InterconnectKind::PointToPoint) {
        const int n = machine_.numClusters();
        // Filled in reverse so a pair linked twice maps to its first
        // link, as linkBetween() reports it.
        linkOf_.assign(static_cast<size_t>(n) * n, -1);
        for (int i = static_cast<int>(machine_.links.size()) - 1; i >= 0;
             --i) {
            const LinkDesc &link = machine_.links[i];
            linkOf_[static_cast<size_t>(link.a) * n + link.b] = i;
            linkOf_[static_cast<size_t>(link.b) * n + link.a] = i;
        }
        hopTrees_.reserve(n);
        for (ClusterId c = 0; c < n; ++c)
            hopTrees_.push_back(machine_.hopTree(c));
    }

    // Each cluster's local pools: its distinct unit pools plus its
    // ports, ascending.
    localOff_.assign(1, 0);
    for (ClusterId c = 0; c < machine_.numClusters(); ++c) {
        const auto first = localPools_.end() - localPools_.begin();
        for (PoolId pool : fuPools_[c]) {
            if (pool != invalidPool)
                localPools_.push_back(pool);
        }
        for (PoolId port : {readPools_[c], writePools_[c]}) {
            if (port != invalidPool)
                localPools_.push_back(port);
        }
        std::sort(localPools_.begin() + first, localPools_.end());
        localPools_.erase(
            std::unique(localPools_.begin() + first, localPools_.end()),
            localPools_.end());
        localOff_.push_back(static_cast<int>(localPools_.size()));
    }
}

int
ResourceModel::capacity(PoolId pool) const
{
    cams_assert(pool >= 0 && pool < numPools(), "bad pool ", pool);
    return capacity_[pool];
}

PoolId
ResourceModel::fuPool(ClusterId cluster, FuClass cls) const
{
    cams_assert(cluster >= 0 && cluster < machine_.numClusters(),
                "bad cluster ", cluster);
    if (cls == FuClass::None)
        return invalidPool;
    return fuPools_[cluster][static_cast<int>(cls)];
}

PoolId
ResourceModel::readPool(ClusterId cluster) const
{
    cams_assert(cluster >= 0 && cluster < machine_.numClusters(),
                "bad cluster ", cluster);
    return readPools_[cluster];
}

PoolId
ResourceModel::writePool(ClusterId cluster) const
{
    cams_assert(cluster >= 0 && cluster < machine_.numClusters(),
                "bad cluster ", cluster);
    return writePools_[cluster];
}

PoolId
ResourceModel::linkPool(int link) const
{
    cams_assert(link >= 0 && link < static_cast<int>(linkPools_.size()),
                "bad link ", link);
    return linkPools_[link];
}

const HopTree &
ResourceModel::hopTree(ClusterId src) const
{
    cams_assert(machine_.interconnect == InterconnectKind::PointToPoint,
                "hop trees exist on point-to-point machines only");
    cams_assert(src >= 0 && src < machine_.numClusters(), "bad cluster ", src);
    return hopTrees_[src];
}

std::string
ResourceModel::poolName(PoolId pool) const
{
    cams_assert(pool >= 0 && pool < numPools(), "bad pool ", pool);
    // Names serve diagnostics only, so they are derived from the pool
    // tables on demand rather than stored.
    for (ClusterId c = 0; c < machine_.numClusters(); ++c) {
        const std::string at = '@' + std::to_string(c);
        for (int cls = 0; cls < numFuClasses; ++cls) {
            if (fuPools_[c][cls] != pool)
                continue;
            if (machine_.cluster(c).usesGpPool())
                return "gp" + at;
            return fuClassName(static_cast<FuClass>(cls)) + at;
        }
        if (pool == readPools_[c])
            return "rd" + at;
        if (pool == writePools_[c])
            return "wr" + at;
    }
    if (pool == busPool_)
        return "bus";
    for (size_t i = 0; i < linkPools_.size(); ++i) {
        if (pool == linkPools_[i]) {
            return "link" + std::to_string(machine_.links[i].a) + "-" +
                   std::to_string(machine_.links[i].b);
        }
    }
    return {};
}

std::span<const PoolId>
ResourceModel::fuRequest(ClusterId cluster, FuClass cls) const
{
    const PoolId pool = fuPool(cluster, cls);
    if (pool == invalidPool)
        return {};
    return {&fuPools_[cluster][static_cast<int>(cls)], 1};
}

std::span<const PoolId>
ResourceModel::localPools(ClusterId cluster) const
{
    cams_assert(cluster >= 0 && cluster < machine_.numClusters(),
                "bad cluster ", cluster);
    return {localPools_.data() + localOff_[cluster],
            localPools_.data() + localOff_[cluster + 1]};
}

void
ResourceModel::opRequestInto(ClusterId cluster, Opcode op,
                             std::vector<PoolId> &out) const
{
    cams_assert(op != Opcode::Copy,
                "copies are requested via copyRequestInto()");
    const PoolId pool = fuPool(cluster, opcodeFuClass(op));
    if (pool == invalidPool) {
        cams_fatal("cluster ", cluster, " of machine '", machine_.name,
                   "' cannot execute ", opcodeName(op));
    }
    out.assign(1, pool);
}

void
ResourceModel::copyRequestInto(ClusterId src, std::span<const ClusterId> dsts,
                               std::vector<PoolId> &out) const
{
    cams_assert(!dsts.empty(), "copy with no destination");
    out.clear();
    out.reserve(2 + dsts.size());

    const PoolId read = readPool(src);
    if (read == invalidPool) {
        cams_fatal("cluster ", src, " of machine '", machine_.name,
                   "' has no read ports; cannot source a copy");
    }
    out.push_back(read);

    if (machine_.interconnect == InterconnectKind::Bus) {
        cams_assert(busPool_ != invalidPool,
                    "copy on a machine without buses");
        out.push_back(busPool_);
    } else {
        cams_assert(dsts.size() == 1,
                    "point-to-point copies have one destination");
        const int n = machine_.numClusters();
        cams_assert(dsts[0] >= 0 && dsts[0] < n, "bad cluster ", dsts[0]);
        const int link = linkOf_[static_cast<size_t>(src) * n + dsts[0]];
        cams_assert(link >= 0, "no link between clusters ", src, " and ",
                    dsts[0]);
        out.push_back(linkPool(link));
    }

    for (ClusterId dst : dsts) {
        cams_assert(dst != src, "copy to the source cluster");
        const PoolId write = writePool(dst);
        if (write == invalidPool) {
            cams_fatal("cluster ", dst, " of machine '", machine_.name,
                       "' has no write ports; cannot receive a copy");
        }
        out.push_back(write);
    }
}

namespace
{

/** Requests are tiny (one FU pool, or ports + bus/link), so a
 *  quadratic duplicate test beats anything with allocation. */
bool
hasDuplicatePool(std::span<const PoolId> pools)
{
    for (size_t i = 1; i < pools.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
            if (pools[j] == pools[i])
                return true;
        }
    }
    return false;
}

} // namespace

Mrt::Mrt(const ResourceModel &model, int ii)
{
    reset(model, ii);
}

void
Mrt::reset(const ResourceModel &model, int ii)
{
    model_ = &model;
    ii_ = 0; // force the rebuild even at an unchanged length
    reset(ii);
}

void
Mrt::reset(int ii)
{
    cams_assert(model_ != nullptr, "reset of an unbound MRT");
    cams_assert(ii >= 1, "MRT with ii ", ii);
    ii_ = ii;
    words_ = (ii + 63) / 64;
    use_.assign(static_cast<size_t>(model_->numPools()) * (ii + 1), 0);
    // Every row starts free; bits past row ii-1 stay zero so word
    // scans never propose a row outside the table.
    freeRows_.assign(static_cast<size_t>(model_->numPools()) * words_,
                     ~uint64_t{0});
    const int tail = ii % 64;
    if (tail != 0) {
        const uint64_t last = (uint64_t{1} << tail) - 1;
        for (PoolId pool = 0; pool < model_->numPools(); ++pool)
            freeRows_[static_cast<size_t>(pool) * words_ + words_ - 1] =
                last;
    }
}

bool
Mrt::fitsExactly(std::span<const PoolId> pools, int row) const
{
    for (size_t i = 0; i < pools.size(); ++i) {
        const PoolId pool = pools[i];
        // Count multiplicity of this pool within the request.
        int need = 0;
        for (size_t j = 0; j <= i; ++j) {
            if (pools[j] == pool)
                ++need;
        }
        if (use_[static_cast<size_t>(pool) * ii_ + row] + need >
            model_->capacity(pool)) {
            return false;
        }
    }
    return true;
}

bool
Mrt::canReserveAt(std::span<const PoolId> pools, int row) const
{
    cams_assert(row >= 0 && row < ii_, "bad row ", row);
    const size_t word = static_cast<size_t>(row) >> 6;
    const uint64_t bit = uint64_t{1} << (row & 63);
    for (PoolId pool : pools) {
        ++wordScans_;
        if (!(freeRows_[static_cast<size_t>(pool) * words_ + word] &
              bit)) {
            return false;
        }
    }
    // The bits prove one free slot per distinct pool; a request
    // naming the same pool twice still needs the exact count.
    return !hasDuplicatePool(pools) || fitsExactly(pools, row);
}

const uint64_t *
Mrt::combineMasks(std::span<const PoolId> pools) const
{
    uint64_t *mask = &maskWord_;
    if (words_ > 1) {
        mask_.resize(words_);
        mask = mask_.data();
    }
    std::fill(mask, mask + words_, ~uint64_t{0});
    for (PoolId pool : pools) {
        const size_t base = static_cast<size_t>(pool) * words_;
        for (int w = 0; w < words_; ++w)
            mask[w] &= freeRows_[base + w];
    }
    wordScans_ += static_cast<long>(pools.size()) * words_;
    return mask;
}

int
Mrt::findRow(std::span<const PoolId> pools) const
{
    // A single-pool request (the common case: one FU slot) needs no
    // combining -- the pool's own free-row mask is the answer.
    const uint64_t *mask;
    if (pools.size() == 1) {
        mask = freeRows_.data() +
               static_cast<size_t>(pools[0]) * words_;
    } else {
        mask = combineMasks(pools);
    }
    const bool verify = hasDuplicatePool(pools);
    for (int w = 0; w < words_; ++w) {
        ++wordScans_;
        uint64_t word = mask[w];
        while (word != 0) {
            const int row = w * 64 + std::countr_zero(word);
            if (!verify || fitsExactly(pools, row))
                return row;
            word &= word - 1;
        }
    }
    return -1;
}

int
Mrt::scanRows(std::span<const PoolId> pools, int startRow, int count,
              int step) const
{
    cams_assert(startRow >= 0 && startRow < ii_, "bad row ", startRow);
    cams_assert(step == 1 || step == -1, "bad scan step ", step);
    const uint64_t *mask;
    if (pools.size() == 1) {
        mask = freeRows_.data() +
               static_cast<size_t>(pools[0]) * words_;
    } else {
        mask = combineMasks(pools);
    }
    const bool verify = hasDuplicatePool(pools);
    int row = startRow;
    int skipped = 0;
    while (skipped < count) {
        const int w = row >> 6;
        ++wordScans_;
        if (mask[w] == 0) {
            // Whole word full: hop to its edge in the scan direction
            // (never past row ii-1, whose successor starts word 0).
            const int hop = std::min(
                count - skipped,
                step > 0 ? std::min(64 - (row & 63), ii_ - row)
                         : (row & 63) + 1);
            skipped += hop;
            row = (row + step * hop + ii_ * hop) % ii_;
            continue;
        }
        if ((mask[w] >> (row & 63)) & 1) {
            if (!verify || fitsExactly(pools, row))
                return skipped;
        }
        ++skipped;
        row = (row + step + ii_) % ii_;
    }
    return -1;
}

void
Mrt::occupy(std::span<const PoolId> pools, int row)
{
    cams_assert(row >= 0 && row < ii_, "bad row ", row);
    cams_assert(fitsExactly(pools, row), "occupying a full row ", row);
    for (PoolId pool : pools) {
        const int used = ++use_[static_cast<size_t>(pool) * ii_ + row];
        ++usedTotalOf(pool);
        if (used == model_->capacity(pool)) {
            freeRows_[static_cast<size_t>(pool) * words_ + (row >> 6)] &=
                ~(uint64_t{1} << (row & 63));
        }
    }
}

void
Mrt::free(std::span<const PoolId> pools, int row)
{
    cams_assert(row >= 0 && row < ii_, "bad row ", row);
    for (PoolId pool : pools) {
        int &slot = use_[static_cast<size_t>(pool) * ii_ + row];
        cams_assert(slot > 0, "double release of pool ",
                    model_->poolName(pool));
        --slot;
        --usedTotalOf(pool);
        freeRows_[static_cast<size_t>(pool) * words_ + (row >> 6)] |=
            uint64_t{1} << (row & 63);
    }
}

Reservation
Mrt::reserveAt(std::span<const PoolId> pools, int row)
{
    const int wrapped = ((row % ii_) + ii_) % ii_;
    occupy(pools, wrapped);
    return {wrapped, {pools.begin(), pools.end()}};
}

std::optional<Reservation>
Mrt::reserve(std::span<const PoolId> pools)
{
    const int row = findRow(pools);
    if (row < 0)
        return std::nullopt;
    return reserveAt(pools, row);
}

void
Mrt::release(const Reservation &reservation)
{
    cams_assert(reservation.valid(), "releasing an invalid reservation");
    free(reservation.pools, reservation.row);
}

int
Mrt::freeInRow(PoolId pool, int row) const
{
    cams_assert(row >= 0 && row < ii_, "bad row ", row);
    return model_->capacity(pool) -
           use_[static_cast<size_t>(pool) * ii_ + row];
}

int
Mrt::freeTotal(PoolId pool) const
{
    return model_->capacity(pool) * ii_ - usedTotalOf(pool);
}

std::string
Mrt::dump() const
{
    std::string out = "MRT II=" + std::to_string(ii_) + "\n";
    for (PoolId pool = 0; pool < model_->numPools(); ++pool) {
        std::string line = "  " + model_->poolName(pool);
        while (line.size() < 14)
            line.push_back(' ');
        for (int row = 0; row < ii_; ++row) {
            line += " " +
                    std::to_string(
                        use_[static_cast<size_t>(pool) * ii_ + row]) +
                    "/" + std::to_string(model_->capacity(pool));
        }
        out += line + "\n";
    }
    return out;
}

int
Mrt::usedTotal(PoolId pool) const
{
    cams_assert(pool >= 0 && pool < model_->numPools(), "bad pool ",
                pool);
    return usedTotalOf(pool);
}

} // namespace cams
