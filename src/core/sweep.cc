#include "core/sweep.hh"

#include "common/logging.hh"

namespace uvmasync
{

namespace
{

SweepGrid
makeGrid(const std::string &workload,
         const std::vector<std::uint64_t> &values,
         const std::vector<ExperimentOptions> &optsPerValue)
{
    SweepGrid grid;
    grid.values = values;
    grid.points.reserve(values.size() * allTransferModes.size());
    for (const ExperimentOptions &opts : optsPerValue) {
        for (TransferMode mode : allTransferModes)
            grid.points.push_back(
                ExperimentPoint{workload, mode, opts});
    }
    return grid;
}

} // namespace

SweepGrid
blockSweepGrid(const std::string &workload,
               const std::vector<std::uint64_t> &blockCounts,
               const ExperimentOptions &base)
{
    UVMASYNC_ASSERT(!blockCounts.empty(),
                    "blockSweep needs at least one block count");
    std::vector<ExperimentOptions> optsPerValue;
    optsPerValue.reserve(blockCounts.size());
    for (std::uint64_t blocks : blockCounts) {
        ExperimentOptions opts = base;
        opts.geometry.gridBlocks = blocks;
        if (!opts.geometry.threadsPerBlock)
            opts.geometry.threadsPerBlock = 256;
        optsPerValue.push_back(opts);
    }
    return makeGrid(workload, blockCounts, optsPerValue);
}

SweepGrid
threadSweepGrid(const std::string &workload,
                const std::vector<std::uint32_t> &threadCounts,
                std::uint64_t fixedBlocks,
                const ExperimentOptions &base)
{
    UVMASYNC_ASSERT(!threadCounts.empty(),
                    "threadSweep needs at least one thread count");
    std::vector<std::uint64_t> values;
    std::vector<ExperimentOptions> optsPerValue;
    values.reserve(threadCounts.size());
    optsPerValue.reserve(threadCounts.size());
    for (std::uint32_t threads : threadCounts) {
        ExperimentOptions opts = base;
        opts.geometry.gridBlocks = fixedBlocks;
        opts.geometry.threadsPerBlock = threads;
        values.push_back(threads);
        optsPerValue.push_back(opts);
    }
    return makeGrid(workload, values, optsPerValue);
}

SweepGrid
sharedMemSweepGrid(const std::string &workload,
                   const std::vector<Bytes> &carveouts,
                   const ExperimentOptions &base)
{
    UVMASYNC_ASSERT(!carveouts.empty(),
                    "sharedMemSweep needs at least one carveout");
    std::vector<std::uint64_t> values;
    std::vector<ExperimentOptions> optsPerValue;
    values.reserve(carveouts.size());
    optsPerValue.reserve(carveouts.size());
    for (Bytes carveout : carveouts) {
        ExperimentOptions opts = base;
        opts.sharedCarveout = carveout;
        values.push_back(carveout);
        optsPerValue.push_back(opts);
    }
    return makeGrid(workload, values, optsPerValue);
}

std::vector<SweepPoint>
assembleSweepPoints(const SweepGrid &grid, const BatchResult &batch)
{
    UVMASYNC_ASSERT(batch.points.size() == grid.points.size(),
                    "batch does not match the sweep grid");
    std::vector<SweepPoint> out;
    out.reserve(grid.values.size());
    std::size_t cursor = 0;
    for (std::uint64_t value : grid.values) {
        SweepPoint point;
        point.value = value;
        for (std::size_t m = 0; m < allTransferModes.size(); ++m) {
            const PointOutcome &outcome = batch.points[cursor + m];
            point.modes.push_back(
                outcome.ok
                    ? outcome.result
                    : quarantinedPlaceholder(grid.points[cursor + m]));
        }
        cursor += allTransferModes.size();
        out.push_back(std::move(point));
    }
    return out;
}

} // namespace uvmasync
