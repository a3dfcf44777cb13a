#include "point_sets.hh"

#include <algorithm>

#include "workloads/registry.hh"

namespace perfbench
{

using namespace uvmasync;

namespace
{

BatchSpec
spec(const std::string &workload, SizeClass size, std::uint64_t seed,
     std::vector<TransferMode> modes)
{
    BatchSpec s;
    s.workload = workload;
    s.size = size;
    s.runs = 30;
    s.seed = seed;
    s.modes = std::move(modes);
    return s;
}

} // namespace

std::uint64_t
poolSeed(std::size_t slot)
{
    return 42 + 1000 * static_cast<std::uint64_t>(slot % seedPoolSize);
}

std::size_t
seedSlot(std::uint64_t benchSeed)
{
    return static_cast<std::size_t>(benchSeed % seedPoolSize);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "oversub_mega", "darknet_tiny", "campaign_mixed"};
    return names;
}

bool
knownWorkload(const std::string &name)
{
    const std::vector<std::string> &names = workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

bool
isCampaign(const std::string &name)
{
    return name == "campaign_mixed";
}

std::vector<BatchSpec>
workloadSpecs(const std::string &name, std::uint64_t seed)
{
    using M = TransferMode;
    if (name == "oversub_mega") {
        return {
            spec("3DCONV", SizeClass::Mega, seed,
                 {M::Uvm, M::UvmPrefetch, M::UvmPrefetchAsync}),
            spec("gemm", SizeClass::Mega, seed, {M::Uvm}),
            spec("lavaMD", SizeClass::Super, seed, {M::Uvm}),
        };
    }
    if (name == "darknet_tiny") {
        // Largest net first, so four workers finish close together.
        return {
            spec("resnet50", SizeClass::Tiny, seed, {}),
            spec("resnet18", SizeClass::Tiny, seed, {}),
            spec("yolov3-tiny", SizeClass::Tiny, seed, {}),
        };
    }
    // campaign_mixed: every non-darknet workload at tiny and small,
    // one batch of all five modes each.
    registerAllWorkloads();
    std::vector<BatchSpec> specs;
    for (const std::string &w : WorkloadRegistry::instance().names()) {
        const std::string &source =
            WorkloadRegistry::instance().get(w).info().source;
        if (source == "Darknet")
            continue;
        for (SizeClass size : {SizeClass::Tiny, SizeClass::Small})
            specs.push_back(spec(w, size, seed, {}));
    }
    return specs;
}

std::vector<ExperimentPoint>
expandSpecs(const std::vector<BatchSpec> &specs)
{
    std::vector<ExperimentPoint> points;
    for (const BatchSpec &s : specs) {
        for (ExperimentPoint &p : batchSpecPoints(s))
            points.push_back(std::move(p));
    }
    return points;
}

bool
campaignWarm(std::size_t batchIndex)
{
    return batchIndex % 2 == 0;
}

std::size_t
warmupPoint(const std::string &name)
{
    // 3DCONV@mega uvm (0.3 s) and yolov3-tiny@tiny standard.
    return name == "darknet_tiny" ? 10 : 0;
}

} // namespace perfbench
