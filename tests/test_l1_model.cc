/**
 * @file
 * Golden pin of the L1 model (simulateL1).
 *
 * Every distinct (mode, kd.buffers) stream of every registry workload
 * at Tiny and Small is simulated at the default shared-memory
 * carveout, plus a few workloads at other carveouts (the
 * non-power-of-two set counts Figure 13 sweeps). Each row carries the
 * load and store miss rates as hexfloats and the load and store
 * counts, so any change to the cache, the stream generator or the
 * stream mix shows up as a byte diff against tests/golden/.
 *
 * Updating the golden after an *intentional* model change:
 *
 *     ./build/tests/test_l1_model --update-golden
 *     git diff tests/golden/l1_model.csv
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gpu/cache_model.hh"
#include "runtime/system_config.hh"
#include "workloads/registry.hh"

namespace uvmasync
{
namespace
{

bool gUpdateGolden = false;

std::string
goldenPath(const std::string &name)
{
    return std::string(UVMASYNC_GOLDEN_DIR) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
compareOrUpdate(const std::string &name, const std::string &actual)
{
    std::string path = goldenPath(name);
    if (gUpdateGolden) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << actual;
        SUCCEED() << "updated " << path;
        return;
    }
    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "golden " << path << " is missing or empty; regenerate "
        << "with: test_l1_model --update-golden";
    EXPECT_EQ(expected, actual)
        << "L1 miss rates changed. If intentional, regenerate with "
        << "--update-golden and review the diff.";
}

/**
 * One row per distinct (mode, kd.buffers) stream of @p workload at
 * @p size under @p carveout, in registry kernel order.
 */
void
appendRows(std::string &csv, const GpuConfig &gpu,
           const std::string &workload, SizeClass size, Bytes carveout)
{
    Job job = WorkloadRegistry::instance().get(workload).makeJob(size);
    const std::vector<Bytes> bytes = job.bufferSizes();
    for (TransferMode mode : allTransferModes) {
        std::set<std::vector<KernelBufferUse>> seen;
        for (const KernelDescriptor &kd : job.kernels) {
            if (!seen.insert(kd.buffers).second)
                continue;
            CacheModelResult r =
                simulateL1(gpu, kd, bytes, mode, carveout, 1);
            char buf[512];
            std::snprintf(buf, sizeof(buf), "%s,%s,%llu,%s,%s,%a,%a,"
                          "%llu,%llu\n",
                          workload.c_str(), sizeClassName(size),
                          static_cast<unsigned long long>(carveout),
                          transferModeName(mode), kd.name.c_str(),
                          r.loadMissRate, r.storeMissRate,
                          static_cast<unsigned long long>(r.loads),
                          static_cast<unsigned long long>(r.stores));
            csv += buf;
        }
    }
}

TEST(L1ModelGolden, RegistryStreamsAreByteIdentical)
{
    registerAllWorkloads();
    const GpuConfig gpu = SystemConfig::a100Epyc().gpu;
    std::string csv = "workload,size,carveout_bytes,mode,kernel,"
                      "load_miss_rate,store_miss_rate,loads,stores\n";
    for (const std::string &name : WorkloadRegistry::instance().names()) {
        for (SizeClass size : {SizeClass::Tiny, SizeClass::Small})
            appendRows(csv, gpu, name, size, gpu.defaultSharedCarveout);
    }
    // Figure 13's carveout sweep: other L1 sizes, other set counts.
    for (const char *name : {"vector_seq", "gemm", "lud", "resnet18"}) {
        for (Bytes carveout : {kib(2), kib(64), kib(100)})
            appendRows(csv, gpu, name, SizeClass::Small, carveout);
    }
    compareOrUpdate("l1_model.csv", csv);
}

} // namespace
} // namespace uvmasync

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            uvmasync::gUpdateGolden = true;
    }
    return RUN_ALL_TESTS();
}
