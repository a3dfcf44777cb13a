/**
 * @file
 * Known-answer tests for the stable hasher and every value built on
 * it. These numbers are persisted (journal and store keys, campaign
 * hashes, model fingerprints, record checksums) or seed simulated
 * noise and injection streams, so a change to any of them is a
 * format or model change and must be deliberate.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/stable_hash.hh"
#include "core/parallel_runner.hh"
#include "inject/injector.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "runtime/system_config.hh"
#include "store/fingerprint.hh"
#include "workloads/job_loader.hh"
#include "grid.hh"

namespace uvmasync
{
namespace
{

TEST(StableHash, PrimitivesMatchTheReferenceVectors)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(StableHasher().bytes("{}", 2).hash(),
              0x968aff560c30f3e2ull);
}

TEST(StableHash, FieldsAreLittleEndianAndStringsTerminated)
{
    const unsigned char le[8] = {0x08, 0x07, 0x06, 0x05,
                                 0x04, 0x03, 0x02, 0x01};
    EXPECT_EQ(StableHasher().u64(0x0102030405060708ull).state(),
              fnv1a(le, sizeof(le)));
    EXPECT_EQ(StableHasher().f64(1.0).state(),
              StableHasher().u64(0x3ff0000000000000ull).state());
    // The NUL terminator keeps ("ab","c") and ("a","bc") apart.
    EXPECT_NE(StableHasher().str("ab").str("c").hash(),
              StableHasher().str("a").str("bc").hash());
}

TEST(StableHash, PersistedValuesAreUnchanged)
{
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 2;
    opts.baseSeed = 42;
    opts.injectSeed = 5;
    opts.inject.pcie.degradeFactor = 0.5;
    opts.inject.fault.delayRate = 0.25;
    EXPECT_EQ(pointConfigHash({"saxpy", TransferMode::Uvm, opts}),
              0xb4b4fdfd7b746f89ull);

    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 2;
    base.baseSeed = 42;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    EXPECT_EQ(campaignHash(expandGrid({"saxpy"}, modes,
                                                      1, base)),
              0x2d6cde09c767e17bull);

    EXPECT_EQ(modelSemanticsFingerprint(SystemConfig::a100Epyc()),
              0xf08e2f9e89ce138dull);
}

TEST(StableHash, SeedsAndSaltsAreUnchanged)
{
    EXPECT_EQ(pointSeed(42, "saxpy", TransferMode::Uvm,
                                        3),
              0x02dbb163f2ae8ad0ull);
    EXPECT_EQ(injectSalt(7, 11), 0xfefb197ce2730473ull);
    EXPECT_EQ(jobFileBaseSeed("job.name = kat\n", false),
              0x7329f39b9fdd943cull);
    EXPECT_EQ(jobFileBaseSeed("job.name = kat\n", true),
              0x8ddd2e70a582e3a7ull);
}

TEST(StableHash, RecordChecksumIsTheStableHashOfThePayload)
{
    EXPECT_EQ(frameRecord("{\"point\":0}"),
              "{\"crc\":\"432008fa33085f94\",\"rec\":{\"point\":0}}\n");
}

} // namespace
} // namespace uvmasync
