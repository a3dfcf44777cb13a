/**
 * @file
 * Tests for the static model linter: every UAL diagnostic code has a
 * triggering fixture and a clean counterpart, plus a sweep asserting
 * the shipped workload registry lints without errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "analysis/cost_model.hh"
#include "analysis/diagnostic.hh"
#include "analysis/lint.hh"
#include "analysis/passes.hh"
#include "gpu/instruction_mix.hh"
#include "runtime/config_loader.hh"
#include "workloads/job_loader.hh"
#include "workloads/registry.hh"

namespace uvmasync
{
namespace
{

/** Minimal job that lints clean under the default A100 testbed. */
Job
makeCleanJob()
{
    Job job;
    job.name = "fixture";
    job.buffers = {JobBuffer{"in", mib(64), true, false},
                   JobBuffer{"out", mib(64), false, true}};
    KernelDescriptor kd = makeStreamKernel(
        "k0", /*gridBlocks=*/4096, /*threadsPerBlock=*/256,
        /*totalLoadBytes=*/mib(64), /*sharedBytesPerBlock=*/kib(16),
        /*elementBytes=*/4, /*flopsPerElement=*/4.0,
        /*intsPerElement=*/4.0, /*ctrlPerElement=*/1.0,
        /*storeRatio=*/0.5);
    kd.buffers = {
        KernelBufferUse{0, AccessPattern::Sequential, true, false,
                        1.0, true},
        KernelBufferUse{1, AccessPattern::Sequential, false, true,
                        1.0, true},
    };
    job.kernels = {kd};
    return job;
}

DiagnosticEngine
lint(const Job &job)
{
    return lintJob(SystemConfig::a100Epyc(), job, "fixture");
}

// --- diagnostic plumbing ---------------------------------------------

TEST(Diagnostics, SpecsAreCompleteAndStable)
{
    EXPECT_EQ(allDiagSpecs().size(), diagIdCount);
    for (std::size_t i = 0; i < diagIdCount; ++i) {
        const DiagSpec &spec = allDiagSpecs()[i];
        EXPECT_EQ(static_cast<std::size_t>(spec.id), i);
        EXPECT_STRNE(spec.title, "");
        EXPECT_STRNE(spec.hint, "");
        DiagId parsed;
        ASSERT_TRUE(parseDiagCode(spec.code, parsed)) << spec.code;
        EXPECT_EQ(parsed, spec.id);
    }
    DiagId ignored;
    EXPECT_FALSE(parseDiagCode("UAL999", ignored));
    EXPECT_FALSE(parseDiagCode("bogus", ignored));
}

TEST(Diagnostics, FormatCarriesCodeSubjectAndHint)
{
    DiagnosticEngine diags;
    Diagnostic &d = diags.report(DiagId::SharedOverflow, "gemm/k0",
                                 "stage too big");
    d.loc = SourceLoc{"job.ini", 12};
    std::string text = d.format();
    EXPECT_NE(text.find("UAL006"), std::string::npos);
    EXPECT_NE(text.find("gemm/k0"), std::string::npos);
    EXPECT_NE(text.find("stage too big"), std::string::npos);
    EXPECT_NE(text.find("job.ini:12"), std::string::npos);
    EXPECT_NE(text.find("fix:"), std::string::npos);

    EXPECT_EQ(diags.count(Severity::Error), 1u);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_NE(diags.summary().find("1 error"), std::string::npos);
}

TEST(Diagnostics, CleanFixtureHasNoFindings)
{
    DiagnosticEngine diags = lint(makeCleanJob());
    EXPECT_EQ(diags.count(Severity::Error), 0u) << diags.formatAll();
    EXPECT_EQ(diags.count(Severity::Warn), 0u) << diags.formatAll();
}

// --- UAL001 dangling buffer reference --------------------------------

TEST(Lint, Ual001DanglingBufferRef)
{
    Job job = makeCleanJob();
    job.kernels[0].buffers.push_back(KernelBufferUse{
        5, AccessPattern::Sequential, true, false, 1.0, true});
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::DanglingBufferRef), 1u)
        << diags.formatAll();
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_EQ(lint(makeCleanJob()).count(DiagId::DanglingBufferRef),
              0u);
}

// --- UAL002 dependency cycle / order violation -----------------------

TEST(Lint, Ual002SelfAndForwardEdgesAreCycles)
{
    Job job = makeCleanJob();
    job.kernels[0].dependsOn = {0}; // self edge
    EXPECT_EQ(lint(job).count(DiagId::KernelDepCycle), 1u);

    Job fwd = makeCleanJob();
    fwd.kernels.push_back(fwd.kernels[0]);
    fwd.kernels[1].name = "k1";
    fwd.kernels[0].dependsOn = {1}; // depends on a later kernel
    EXPECT_EQ(lint(fwd).count(DiagId::KernelDepCycle), 1u);

    Job ok = makeCleanJob();
    ok.kernels.push_back(ok.kernels[0]);
    ok.kernels[1].name = "k1";
    ok.kernels[1].dependsOn = {0}; // consistent with list order
    EXPECT_EQ(lint(ok).count(DiagId::KernelDepCycle), 0u);
}

// --- UAL003 dangling kernel dependency -------------------------------

TEST(Lint, Ual003DanglingKernelDep)
{
    Job job = makeCleanJob();
    job.kernels[0].dependsOn = {7};
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::DanglingKernelDep), 1u);
    EXPECT_TRUE(diags.hasErrors());
}

// --- UAL004 unused / empty buffer ------------------------------------

TEST(Lint, Ual004UnusedBuffer)
{
    Job job = makeCleanJob();
    job.buffers.push_back(JobBuffer{"scratch", mib(8), true, false});
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::UnusedBuffer), 1u)
        << diags.formatAll();
    // Unused is a warning, not an error: the model still runs.
    EXPECT_FALSE(diags.hasErrors());
}

TEST(Lint, Ual004ZeroByteBuffer)
{
    Job job = makeCleanJob();
    job.buffers[1].bytes = 0;
    EXPECT_EQ(lint(job).count(DiagId::UnusedBuffer), 1u);
}

// --- UAL005 read of uninitialised data -------------------------------

TEST(Lint, Ual005ReadUninitialized)
{
    Job job = makeCleanJob();
    job.buffers[0].hostInit = false; // read but never produced
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::ReadUninitialized), 1u)
        << diags.formatAll();
}

TEST(Lint, Ual005IterativeJobsReadLastIterationsOutput)
{
    // srad-style: kernel 0 reads what kernel 1 (or itself) wrote in
    // the previous sequence iteration.
    Job job = makeCleanJob();
    job.buffers[0].hostInit = false;
    job.kernels[0].buffers[0].written = true;
    job.sequenceRepeats = 8;
    EXPECT_EQ(lint(job).count(DiagId::ReadUninitialized), 0u);
}

// --- UAL006 shared-memory overflow -----------------------------------

TEST(Lint, Ual006SharedOverCarveoutLimit)
{
    Job job = makeCleanJob();
    job.kernels[0].sharedBytesPerBlock = kib(200); // > 164 KiB max
    DiagnosticEngine diags = lint(job);
    EXPECT_GE(diags.count(DiagId::SharedOverflow), 1u);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(Lint, Ual006DoubleBufferNoteIsNotAnError)
{
    Job job = makeCleanJob();
    job.kernels[0].sharedBytesPerBlock = kib(24); // 2x24 > 32 KiB
    DiagnosticEngine diags = lint(job);
    EXPECT_GE(diags.count(DiagId::SharedOverflow), 1u);
    EXPECT_FALSE(diags.hasErrors()) << diags.formatAll();
}

// --- UAL007 launch geometry ------------------------------------------

TEST(Lint, Ual007BadLaunchGeometry)
{
    Job job = makeCleanJob();
    job.kernels[0].threadsPerBlock = 0;
    EXPECT_EQ(lint(job).count(DiagId::BadLaunchGeometry), 1u);

    Job big = makeCleanJob();
    big.kernels[0].threadsPerBlock = 4096; // > 2048 per SM
    DiagnosticEngine diags = lint(big);
    EXPECT_EQ(diags.count(DiagId::BadLaunchGeometry), 1u);
    EXPECT_TRUE(diags.hasErrors());

    Job odd = makeCleanJob();
    odd.kernels[0].threadsPerBlock = 100; // not a warp multiple
    DiagnosticEngine oddDiags = lint(odd);
    EXPECT_EQ(oddDiags.count(DiagId::BadLaunchGeometry), 1u);
    EXPECT_FALSE(oddDiags.hasErrors());
}

// --- UAL008 footprint vs capacities ----------------------------------

TEST(Lint, Ual008FootprintOverHostCapacityIsError)
{
    Job job = makeCleanJob();
    job.buffers[0].bytes = gib(2000); // > 16 x 64 GiB host DRAM
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::FootprintOverCapacity), 1u);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(Lint, Ual008DeviceOversubscriptionIsOnlyAWarning)
{
    // UVM oversubscription is a feature the paper studies — warn,
    // do not refuse.
    Job job = makeCleanJob();
    job.buffers[0].bytes = gib(48); // > 40 GiB HBM, < host DRAM
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::FootprintOverCapacity), 1u);
    EXPECT_FALSE(diags.hasErrors()) << diags.formatAll();
}

// --- UAL009 page/chunk geometry --------------------------------------

TEST(Lint, Ual009ChunkNotMultipleOfPage)
{
    SystemConfig sys = SystemConfig::a100Epyc();
    sys.uvm.chunkBytes = kib(6); // not a multiple of the 4 KiB page
    DiagnosticEngine diags =
        lintJob(sys, makeCleanJob(), "fixture");
    EXPECT_GE(diags.count(DiagId::BadPageGeometry), 1u);
    EXPECT_TRUE(diags.hasErrors());

    EXPECT_EQ(lint(makeCleanJob()).count(DiagId::BadPageGeometry),
              0u);
}

TEST(Lint, Ual009NonPow2PageIsError)
{
    SystemConfig sys = SystemConfig::a100Epyc();
    sys.gpu.gpuPageBytes = 3000;
    DiagnosticEngine diags = lintSystemConfig(sys);
    EXPECT_GE(diags.count(DiagId::BadPageGeometry), 1u);
    EXPECT_TRUE(diags.hasErrors());
}

// --- UAL010 prefetcher/pattern contradiction -------------------------

TEST(Lint, Ual010PrefetcherOverIrregularTraffic)
{
    SystemConfig sys = SystemConfig::a100Epyc();
    sys.uvm.demandPrefetcher = PrefetcherKind::Stream;
    Job job = makeCleanJob();
    job.kernels[0].buffers[0].pattern = AccessPattern::Random;
    DiagnosticEngine diags = lintJob(sys, job, "fixture");
    EXPECT_EQ(diags.count(DiagId::PrefetchMismatch), 1u)
        << diags.formatAll();

    // Same system over a sequential walk: the prefetcher fits.
    EXPECT_EQ(lintJob(sys, makeCleanJob(), "fixture")
                  .count(DiagId::PrefetchMismatch),
              0u);
}

TEST(Lint, Ual010RedundantPrefetchChurnNote)
{
    Job job = makeCleanJob();
    job.prefetchEachLaunch = true;
    job.sequenceRepeats = 16;
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::PrefetchMismatch), 1u);
    EXPECT_FALSE(diags.hasErrors());
}

// --- UAL011 instruction mix ------------------------------------------

TEST(Lint, Ual011BadInstructionMix)
{
    Job job = makeCleanJob();
    job.kernels[0].fpPerTile = -3.0;
    DiagnosticEngine diags = lint(job);
    EXPECT_GE(diags.count(DiagId::BadInstructionMix), 1u);
    EXPECT_TRUE(diags.hasErrors());

    Job zero = makeCleanJob();
    zero.kernels[0].memPerTile = 0.0;
    zero.kernels[0].fpPerTile = 0.0;
    zero.kernels[0].intPerTile = 0.0;
    zero.kernels[0].ctrlPerTile = 0.0;
    EXPECT_GE(lint(zero).count(DiagId::BadInstructionMix), 1u);

    Job sat = makeCleanJob();
    sat.kernels[0].warpsToSaturate = 0.0;
    EXPECT_GE(lint(sat).count(DiagId::BadInstructionMix), 1u);
}

TEST(Lint, MixFractionValidation)
{
    EXPECT_NE((InstrMix{-1.0, 0.0, 0.0, 0.0}).validate(), "");
    EXPECT_EQ((InstrMix{1.0, 2.0, 3.0, 4.0}).validate(), "");
}

// --- UAL012 touched fraction -----------------------------------------

TEST(Lint, Ual012BadTouchedFraction)
{
    Job job = makeCleanJob();
    job.kernels[0].buffers[0].touchedFraction = 1.5;
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::BadTouchedFraction), 1u);
    EXPECT_TRUE(diags.hasErrors());

    Job neg = makeCleanJob();
    neg.kernels[0].buffers[0].touchedFraction = -0.25;
    EXPECT_EQ(lint(neg).count(DiagId::BadTouchedFraction), 1u);
}

// --- UAL013 unknown config keys --------------------------------------

TEST(Lint, Ual013UnknownSystemKeyWithSuggestion)
{
    KvConfig kv = KvConfig::fromString("[gpu]\nsm_cout = 80\n",
                                       "testbed.ini");
    DiagnosticEngine diags =
        lintSystemConfig(SystemConfig::a100Epyc(), &kv);
    ASSERT_EQ(diags.count(DiagId::UnknownConfigKey), 1u)
        << diags.formatAll();
    const Diagnostic *found = nullptr;
    for (const Diagnostic &d : diags.all()) {
        if (d.id == DiagId::UnknownConfigKey)
            found = &d;
    }
    ASSERT_NE(found, nullptr);
    EXPECT_NE(found->message.find("gpu.sm_count"),
              std::string::npos)
        << "should suggest the closest key: " << found->message;
    EXPECT_EQ(found->loc.file, "testbed.ini");
    EXPECT_EQ(found->loc.line, 2);
}

TEST(Lint, Ual013UnknownJobKey)
{
    KvConfig kv = KvConfig::fromString(
        "[buffer.0]\nname = b\nmib = 1\nhost_inti = true\n"
        "[kernel.0]\nname = k\nbuffers = 0:sequential:rw\n");
    DiagnosticEngine diags;
    Job job = jobFromConfig(kv, &diags);
    EXPECT_EQ(job.buffers.size(), 1u);
    EXPECT_EQ(diags.count(DiagId::UnknownConfigKey), 1u)
        << diags.formatAll();
}

// --- UAL014 shadowed keys --------------------------------------------

TEST(Lint, Ual014ShadowedKey)
{
    KvConfig kv = KvConfig::fromString(
        "[gpu]\nsm_count = 80\nsm_count = 108\n", "testbed.ini");
    DiagnosticEngine diags =
        lintSystemConfig(SystemConfig::a100Epyc(), &kv);
    EXPECT_EQ(diags.count(DiagId::ShadowedConfigKey), 1u)
        << diags.formatAll();
    // Shadowing is legal (later wins) — warn, not error.
    EXPECT_FALSE(diags.hasErrors());
    // The value the simulator uses is still the later one.
    EXPECT_EQ(kv.getInt("gpu.sm_count", 0), 108);
}

// --- UAL015 bad system parameter -------------------------------------

TEST(Lint, Ual015BadSystemParam)
{
    SystemConfig sys = SystemConfig::a100Epyc();
    sys.gpu.smCount = 0;
    DiagnosticEngine diags = lintSystemConfig(sys);
    EXPECT_GE(diags.count(DiagId::BadSystemParam), 1u);
    EXPECT_TRUE(diags.hasErrors());

    EXPECT_EQ(lintSystemConfig(SystemConfig::a100Epyc())
                  .count(DiagId::BadSystemParam),
              0u);
}

// --- lint options and enforcement ------------------------------------

TEST(Lint, WerrorPromotesWarnings)
{
    Job job = makeCleanJob();
    job.buffers.push_back(JobBuffer{"scratch", mib(8), true, false});
    LintOptions opts;
    opts.warningsAsErrors = true;
    DiagnosticEngine diags = lintJob(SystemConfig::a100Epyc(), job,
                                     "fixture", nullptr, nullptr,
                                     opts);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(Lint, PassFilterRestrictsChecks)
{
    Job job = makeCleanJob();
    job.kernels[0].buffers[0].touchedFraction = 9.0; // patterns pass
    job.kernels[0].dependsOn = {9};                  // kernel-graph
    LintOptions opts;
    opts.passes = {"patterns"};
    DiagnosticEngine diags = lintJob(SystemConfig::a100Epyc(), job,
                                     "fixture", nullptr, nullptr,
                                     opts);
    EXPECT_EQ(diags.count(DiagId::BadTouchedFraction), 1u);
    EXPECT_EQ(diags.count(DiagId::DanglingKernelDep), 0u);
}

TEST(LintDeathTest, EnforceModeRefusesBrokenModels)
{
    Job job = makeCleanJob();
    job.kernels[0].buffers[0].bufferId = 9;
    EXPECT_DEATH(enforceLint(SystemConfig::a100Epyc(), job,
                             "fixture", LintMode::Enforce),
                 "model lint failed");
}

TEST(Lint, WarnAndOffModesDoNotRefuse)
{
    Job job = makeCleanJob();
    job.kernels[0].buffers[0].bufferId = 9;
    DiagnosticEngine warned = enforceLint(
        SystemConfig::a100Epyc(), job, "fixture", LintMode::Warn);
    EXPECT_TRUE(warned.hasErrors());
    DiagnosticEngine off = enforceLint(
        SystemConfig::a100Epyc(), job, "fixture", LintMode::Off);
    EXPECT_TRUE(off.empty());
}

// --- UAL018 estimated event volume over the watchdog ceiling ---------

TEST(Lint, Ual018EventVolumeOverCeiling)
{
    // 30 GiB / 256 KiB chunks = 122880 chunks; 10000 repeats puts
    // the worst-case fault volume past the 1e9 default ceiling.
    Job job = makeCleanJob();
    job.buffers[0].bytes = gib(30);
    job.sequenceRepeats = 10000;
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::EventVolumeOverCeiling), 1u)
        << diags.formatAll();

    EXPECT_EQ(lint(makeCleanJob()).count(
                  DiagId::EventVolumeOverCeiling),
              0u);
}

TEST(Lint, StandardPipelineListsItsPasses)
{
    PassManager pipeline = PassManager::standardPipeline();
    std::vector<std::string> names = pipeline.names();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "system-config");
    EXPECT_EQ(names.back(), "cost-advisor");
    for (const auto &pass : pipeline.passes()) {
        EXPECT_STRNE(pass->name(), "");
        EXPECT_STRNE(pass->description(), "");
    }
}

// --- UAL019 predicted oversubscription thrash ------------------------

TEST(Lint, Ual019PredictedThrash)
{
    Job job = makeCleanJob();
    job.buffers[0].bytes = gib(48); // touched set > 40 GiB HBM
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::PredictedThrash), 1u)
        << diags.formatAll();

    EXPECT_EQ(lint(makeCleanJob()).count(DiagId::PredictedThrash),
              0u);
}

// --- UAL020 dominated transfer-mode selection ------------------------

TEST(Lint, Ual020DominatedModeSelection)
{
    // Self-consistent with the cost model: the analyzer's own worst
    // mode must be flagged, its best mode must not. The fixture's
    // demand-fault path is far slower than one bulk copy, so the
    // best/worst spread comfortably exceeds the 1.25x threshold.
    Job job = makeCleanJob();
    job.buffers[0].bytes = gib(4);
    job.buffers[1].bytes = gib(4);
    CostReport rep = analyzeCost(SystemConfig::a100Epyc(), job);
    TransferMode worst = TransferMode::Standard;
    for (TransferMode m : allTransferModes) {
        if (rep.mode(m).overallPs() >
            rep.mode(worst).overallPs())
            worst = m;
    }
    ASSERT_GT(rep.mode(worst).overallPs(),
              rep.mode(rep.bestMode).overallPs() * 1.25)
        << "fixture no longer spreads the modes";

    DiagnosticEngine flagged = lintJob(
        SystemConfig::a100Epyc(), job, "fixture", nullptr, nullptr,
        {}, &worst);
    EXPECT_EQ(flagged.count(DiagId::DominatedModeSelection), 1u)
        << flagged.formatAll();

    DiagnosticEngine best = lintJob(
        SystemConfig::a100Epyc(), job, "fixture", nullptr, nullptr,
        {}, &rep.bestMode);
    EXPECT_EQ(best.count(DiagId::DominatedModeSelection), 0u)
        << best.formatAll();

    // Mode-agnostic lints (no mode pointer) never see UAL020.
    EXPECT_EQ(lint(job).count(DiagId::DominatedModeSelection), 0u);
}

// --- UAL021 dead buffer write ----------------------------------------

TEST(Lint, Ual021DeadBufferWrite)
{
    Job job = makeCleanJob();
    job.buffers.push_back(JobBuffer{"tmp", mib(64), false, false});
    job.kernels[0].buffers.push_back(KernelBufferUse{
        2, AccessPattern::Sequential, false, true, 1.0, true});
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::DeadBufferWrite), 1u)
        << diags.formatAll();

    // Host-consuming the buffer makes the writes observable.
    job.buffers[2].hostConsumed = true;
    EXPECT_EQ(lint(job).count(DiagId::DeadBufferWrite), 0u);
}

// --- UAL022 chunk-geometry bandwidth waste ---------------------------

TEST(Lint, Ual022ChunkGeometryWaste)
{
    // 64 MiB chunks over a 1% touch: one demanded chunk carries
    // ~10.7 MiB of useful data and ~53 MiB of rounding waste.
    SystemConfig sys = SystemConfig::a100Epyc();
    sys.uvm.chunkBytes = mib(64);
    Job job = makeCleanJob();
    job.buffers[0].bytes = gib(1);
    job.kernels[0].buffers[0].touchedFraction = 0.01;
    DiagnosticEngine diags = lintJob(sys, job, "fixture");
    EXPECT_EQ(diags.count(DiagId::ChunkGeometryWaste), 1u)
        << diags.formatAll();

    // The default 256 KiB chunks round the same touch up by at most
    // one chunk — far under the waste floor.
    EXPECT_EQ(lint(job).count(DiagId::ChunkGeometryWaste), 0u);
    EXPECT_EQ(lint(makeCleanJob()).count(
                  DiagId::ChunkGeometryWaste),
              0u);
}

// --- UAL023 prefetch policy vs computed reuse distance ---------------

TEST(Lint, Ual023RedundantPerLaunchPrefetch)
{
    Job job = makeCleanJob();
    job.prefetchEachLaunch = true;
    job.sequenceRepeats = 16;
    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::PrefetchReuseMismatch), 1u)
        << diags.formatAll();

    // A single launch has nothing to re-prefetch.
    Job once = makeCleanJob();
    once.prefetchEachLaunch = true;
    EXPECT_EQ(lint(once).count(DiagId::PrefetchReuseMismatch), 0u);
}

TEST(Lint, Ual023PrefetcherBeyondReuseDistance)
{
    // k0 reuses "in" every pass, but k1 streams a 48 GiB buffer in
    // between: the reuse distance exceeds device memory, so a demand
    // prefetcher only migrates chunks that die before reuse.
    SystemConfig sys = SystemConfig::a100Epyc();
    sys.uvm.demandPrefetcher = PrefetcherKind::Stream;
    Job job = makeCleanJob();
    job.buffers.push_back(JobBuffer{"huge", gib(48), true, false});
    KernelDescriptor kd = job.kernels[0];
    kd.name = "k1";
    kd.buffers = {KernelBufferUse{
        2, AccessPattern::Sequential, true, false, 1.0, true}};
    job.kernels.push_back(kd);
    job.sequenceRepeats = 4;
    DiagnosticEngine diags = lintJob(sys, job, "fixture");
    EXPECT_GE(diags.count(DiagId::PrefetchReuseMismatch), 1u)
        << diags.formatAll();
}

// --- UAL024 predicted event volume near the watchdog ceiling ---------

TEST(Lint, Ual024EventVolumeInsideRiskBand)
{
    // A streaming 48 GiB walk re-faulted every one of 2000 passes
    // predicts event volume inside (ceiling/2, ceiling]: high enough
    // to be one config tweak away from a PointTimeout, low enough
    // that UAL018's over-the-ceiling error stays silent.
    Job job = makeCleanJob();
    job.buffers[0].bytes = gib(48);
    job.sequenceRepeats = 2000;
    CostReport rep = analyzeCost(SystemConfig::a100Epyc(), job);
    std::uint64_t maxEvents = 0;
    for (TransferMode m : allTransferModes)
        maxEvents = std::max(maxEvents,
                             rep.mode(m).predictedEvents);
    ASSERT_GT(maxEvents * 2, defaultWatchdogMaxEvents)
        << "fixture fell below the risk band";
    ASSERT_LE(maxEvents, defaultWatchdogMaxEvents)
        << "fixture overshot into UAL018 territory";

    DiagnosticEngine diags = lint(job);
    EXPECT_EQ(diags.count(DiagId::PredictedEventVolume), 1u)
        << diags.formatAll();
    EXPECT_EQ(lint(makeCleanJob()).count(
                  DiagId::PredictedEventVolume),
              0u);
}

// --- lint print dedup (jobfile sweeps) -------------------------------

TEST(Lint, WarnModePrintsEachFindingOnceAcrossSweepPoints)
{
    // A jobfile sweep lints the same model once per point; the
    // printed diagnostics must not repeat per point, while the
    // returned engines keep every finding (gate semantics intact).
    Job job = makeCleanJob();
    job.buffers.push_back(JobBuffer{"scratch", mib(8), true, false});
    resetLintPrintDedup();
    ::testing::internal::CaptureStderr();
    DiagnosticEngine first = enforceLint(
        SystemConfig::a100Epyc(), job, "sweep", LintMode::Warn);
    DiagnosticEngine second = enforceLint(
        SystemConfig::a100Epyc(), job, "sweep", LintMode::Warn);
    std::string err = ::testing::internal::GetCapturedStderr();
    resetLintPrintDedup();

    std::size_t prints = 0;
    for (std::size_t pos = err.find("UAL004");
         pos != std::string::npos;
         pos = err.find("UAL004", pos + 1))
        ++prints;
    EXPECT_EQ(prints, 1u) << err;
    EXPECT_EQ(first.count(DiagId::UnusedBuffer), 1u);
    EXPECT_EQ(second.count(DiagId::UnusedBuffer), 1u);
}

TEST(Lint, DistinctSubjectsStillPrint)
{
    Job job = makeCleanJob();
    job.buffers.push_back(JobBuffer{"scratch", mib(8), true, false});
    resetLintPrintDedup();
    ::testing::internal::CaptureStderr();
    enforceLint(SystemConfig::a100Epyc(), job, "point-a",
                LintMode::Warn);
    enforceLint(SystemConfig::a100Epyc(), job, "point-b",
                LintMode::Warn);
    std::string err = ::testing::internal::GetCapturedStderr();
    resetLintPrintDedup();

    EXPECT_NE(err.find("point-a"), std::string::npos) << err;
    EXPECT_NE(err.find("point-b"), std::string::npos) << err;
}

TEST(Lint, HandedBackReportRendersLikeADirectPricing)
{
    // The cost-advisor pass is the one producer of the report: what
    // lintJob hands back must render byte-equal to pricing the job
    // directly, for every registry workload.
    registerAllWorkloads();
    SystemConfig sys = SystemConfig::a100Epyc();
    for (const std::string &name :
         WorkloadRegistry::instance().names()) {
        for (SizeClass size : {SizeClass::Tiny, SizeClass::Small}) {
            Job job = WorkloadRegistry::instance().get(name).makeJob(
                size);
            std::string subject =
                name + " @ " + std::string(sizeClassName(size));
            std::optional<CostReport> handed;
            lintJob(sys, job, subject, nullptr, nullptr, {}, nullptr,
                    &handed);
            ASSERT_TRUE(handed.has_value()) << subject;
            EXPECT_EQ(renderCostReport(*handed, subject),
                      renderCostReport(analyzeCost(sys, job), subject))
                << subject;
        }
    }
}

TEST(Lint, StructuralPassesLeaveTheReportSlotEmpty)
{
    Job job = makeCleanJob();
    std::optional<CostReport> handed;
    LintOptions opts;
    opts.passes = {"kernel-graph"};
    lintJob(SystemConfig::a100Epyc(), job, "fixture", nullptr, nullptr,
            opts, nullptr, &handed);
    EXPECT_FALSE(handed.has_value());
}

TEST(Lint, PricingGatePrintsOneAdvisorLinePerSubject)
{
    Job job = makeCleanJob();
    std::vector<TransferMode> modes = {TransferMode::Uvm};
    resetLintPrintDedup();
    ::testing::internal::CaptureStderr();
    enforceBatchLint(SystemConfig::a100Epyc(), job, "fixture",
                     LintMode::Warn, modes);
    enforceBatchLint(SystemConfig::a100Epyc(), job, "fixture",
                     LintMode::Warn, modes);
    enforceBatchLint(SystemConfig::a100Epyc(), job, "fixture",
                     LintMode::Warn, {});
    enforceBatchLint(SystemConfig::a100Epyc(), job, "unlinted",
                     LintMode::Off, modes);
    std::string err = ::testing::internal::GetCapturedStderr();
    resetLintPrintDedup();

    std::size_t lines = 0;
    for (std::size_t pos = err.find("advisor:");
         pos != std::string::npos; pos = err.find("advisor:", pos + 1))
        ++lines;
    EXPECT_EQ(lines, 1u) << err;
    EXPECT_NE(err.find("advisor: fixture"), std::string::npos) << err;
}

TEST(Lint, ParseLintModeRoundTrip)
{
    LintMode m = LintMode::Off;
    EXPECT_TRUE(parseLintMode("enforce", m));
    EXPECT_EQ(m, LintMode::Enforce);
    EXPECT_TRUE(parseLintMode("warn", m));
    EXPECT_EQ(m, LintMode::Warn);
    EXPECT_TRUE(parseLintMode("off", m));
    EXPECT_EQ(m, LintMode::Off);
    EXPECT_FALSE(parseLintMode("sometimes", m));
}

// --- job loader strictness (satellite: no silent ignores) ------------

TEST(JobLoaderDeathTest, UnknownKeyIsFatalWithoutEngine)
{
    KvConfig kv = KvConfig::fromString(
        "[buffer.0]\nname = b\nmib = 1\nhost_inti = true\n"
        "[kernel.0]\nname = k\nbuffers = 0:sequential:rw\n");
    EXPECT_DEATH(jobFromConfig(kv), "unknown keys");
}

TEST(JobLoaderDeathTest, MalformedNumbersAreActionable)
{
    EXPECT_DEATH(
        jobFromConfig(KvConfig::fromString(
            "[buffer.0]\nname = b\nmib = 1\n[kernel.0]\nname = k\n"
            "buffers = 0:sequential:r:garbage\n")),
        "not a number");
    EXPECT_DEATH(
        jobFromConfig(KvConfig::fromString(
            "[buffer.0]\nname = b\nmib = 1\n[kernel.0]\nname = k\n"
            "buffers = 0:sequential:r:1.7\n")),
        "must be in \\[0, 1\\]");
}

TEST(JobLoader, ParsesDeclaredDependencies)
{
    KvConfig kv = KvConfig::fromString(
        "[buffer.0]\nname = b\nmib = 1\n"
        "[kernel.0]\nname = k0\nbuffers = 0:sequential:rw\n"
        "[kernel.1]\nname = k1\ndepends = 0\n"
        "buffers = 0:sequential:rw\n");
    Job job = jobFromConfig(kv);
    ASSERT_EQ(job.kernels.size(), 2u);
    ASSERT_EQ(job.kernels[1].dependsOn.size(), 1u);
    EXPECT_EQ(job.kernels[1].dependsOn[0], 0u);
    EXPECT_EQ(lintJob(SystemConfig::a100Epyc(), job, "deps")
                  .count(DiagId::KernelDepCycle),
              0u);
}

// --- construction-time validation (satellite) ------------------------

TEST(KernelBuilderDeathTest, RejectsNonFiniteCosts)
{
    EXPECT_DEATH(makeStreamKernel("k", 16, 128, mib(1), kib(16), 4,
                                  -1.0, 0.0, 0.0, 0.5),
                 "instruction costs");
    EXPECT_DEATH(makeStreamKernel("k", 16, 128, mib(1), kib(16), 4,
                                  1.0, 0.0, 0.0, -0.5),
                 "store_ratio");
    EXPECT_DEATH(makeStreamKernel("k", 0, 128, mib(1), kib(16), 4,
                                  1.0, 0.0, 0.0, 0.5),
                 "geometry");
}

// --- the shipped registry is lint-clean ------------------------------

TEST(RegistrySweep, EveryWorkloadLintsWithoutErrors)
{
    registerAllWorkloads();
    SystemConfig sys = SystemConfig::a100Epyc();
    std::size_t cells = 0;
    for (const std::string &name :
         WorkloadRegistry::instance().names()) {
        const Workload &w = *WorkloadRegistry::instance().find(name);
        for (SizeClass size : allSizeClasses) {
            Job job = w.makeJob(size);
            DiagnosticEngine diags = lintJob(
                sys, job,
                name + " @ " + std::string(sizeClassName(size)));
            EXPECT_EQ(diags.count(Severity::Error), 0u)
                << diags.formatAll();
            ++cells;
        }
    }
    EXPECT_GE(cells, 100u); // 21 workloads x 6 sizes
}

} // namespace
} // namespace uvmasync
