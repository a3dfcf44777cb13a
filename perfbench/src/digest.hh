/**
 * @file
 * Output check: per-point digests of simulated results and the
 * committed reference they are compared against.
 *
 * Two digests describe one point:
 *  - the result digest hashes the point's ExperimentResult in the
 *    journal's exact hexfloat layout (breakdown, noisy runs,
 *    counters), so it can be taken from any front end: an in-process
 *    batch, a daemon result stream, or the traced step-through;
 *  - the model digest hashes the simulated component counters of the
 *    deterministic execution (Device::stats(), i.e. mem.* and xfer.*,
 *    plus the simulated trace metrics), which only the traced
 *    step-through can see.
 *
 * A reference file holds one line per (simulation seed, workload,
 * size, mode): `seed workload size mode result_digest model_digest`.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/experiment.hh"
#include "sim/sim_object.hh"
#include "trace/metrics.hh"

namespace perfbench
{

/** 64-bit FNV-1a over @p bytes. */
std::uint64_t fnv1a(std::string_view bytes);

/** Hex digest of @p result's journal serialization. */
std::string resultDigest(const uvmasync::ExperimentResult &result);

/** Hex digest of the simulated counters of one execution. */
std::string modelDigest(const uvmasync::StatMap &stats,
                        const uvmasync::TraceMetrics &metrics);

/** Reference key of a point: "seed workload size mode". */
std::string pointKey(std::uint64_t seed, const std::string &workload,
                     uvmasync::SizeClass size,
                     uvmasync::TransferMode mode);

/** The two digests of one point. */
struct ReferenceEntry
{
    std::string result;
    std::string model;
};

/** Outcome of comparing one digest with the reference. */
enum class Verdict
{
    Match,
    Mismatch,
    Missing, //!< the reference has no entry for the point
};

const char *verdictName(Verdict verdict);

/** A committed reference: point key -> digests. */
class Reference
{
  public:
    /** Parse @p text ('#' lines are comments); false + error if bad. */
    bool parse(const std::string &text, std::string &error);

    /** Render every entry in key order, after @p header comments. */
    std::string render(const std::string &header) const;

    void set(const std::string &key, ReferenceEntry entry);
    const ReferenceEntry *find(const std::string &key) const;
    std::size_t size() const { return entries_.size(); }

    Verdict checkResult(const std::string &key,
                        const std::string &digest) const;
    Verdict checkModel(const std::string &key,
                       const std::string &digest) const;

  private:
    std::map<std::string, ReferenceEntry> entries_;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
