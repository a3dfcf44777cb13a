#include "digest.hh"

#include <sstream>

#include "journal/journal.hh"
#include "journal/json.hh"
#include "workloads/size_class.hh"

namespace perfbench
{

using namespace uvmasync;

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
resultDigest(const ExperimentResult &result)
{
    JsonWriter w;
    writeResultJson(w, result);
    return hexU64(fnv1a(w.str()));
}

std::string
modelDigest(const StatMap &stats, const TraceMetrics &m)
{
    std::string text;
    for (const auto &[name, value] : stats)
        text += name + "=" + hexDouble(value) + "\n";
    auto add = [&](const char *name, std::uint64_t value) {
        text += std::string(name) + "=" + std::to_string(value) + "\n";
    };
    add("trace.pcie_busy_ps", m.pcieBusyPs);
    add("trace.pcie_queue_wait_ps", m.pcieQueueWaitPs);
    add("trace.faults_raised", m.faultsRaised);
    add("trace.fault_batches", m.faultBatches);
    add("trace.prefetch_issued", m.prefetchIssued);
    add("trace.prefetch_hits", m.prefetchHits);
    add("trace.prefetch_wasted", m.prefetchWasted);
    return hexU64(fnv1a(text));
}

std::string
pointKey(std::uint64_t seed, const std::string &workload, SizeClass size,
         TransferMode mode)
{
    return std::to_string(seed) + " " + workload + " " +
           sizeClassName(size) + " " + transferModeName(mode);
}

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Match:
        return "match";
      case Verdict::Mismatch:
        return "mismatch";
      case Verdict::Missing:
        return "missing";
    }
    return "?";
}

bool
Reference::parse(const std::string &text, std::string &error)
{
    entries_.clear();
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string seed, workload, size, mode;
        ReferenceEntry entry;
        std::string extra;
        if (!(fields >> seed >> workload >> size >> mode >> entry.result >>
              entry.model) ||
            (fields >> extra)) {
            error = "reference line " + std::to_string(lineNo) +
                    ": expected 6 fields";
            return false;
        }
        std::string key = seed + " " + workload + " " + size + " " + mode;
        if (!entries_.emplace(key, entry).second) {
            error = "reference line " + std::to_string(lineNo) +
                    ": duplicate point '" + key + "'";
            return false;
        }
    }
    return true;
}

std::string
Reference::render(const std::string &header) const
{
    std::string out = header;
    for (const auto &[key, entry] : entries_)
        out += key + " " + entry.result + " " + entry.model + "\n";
    return out;
}

void
Reference::set(const std::string &key, ReferenceEntry entry)
{
    entries_[key] = std::move(entry);
}

const ReferenceEntry *
Reference::find(const std::string &key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

Verdict
Reference::checkResult(const std::string &key,
                       const std::string &digest) const
{
    const ReferenceEntry *e = find(key);
    if (!e)
        return Verdict::Missing;
    return e->result == digest ? Verdict::Match : Verdict::Mismatch;
}

Verdict
Reference::checkModel(const std::string &key,
                      const std::string &digest) const
{
    const ReferenceEntry *e = find(key);
    if (!e)
        return Verdict::Missing;
    return e->model == digest ? Verdict::Match : Verdict::Mismatch;
}

} // namespace perfbench
