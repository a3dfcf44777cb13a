/**
 * @file
 * Host-time spans recorded by the traced run around calls into each
 * layer's public functions.
 *
 * Spans are kept in memory and written out once, when the run ends.
 * Every span names its layer as the prefix of its dotted name
 * ("analysis.lint" belongs to `analysis`), and carries the id of the
 * request it served and the id of the span that caused it. A layer's
 * self time is its span time minus the time of its child spans.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady_clock points. */
double msBetween(Clock::time_point from, Clock::time_point to);

/** One recorded span; times are ms since the log's epoch. */
struct Span
{
    std::uint64_t request = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;

    double durationMs() const { return endMs - startMs; }
};

/** Thread-safe in-memory span collector. */
class SpanLog
{
  public:
    SpanLog();

    /** Record a finished span; returns its id. */
    std::uint64_t add(std::uint64_t request, std::uint64_t parent,
                      const std::string &name, Clock::time_point start,
                      Clock::time_point end);

    /** Reserve an id for a span whose children finish first. */
    std::uint64_t reserve();

    /** Record a span under an id from reserve(). */
    void addReserved(std::uint64_t id, std::uint64_t request,
                     std::uint64_t parent, const std::string &name,
                     Clock::time_point start, Clock::time_point end);

    std::vector<Span> spans() const;

    /** Self ms per span name, summed over all spans. */
    std::map<std::string, double> selfMsByName() const;

    /** Total ms per span name (children included). */
    std::map<std::string, double> totalMsByName() const;

    /** One JSON object per line. */
    std::string toJsonl() const;

  private:
    mutable std::mutex mutex_; //!< guards spans_, nextId_
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
    Clock::time_point epoch_;
};

/** Self time of each span: its duration minus its children's. */
std::map<std::uint64_t, double> selfTimes(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
