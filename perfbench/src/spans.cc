#include "spans.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

std::uint64_t
SpanLog::reserve()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

std::uint64_t
SpanLog::add(std::uint64_t request, std::uint64_t parent,
             const std::string &name, Clock::time_point start,
             Clock::time_point end)
{
    std::uint64_t id = reserve();
    addReserved(id, request, parent, name, start, end);
    return id;
}

void
SpanLog::addReserved(std::uint64_t id, std::uint64_t request,
                     std::uint64_t parent, const std::string &name,
                     Clock::time_point start, Clock::time_point end)
{
    Span s;
    s.request = request;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.startMs = msBetween(epoch_, start);
    s.endMs = msBetween(epoch_, end);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::uint64_t, double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, double> self;
    for (const Span &s : spans)
        self[s.id] += s.durationMs();
    for (const Span &s : spans) {
        if (s.parent != 0)
            self[s.parent] -= s.durationMs();
    }
    for (auto &[id, ms] : self)
        ms = std::max(0.0, ms);
    return self;
}

std::map<std::string, double>
SpanLog::selfMsByName() const
{
    std::vector<Span> all = spans();
    std::map<std::uint64_t, double> self = selfTimes(all);
    std::map<std::string, double> out;
    for (const Span &s : all)
        out[s.name] += self[s.id];
    return out;
}

std::map<std::string, double>
SpanLog::totalMsByName() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans())
        out[s.name] += s.durationMs();
    return out;
}

std::string
SpanLog::toJsonl() const
{
    std::string out;
    char buf[320];
    for (const Span &s : spans()) {
        std::snprintf(buf, sizeof buf,
                      "{\"request\":%llu,\"id\":%llu,\"parent\":%llu,"
                      "\"name\":\"%s\",\"start_ms\":%.6f,"
                      "\"end_ms\":%.6f}\n",
                      static_cast<unsigned long long>(s.request),
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      s.name.c_str(), s.startMs, s.endMs);
        out += buf;
    }
    return out;
}

} // namespace perfbench
