#include "xfer/prefetcher.hh"

namespace uvmasync
{

double
Prefetcher::accuracy() const
{
    std::uint64_t judged = useful_ + wasted_;
    return judged ? static_cast<double>(useful_) /
                    static_cast<double>(judged)
                  : 0.0;
}

void
Prefetcher::exportStats(StatMap &out) const
{
    putStat(out, "issued", static_cast<double>(issued_));
    putStat(out, "useful", static_cast<double>(useful_));
    putStat(out, "wasted", static_cast<double>(wasted_));
    putStat(out, "accuracy", accuracy());
}

void
Prefetcher::resetStats()
{
    issued_ = 0;
    useful_ = 0;
    wasted_ = 0;
    treeDistance_.clear();
}

} // namespace uvmasync
