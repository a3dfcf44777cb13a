/**
 * @file
 * GPU instruction-mix counters (the Figure 9 metric).
 */

#ifndef UVMASYNC_GPU_INSTRUCTION_MIX_HH
#define UVMASYNC_GPU_INSTRUCTION_MIX_HH

#include <string>

namespace uvmasync
{

/**
 * Dynamic instruction counts by class, as CUPTI would report them.
 * Stored as doubles because the executor scales analytic per-tile
 * counts by large block/tile products.
 */
struct InstrMix
{
    double memory = 0.0;
    double fp = 0.0;
    double integer = 0.0;
    double control = 0.0;

    double total() const { return memory + fp + integer + control; }

    InstrMix &operator+=(const InstrMix &o);
    InstrMix operator*(double k) const;

    /**
     * Empty string when every class count is finite and >= 0;
     * otherwise a description of the first offending class. Negative
     * or NaN counts flow silently through the arithmetic operators,
     * so anything that constructs a mix from user input (job files,
     * analytic descriptors) must check this.
     */
    std::string validate() const;

};

} // namespace uvmasync

#endif // UVMASYNC_GPU_INSTRUCTION_MIX_HH
