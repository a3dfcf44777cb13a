#include "gpu/instruction_mix.hh"

#include <cmath>

#include "common/table.hh"

namespace uvmasync
{

InstrMix &
InstrMix::operator+=(const InstrMix &o)
{
    memory += o.memory;
    fp += o.fp;
    integer += o.integer;
    control += o.control;
    return *this;
}

InstrMix
InstrMix::operator*(double k) const
{
    return InstrMix{memory * k, fp * k, integer * k, control * k};
}

std::string
InstrMix::validate() const
{
    const struct
    {
        const char *name;
        double value;
    } classes[] = {{"memory", memory},
                   {"fp", fp},
                   {"integer", integer},
                   {"control", control}};
    for (const auto &c : classes) {
        // !(x >= 0) also catches NaN.
        if (!(c.value >= 0.0) || std::isinf(c.value))
            return std::string(c.name) + " count " +
                   fmtDouble(c.value, 3) +
                   " is not a finite non-negative number";
    }
    return "";
}

} // namespace uvmasync
