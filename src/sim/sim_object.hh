/**
 * @file
 * Base class for named, stat-exporting simulation components, and the
 * flat StatMap their statistics are exported into.
 */

#ifndef UVMASYNC_SIM_SIM_OBJECT_HH
#define UVMASYNC_SIM_SIM_OBJECT_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace uvmasync
{

/** A flat name -> value statistics snapshot. */
using StatMap = std::map<std::string, double>;

/**
 * Base class for simulator components: a name, and a stats hook that
 * Device::stats() calls on each component it owns to build a point's
 * StatMap.
 */
class SimObject
{
  public:
    explicit SimObject(std::string name) : name_(std::move(name)) {}
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }

    /**
     * Append this component's statistics to @p out, each key prefixed
     * with the component name ("pcie.bytes_h2d", ...).
     */
    virtual void exportStats(StatMap &out) const = 0;

  protected:
    /** Helper for exportStats implementations. */
    void
    putStat(StatMap &out, const std::string &key, double value) const
    {
        out[name_ + "." + key] = value;
    }

  private:
    std::string name_;
};

} // namespace uvmasync

#endif // UVMASYNC_SIM_SIM_OBJECT_HH
