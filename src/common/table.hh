/**
 * @file
 * Plain-text table rendering for experiment reports.
 *
 * The bench harness prints every figure/table of the paper as an ASCII
 * table; this keeps formatting concerns out of the experiment code.
 */

#ifndef UVMASYNC_COMMON_TABLE_HH
#define UVMASYNC_COMMON_TABLE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace uvmasync
{

/**
 * A rectangular text table with a header row, column alignment and a
 * one-call renderer.
 */
class TextTable
{
  public:
    enum class Align { Left, Right };

    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Set per-column alignment (default: first Left, rest Right). */
    void setAlign(std::size_t col, Align align);

    /** Append a full row; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator line. */
    void addSeparator();

    /** Render the table to the stream. */
    void print(std::ostream &os) const;

    /** Render the table to a string. */
    std::string toString() const;

  private:
    struct Row
    {
        bool separator = false;
        std::vector<std::string> cells;
    };

    std::vector<std::string> headers_;
    std::vector<Align> aligns_;
    std::vector<Row> rows_;
};

/** @{ Cell formatting helpers. */

/** Format a double with @p digits fractional digits. */
std::string fmtDouble(double v, int digits = 2);

/** Format a fraction as a signed percentage string, e.g. "+21.3%". */
std::string fmtPercent(double fraction, int digits = 2);

/** Format a tick count with an auto-selected unit (ns/us/ms/s). */
std::string fmtTime(double picoseconds);

/** Format a byte count with an auto-selected unit (B/KiB/MiB/GiB). */
std::string fmtBytes(double bytes);

/** Format a large count with engineering suffix (K/M/G). */
std::string fmtCount(double count);
/** @} */

} // namespace uvmasync

#endif // UVMASYNC_COMMON_TABLE_HH
