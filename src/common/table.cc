#include "common/table.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace uvmasync
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    UVMASYNC_ASSERT(!headers_.empty(), "table needs at least one column");
    aligns_.assign(headers_.size(), Align::Right);
    aligns_[0] = Align::Left;
}

void
TextTable::setAlign(std::size_t col, Align align)
{
    UVMASYNC_ASSERT(col < aligns_.size(), "column %zu out of range", col);
    aligns_[col] = align;
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    UVMASYNC_ASSERT(cells.size() == headers_.size(),
                    "row has %zu cells, table has %zu columns",
                    cells.size(), headers_.size());
    rows_.push_back(Row{false, std::move(cells)});
}

void
TextTable::addSeparator()
{
    rows_.push_back(Row{true, {}});
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const Row &row : rows_) {
        if (row.separator)
            continue;
        for (std::size_t c = 0; c < row.cells.size(); ++c)
            widths[c] = std::max(widths[c], row.cells[c].size());
    }

    auto print_line = [&]() {
        os << '+';
        for (std::size_t w : widths)
            os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    auto print_cells = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            std::size_t pad = widths[c] - cells[c].size();
            if (aligns_[c] == Align::Left)
                os << ' ' << cells[c] << std::string(pad, ' ') << " |";
            else
                os << ' ' << std::string(pad, ' ') << cells[c] << " |";
        }
        os << '\n';
    };

    print_line();
    print_cells(headers_);
    print_line();
    for (const Row &row : rows_) {
        if (!row.separator)
            print_cells(row.cells);
        else if (&row != &rows_.back()) // the closing border follows
            print_line();
    }
    print_line();
}

std::string
TextTable::toString() const
{
    std::ostringstream oss;
    print(oss);
    return oss.str();
}

std::string
fmtDouble(double v, int digits)
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(digits);
    oss << v;
    return oss.str();
}

std::string
fmtPercent(double fraction, int digits)
{
    double pct = fraction * 100.0;
    std::string sign = pct >= 0.0 ? "+" : "";
    return sign + fmtDouble(pct, digits) + "%";
}

std::string
fmtTime(double picoseconds)
{
    struct Unit { double scale; const char *name; };
    static const Unit units[] = {
        {1e12, "s"}, {1e9, "ms"}, {1e6, "us"}, {1e3, "ns"}, {1.0, "ps"},
    };
    for (const Unit &u : units) {
        if (picoseconds >= u.scale)
            return fmtDouble(picoseconds / u.scale, 2) +
                   std::string(" ") + u.name;
    }
    return fmtDouble(picoseconds, 0) + " ps";
}

std::string
fmtBytes(double bytes)
{
    struct Unit { double scale; const char *name; };
    static const Unit units[] = {
        {1024.0 * 1024 * 1024, "GiB"},
        {1024.0 * 1024, "MiB"},
        {1024.0, "KiB"},
    };
    for (const Unit &u : units) {
        if (bytes >= u.scale)
            return fmtDouble(bytes / u.scale, 2) + std::string(" ") +
                   u.name;
    }
    return fmtDouble(bytes, 0) + " B";
}

std::string
fmtCount(double count)
{
    struct Unit { double scale; const char *name; };
    static const Unit units[] = {
        {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "K"},
    };
    for (const Unit &u : units) {
        if (count >= u.scale)
            return fmtDouble(count / u.scale, 2) + u.name;
    }
    return fmtDouble(count, 0);
}

} // namespace uvmasync
