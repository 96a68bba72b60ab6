#include "report/table.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"
#include "support/str.hh"

namespace cams
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cams_assert(cells.size() == headers_.size(),
                "row width does not match header");
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream os;
    auto emitRow = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ")
               << pad(cells[c], c == 0 ? -static_cast<int>(widths[c])
                                       : static_cast<int>(widths[c]));
        }
        os << "\n";
    };
    emitRow(headers_);
    std::string rule;
    for (size_t c = 0; c < widths.size(); ++c) {
        if (c)
            rule += "  ";
        rule += std::string(widths[c], '-');
    }
    os << rule << "\n";
    for (const auto &row : rows_)
        emitRow(row);
    return os.str();
}

std::string
renderDeviationFigure(const std::string &title,
                      const std::vector<DeviationSeries> &series)
{
    std::ostringstream os;
    os << "== " << title << " ==\n";
    TextTable table({"series", "loops", "x=0 %", "x=1 %", "x=2 %",
                     "x=3 %", "x>=4 %", "<=1 %", "copies", "fail"});
    for (const DeviationSeries &entry : series) {
        const double tail = 100.0 - entry.percentAtMost(3) -
                            100.0 * entry.failures /
                                std::max(1, entry.loops());
        table.addRow({
            entry.label,
            std::to_string(entry.loops()),
            formatFixed(entry.percentAt(0), 1),
            formatFixed(entry.percentAt(1), 1),
            formatFixed(entry.percentAt(2), 1),
            formatFixed(entry.percentAt(3), 1),
            formatFixed(std::max(0.0, tail), 1),
            formatFixed(entry.percentAtMost(1), 1),
            std::to_string(entry.totalCopies),
            std::to_string(entry.failures),
        });
    }
    os << table.render();
    return os.str();
}

} // namespace cams
