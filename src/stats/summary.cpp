#include "stats/summary.hpp"

#include <sstream>

#include "common/error.hpp"

namespace themis::stats {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    THEMIS_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(const std::vector<std::string>& cells)
{
    THEMIS_ASSERT(cells.size() == headers_.size(),
                  "row arity " << cells.size() << " != header arity "
                               << headers_.size());
    rows_.push_back(cells);
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](std::ostringstream& oss,
                    const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c > 0)
                oss << "  ";
            oss << cells[c];
            oss << std::string(width[c] - cells[c].size(), ' ');
        }
        oss << "\n";
    };

    std::ostringstream oss;
    emit(oss, headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c > 0 ? 2 : 0);
    oss << std::string(total, '-') << "\n";
    for (const auto& row : rows_)
        emit(oss, row);
    return oss.str();
}

} // namespace themis::stats
