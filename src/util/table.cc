#include "util/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace decepticon::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &value)
{
    rows_.back().push_back(value);
    return *this;
}

Table &
Table::cell(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return cell(oss.str());
}

Table &
Table::cell(long long value)
{
    return cell(std::to_string(value));
}

Table &
Table::cell(std::size_t value)
{
    return cell(std::to_string(value));
}

Table &
Table::cell(int value)
{
    return cell(std::to_string(value));
}

void
Table::printAscii(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        os << "|";
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &v = c < cells.size() ? cells[c] : "";
            os << " " << std::left << std::setw(static_cast<int>(widths[c]))
               << v << " |";
        }
        os << "\n";
    };

    print_row(headers_);
    os << "|";
    for (std::size_t c = 0; c < widths.size(); ++c)
        os << std::string(widths[c] + 2, '-') << "|";
    os << "\n";
    for (const auto &row : rows_)
        print_row(row);
}

void
printBanner(std::ostream &os, const std::string &title)
{
    os << "\n=== " << title << " ===\n";
}

} // namespace decepticon::util
