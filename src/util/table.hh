/**
 * @file
 * Tiny table/CSV emitter so every bench binary prints its figure/table
 * data in a uniform, machine-greppable format.
 */

#ifndef DECEPTICON_UTIL_TABLE_HH
#define DECEPTICON_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace decepticon::util {

/**
 * Accumulates rows of strings/numbers and renders either an aligned
 * ASCII table (for humans) or CSV (for plotting scripts).
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row; subsequent cell() calls append to it. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &cell(const std::string &value);

    /** Append a formatted floating-point cell. */
    Table &cell(double value, int precision = 4);

    /** Append an integer cell. */
    Table &cell(long long value);
    Table &cell(std::size_t value);
    Table &cell(int value);

    /** Render as an aligned ASCII table. */
    void printAscii(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a section banner for bench output. */
void printBanner(std::ostream &os, const std::string &title);

} // namespace decepticon::util

#endif // DECEPTICON_UTIL_TABLE_HH
