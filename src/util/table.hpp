// ASCII table rendering for the figure-reproduction benches: every bench
// prints the same rows/series the paper reports, via this printer.
#ifndef IMX_UTIL_TABLE_HPP
#define IMX_UTIL_TABLE_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace imx::util {

/// Column-aligned text table with a title, built row by row.
class Table {
public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    Table& header(std::vector<std::string> names);
    Table& row(std::vector<std::string> cells);

    void print(std::ostream& os) const;
    [[nodiscard]] std::string to_string() const;

private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Render a horizontal ASCII bar chart line (for figure-shaped output).
std::string bar(double value, double max_value, int width = 40);

/// Format a double with fixed precision into a string.
std::string fixed(double value, int precision = 3);

}  // namespace imx::util

#endif  // IMX_UTIL_TABLE_HPP
