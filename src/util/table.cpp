#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "util/contracts.hpp"

namespace imx::util {

Table& Table::header(std::vector<std::string> names) {
    header_ = std::move(names);
    return *this;
}

Table& Table::row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
}

void Table::print(std::ostream& os) const { os << to_string(); }

std::string Table::to_string() const {
    std::size_t columns = header_.size();
    for (const auto& r : rows_) columns = std::max(columns, r.size());
    std::vector<std::size_t> widths(columns, 0);
    auto grow = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    if (!header_.empty()) grow(header_);
    for (const auto& r : rows_) grow(r);

    std::ostringstream oss;
    oss << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < columns; ++i) {
            const std::string& cell = i < cells.size() ? cells[i] : std::string{};
            oss << std::left << std::setw(static_cast<int>(widths[i]) + 2) << cell;
        }
        oss << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (const auto w : widths) total += w + 2;
        oss << std::string(total, '-') << '\n';
    }
    for (const auto& r : rows_) emit(r);
    return oss.str();
}

std::string bar(double value, double max_value, int width) {
    IMX_EXPECTS(width > 0);
    if (max_value <= 0.0) return {};
    const double frac = std::clamp(value / max_value, 0.0, 1.0);
    const int filled = static_cast<int>(frac * width + 0.5);
    std::string out(static_cast<std::size_t>(filled), '#');
    out.resize(static_cast<std::size_t>(width), ' ');
    return out;
}

std::string fixed(double value, int precision) {
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

}  // namespace imx::util
