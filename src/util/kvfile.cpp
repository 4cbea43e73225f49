#include "util/kvfile.hpp"

#include <sstream>

namespace imx::util {

namespace {

std::string trim(const std::string& text) {
    const auto first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos) return "";
    const auto last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

[[noreturn]] void fail(const std::string& origin, int line,
                       const std::string& message) {
    throw KvParseError(origin + ":" + std::to_string(line) + ": " + message);
}

}  // namespace

std::vector<KvSection> parse_kv_text(const std::string& text,
                                     const std::string& origin) {
    std::vector<KvSection> sections;
    std::istringstream stream(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        const std::string line = trim(raw);
        if (line.empty() || line[0] == '#' || line[0] == ';') continue;
        if (line[0] == '[') {
            if (line.back() != ']') {
                fail(origin, line_no, "section header missing closing ']'");
            }
            const std::string name = trim(line.substr(1, line.size() - 2));
            if (name.empty()) fail(origin, line_no, "empty section name");
            sections.push_back({name, line_no, {}});
            continue;
        }
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            fail(origin, line_no,
                 "expected '[section]' or 'key = value', got '" + line + "'");
        }
        const std::string key = trim(line.substr(0, eq));
        if (key.empty()) fail(origin, line_no, "empty key");
        if (sections.empty()) {
            fail(origin, line_no,
                 "entry '" + key + "' appears before any [section]");
        }
        sections.back().entries.push_back(
            {key, trim(line.substr(eq + 1)), line_no});
    }
    return sections;
}

}  // namespace imx::util
