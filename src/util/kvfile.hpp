/// \file
/// \brief Minimal dependency-free INI-style key/value file parser.
///
/// Grammar (one construct per line):
///   [section]        — opens a section; the same name may repeat
///   key = value      — an entry in the current section
///   # ... or ; ...   — full-line comment
///   (blank)          — ignored
///
/// Whitespace around section names, keys, and values is trimmed; everything
/// else (including '#' inside a value) is preserved verbatim. Sections and
/// entries keep file order, and every node carries its 1-based line number
/// so consumers can report "file:line" diagnostics. Malformed lines (an
/// entry before any section, a '[' without ']', a line with no '=') throw
/// KvParseError — this layer has no "ignore and continue" mode, because the
/// spec-file contract upstream is hard errors on anything unrecognised.
#ifndef IMX_UTIL_KVFILE_HPP
#define IMX_UTIL_KVFILE_HPP

#include <stdexcept>
#include <string>
#include <vector>

namespace imx::util {

struct KvEntry {
    std::string key;
    std::string value;
    int line = 0;  ///< 1-based line number in the source text
};

struct KvSection {
    std::string name;
    int line = 0;  ///< line of the [section] header
    std::vector<KvEntry> entries;
};

/// Parse failure; what() is "origin:line: message".
class KvParseError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// \brief Parse INI-style text into ordered sections.
/// \param text the full file contents.
/// \param origin a label for diagnostics (file path or "<string>").
/// \return sections in file order, entries in section order.
/// \throws KvParseError on any malformed line.
std::vector<KvSection> parse_kv_text(const std::string& text,
                                     const std::string& origin = "<string>");

}  // namespace imx::util

#endif  // IMX_UTIL_KVFILE_HPP
