/// \file
/// \brief The one fixed name -> entry table behind every named axis in the
/// repository (exit policies, trace sources, arrival sources, recovery
/// strategies) and the experiment registry.
///
/// Each module builds one `Registry<Entry>` from its built-in table and
/// wraps it in free functions (`make_policy`, `make_trace`,
/// `arrival_source_names`, ...). The table is complete at construction and
/// never changes afterwards.
///
/// Contract, shared by every instance:
///  * Names are non-empty; the table is fixed once built.
///  * `get()` throws std::invalid_argument for unknown names, with a message
///    listing every registered name so CLI typos self-explain:
///    "unknown <kind> '<name>' (registered: a, b, c)".
///  * Entries iterate in lexicographic name order (ordered map), so
///    `names()` is sorted without a separate pass.
///  * Instances are function-local `static const` objects: C++ initialises
///    them exactly once, on first use, and every later call only reads, so
///    sweep worker threads may resolve names concurrently without a lock.
#ifndef IMX_UTIL_REGISTRY_HPP
#define IMX_UTIL_REGISTRY_HPP

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace imx::util {

/// \brief Immutable name -> Entry table with the shared diagnostic contract
/// above. `Entry` is whatever one name carries: a bare factory (exit
/// policies) or a factory plus metadata (trace sources).
template <typename Entry>
class Registry {
public:
    /// \param kind the human-readable noun used in diagnostics, e.g.
    ///   "exit policy" -> "unknown exit policy 'x' (registered: ...)".
    /// \param entries the complete table; every name must be non-empty.
    Registry(std::string kind, std::map<std::string, Entry> entries)
        : kind_(std::move(kind)), entries_(std::move(entries)) {
        for (const auto& [name, unused] : entries_) {
            (void)unused;
            IMX_EXPECTS(!name.empty());
        }
    }

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// \brief The entry for `name`.
    /// \throws std::invalid_argument for unknown names (message lists every
    ///   registered name).
    [[nodiscard]] const Entry& get(const std::string& name) const {
        const auto it = entries_.find(name);
        if (it == entries_.end()) throw_unknown(name);
        return it->second;
    }

    /// \brief Whether `name` is registered.
    [[nodiscard]] bool contains(const std::string& name) const {
        return entries_.count(name) > 0;
    }

    /// \brief Every registered name, sorted.
    [[nodiscard]] std::vector<std::string> names() const {
        std::vector<std::string> result;
        result.reserve(entries_.size());
        for (const auto& [key, unused] : entries_) {
            (void)unused;
            result.push_back(key);
        }
        return result;
    }

private:
    [[noreturn]] void throw_unknown(const std::string& name) const {
        std::string known;
        for (const auto& [key, unused] : entries_) {
            (void)unused;
            if (!known.empty()) known += ", ";
            known += key;
        }
        throw std::invalid_argument("unknown " + kind_ + " '" + name +
                                    "' (registered: " + known + ")");
    }

    std::string kind_;
    std::map<std::string, Entry> entries_;
};

}  // namespace imx::util

#endif  // IMX_UTIL_REGISTRY_HPP
