#include "exp/cli.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "nn/kernels/dispatch.hpp"
#include "util/contracts.hpp"

namespace imx::exp {

namespace {

int require_int(const char* flag, const char* text) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value < INT_MIN ||
        value > INT_MAX) {
        std::fprintf(stderr, "error: %s expects an integer, got '%s'\n", flag,
                     text);
        std::exit(2);
    }
    return static_cast<int>(value);
}

std::uint64_t require_uint64(const char* flag, const char* text) {
    char* end = nullptr;
    errno = 0;
    // Base 0 so seeds read naturally in decimal or hex (0xD5EED).
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return static_cast<std::uint64_t>(value);
}

}  // namespace

ShardSpec parse_shard_spec(const std::string& text) {
    const auto fail = [&text](const char* why) {
        throw std::invalid_argument("malformed shard '" + text + "': " + why +
                                    " (expected i/N with 0 <= i < N)");
    };
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || text.find('/', slash + 1) !=
                                          std::string::npos) {
        fail("expected exactly one '/'");
    }
    const std::string index_text = text.substr(0, slash);
    const std::string count_text = text.substr(slash + 1);
    const auto parse_component = [&fail](const std::string& part,
                                         const char* what) -> long {
        if (part.empty() || part[0] == '-' || part[0] == '+') {
            fail(what);
        }
        char* end = nullptr;
        errno = 0;
        const long value = std::strtol(part.c_str(), &end, 10);
        if (end == part.c_str() || *end != '\0' || errno == ERANGE ||
            value > INT_MAX) {
            fail(what);
        }
        return value;
    };
    ShardSpec shard;
    shard.index = static_cast<int>(
        parse_component(index_text, "the shard index is not a number"));
    shard.count = static_cast<int>(
        parse_component(count_text, "the shard count is not a number"));
    if (shard.count == 0) fail("the shard count must be >= 1");
    if (shard.index >= shard.count) fail("the shard index must be < N");
    return shard;
}

std::vector<std::size_t> shard_indices(std::size_t total,
                                       const ShardSpec& shard) {
    std::vector<std::size_t> indices;
    for (std::size_t i = static_cast<std::size_t>(shard.index); i < total;
         i += static_cast<std::size_t>(shard.count)) {
        indices.push_back(i);
    }
    return indices;
}

SweepCli parse_sweep_cli(int argc, char** argv) {
    // Dispatch resolution is lazy, and the sweep path may never invoke a
    // float kernel — validate IMX_KERNEL here so a mistyped pin fails the
    // run instead of silently selecting nothing.
    try {
        (void)nn::kernels::env_forced_backend();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
    SweepCli options;
    const auto require_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: %s requires a value\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            options.quick = true;
        } else if (std::strcmp(argv[i], "--replicas") == 0) {
            options.replicas = require_int("--replicas", require_value(i));
            if (options.replicas < 1) {
                std::fprintf(stderr,
                             "error: --replicas must be >= 1, got %d\n",
                             options.replicas);
                std::exit(2);
            }
            options.replicas_given = true;
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            options.threads = require_int("--threads", require_value(i));
            if (options.threads < 0) {
                std::fprintf(stderr,
                             "error: --threads must be >= 0 (0 = all cores), "
                             "got %d\n",
                             options.threads);
                std::exit(2);
            }
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            options.csv = require_value(i);
        } else if (std::strcmp(argv[i], "--base-seed") == 0) {
            options.base_seed =
                require_uint64("--base-seed", require_value(i));
            options.base_seed_given = true;
        } else if (std::strcmp(argv[i], "--shard") == 0) {
            try {
                options.shard = parse_shard_spec(require_value(i));
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(2);
            }
            options.shard_given = true;
        } else if (std::strcmp(argv[i], "--journal") == 0) {
            options.journal = require_value(i);
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            options.resume = true;
        } else if (std::strcmp(argv[i], "--merge") == 0) {
            options.merge.emplace_back(require_value(i));
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            options.profile = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr,
                         "error: unknown option '%s' (expected --quick, "
                         "--replicas N, --threads N, --csv PATH, "
                         "--base-seed N, --shard i/N, --journal PATH, "
                         "--resume, --merge PATH, --profile)\n",
                         argv[i]);
            std::exit(2);
        } else {
            options.positional.emplace_back(argv[i]);
        }
    }
    IMX_EXPECTS(options.replicas >= 1);
    if (options.resume && options.journal.empty()) {
        std::fprintf(stderr,
                     "error: --resume requires --journal PATH (the journal "
                     "to resume from)\n");
        std::exit(2);
    }
    if (!options.merge.empty() &&
        (options.shard_given || !options.journal.empty() || options.resume)) {
        std::fprintf(stderr,
                     "error: --merge folds existing journals and cannot be "
                     "combined with --shard/--journal/--resume\n");
        std::exit(2);
    }
    return options;
}

int positional_episodes(const SweepCli& options, int fallback) {
    if (options.positional.empty()) return fallback;
    const std::string& text = options.positional.front();
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        value < INT_MIN || value > INT_MAX) {
        throw std::invalid_argument("expected an integer argument, got '" +
                                    text + "'");
    }
    if (value < 1) {
        throw std::invalid_argument("episode count must be >= 1, got " +
                                    std::to_string(value));
    }
    return static_cast<int>(value);
}

void require_no_positional(const SweepCli& options) {
    if (options.positional.empty()) return;
    throw std::invalid_argument("unexpected argument '" +
                                options.positional.front() + "'");
}

}  // namespace imx::exp
