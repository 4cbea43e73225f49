// Dispatch-selection coverage for the kernel layer: forced-scalar,
// forced-AVX2, unknown IMX_KERNEL (hard error, not a silent fallback), the
// CPU-detection default, the exact totals of the kernel counters under
// concurrent calls — plus the golden pin that scalar dispatch
// reproduces every registered experiment's --quick aggregate CSV byte-exact
// (FNV-1a hashes captured from the pre-kernel-layer implementation).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "nn/kernels/kernels.hpp"
#include "scratch_dir.hpp"

namespace {

using namespace imx;
using nn::kernels::Backend;

bool avx2_available() {
    return nn::kernels::avx2_kernels_compiled() &&
           nn::kernels::cpu_supports_avx2();
}

/// Scoped IMX_KERNEL value; restores the previous value (or unset) on exit.
class ScopedKernelEnv {
public:
    explicit ScopedKernelEnv(const char* value) {
        const char* old = std::getenv("IMX_KERNEL");
        had_old_ = old != nullptr;
        if (had_old_) old_ = old;
        if (value == nullptr) {
            ::unsetenv("IMX_KERNEL");
        } else {
            ::setenv("IMX_KERNEL", value, 1);
        }
    }
    ~ScopedKernelEnv() {
        if (had_old_) {
            ::setenv("IMX_KERNEL", old_.c_str(), 1);
        } else {
            ::unsetenv("IMX_KERNEL");
        }
    }
    ScopedKernelEnv(const ScopedKernelEnv&) = delete;
    ScopedKernelEnv& operator=(const ScopedKernelEnv&) = delete;

private:
    bool had_old_ = false;
    std::string old_;
};

TEST(KernelDispatch, ParseBackendAcceptsKnownNamesOnly) {
    EXPECT_EQ(nn::kernels::parse_backend("scalar"), Backend::kScalar);
    EXPECT_EQ(nn::kernels::parse_backend("avx2"), Backend::kAvx2);
    EXPECT_THROW((void)nn::kernels::parse_backend("sse2"),
                 std::runtime_error);
    EXPECT_THROW((void)nn::kernels::parse_backend("Scalar"),
                 std::runtime_error);
    EXPECT_THROW((void)nn::kernels::parse_backend(""), std::runtime_error);
}

TEST(KernelDispatch, EnvForcedScalarWins) {
    ScopedKernelEnv env("scalar");
    EXPECT_EQ(nn::kernels::resolve_backend_from_env(), Backend::kScalar);
    ASSERT_TRUE(nn::kernels::env_forced_backend().has_value());
    EXPECT_EQ(*nn::kernels::env_forced_backend(), Backend::kScalar);
}

TEST(KernelDispatch, EnvForcedAvx2WinsWhenSupported) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    ScopedKernelEnv env("avx2");
    EXPECT_EQ(nn::kernels::resolve_backend_from_env(), Backend::kAvx2);
}

TEST(KernelDispatch, UnknownEnvValueIsAHardError) {
    ScopedKernelEnv env("neon");
    EXPECT_THROW((void)nn::kernels::resolve_backend_from_env(),
                 std::runtime_error);
    EXPECT_THROW((void)nn::kernels::env_forced_backend(), std::runtime_error);
}

TEST(KernelDispatch, EmptyEnvMeansAutoDetection) {
    ScopedKernelEnv env("");
    const Backend resolved = nn::kernels::resolve_backend_from_env();
    EXPECT_EQ(resolved,
              avx2_available() ? Backend::kAvx2 : Backend::kScalar);
    EXPECT_FALSE(nn::kernels::env_forced_backend().has_value());
}

TEST(KernelDispatch, ForceBackendOverridesAndClears) {
    nn::kernels::force_backend(Backend::kScalar);
    EXPECT_EQ(nn::kernels::active_backend(), Backend::kScalar);
    if (avx2_available()) {
        nn::kernels::force_backend(Backend::kAvx2);
        EXPECT_EQ(nn::kernels::active_backend(), Backend::kAvx2);
    }
    nn::kernels::clear_backend_override();
}

TEST(KernelDispatch, ForcedBackendActuallyRuns) {
    nn::kernels::force_backend(Backend::kScalar);
    const auto before = nn::kernels::counters_snapshot();
    std::vector<float> w = {1.0F, 2.0F};
    std::vector<float> x = {3.0F};
    std::vector<float> b = {0.5F, -0.5F};
    std::vector<float> y(2);
    nn::kernels::gemm(2, 1, w.data(), x.data(), b.data(), y.data());
    const auto after = nn::kernels::counters_snapshot();
    EXPECT_EQ(after.gemm_calls, before.gemm_calls + 1);
    EXPECT_EQ(after.gemm_macs, before.gemm_macs + 2);
    EXPECT_FLOAT_EQ(y[0], 3.5F);
    EXPECT_FLOAT_EQ(y[1], 5.5F);
    nn::kernels::clear_backend_override();
}

TEST(KernelCounters, ConcurrentCallsGiveExactTotals) {
    // Threads calling kernels at once must lose no count.
    constexpr int kThreads = 4;
    constexpr int kCalls = 5000;
    constexpr std::int64_t kElems = 8;
    const auto before = nn::kernels::counters_snapshot();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            std::vector<float> x(kElems, 0.5F);
            std::vector<float> y(kElems);
            for (int c = 0; c < kCalls; ++c) {
                nn::kernels::bias_act(kElems, x.data(), 0.25F,
                                      nn::kernels::Act::kRelu, y.data());
            }
        });
    }
    for (auto& thread : threads) thread.join();
    const auto after = nn::kernels::counters_snapshot();
    constexpr std::uint64_t kTotal = std::uint64_t{kThreads} * kCalls;
    EXPECT_EQ(after.bias_act_calls - before.bias_act_calls, kTotal);
    EXPECT_EQ(after.bias_act_elems - before.bias_act_elems, kTotal * kElems);
    EXPECT_EQ(after.gemm_calls, before.gemm_calls);
    EXPECT_EQ(after.adam_calls, before.adam_calls);
}

// --- golden pin -----------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string hex64(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Run one registered experiment's --quick grid in-process and hash its
/// aggregate CSV.
std::string quick_aggregate_hash(const std::string& name) {
    exp::SweepCli cli;
    cli.quick = true;
    cli.replicas = 1;
    cli.replicas_given = true;
    cli.threads = 1;
    const exp::Experiment experiment = exp::make_experiment(name);
    const std::vector<exp::ScenarioSpec> specs =
        exp::build_experiment_scenarios(experiment, cli);
    const std::vector<exp::ScenarioOutcome> outcomes = exp::run_sweep(
        specs, exp::RunnerConfig{cli.threads});
    const std::string path =
        test::scratch_dir() + "imx_kernels_golden_" + name + ".csv";
    exp::write_aggregate_csv(path, exp::aggregate(specs, outcomes));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return hex64(fnv1a(buf.str()));
}

/// FNV-1a hashes of every registered experiment's quick aggregate CSV
/// (--quick --replicas 1, default base seed), captured from the historical
/// per-layer loops. Scalar dispatch must reproduce them byte for byte; a
/// mismatch means the scalar kernels (or anything upstream of the goldens)
/// moved. Adding an experiment to the registry fails the coverage check
/// below until its hash is added here.
const std::map<std::string, std::string>& expected_hashes() {
    // Refreshed when the queue/latency metrics (p50/p95/p99_latency_s,
    // dropped, in_flight) joined sim_metrics(): every simulator-driven
    // CSV gained those columns (values of the historical columns are
    // untouched — the stdout goldens pin that). The search/accuracy grids
    // (ablation-search, fig1b, fig4) kept their hashes.
    static const std::map<std::string, std::string> hashes = {
        {"ablation-deadline-policy", "0xb2546bb06660bd11"},
        {"ablation-runtime", "0x32fb9c2848af4aca"},
        {"ablation-search", "0x00ffc400f9c5e956"},
        {"ablation-storage-deadline", "0x9f7e256299ba8392"},
        {"ablation-trace", "0x7f87d0d6092d9db5"},
        {"fig1b-exit-accuracy", "0x56866c6ed17bfa85"},
        {"fig4-compression-policy", "0x90692be3ba2607dd"},
        // fig5-iepmj and latency-table re-pinned when the checkpointed
        // baselines became unit plans on the one simulator path
        // (docs/recovery.md, "Baselines as unit plans").
        {"fig5-iepmj", "0x14d5d69ebaa593ee"},
        {"fig6-flops", "0xed000779c70c82d2"},
        {"fig7a-runtime-learning", "0x877bc05baf7ab07e"},
        {"fig7b-exit-distribution", "0x3a899065cc64f99f"},
        {"harvester-ablation", "0xc141e5c4d3cd46a1"},
        // latency-table's quick grid coincides with fig5-iepmj's, so the
        // aggregate CSVs (and hashes) are identical by construction.
        {"latency-table", "0x14d5d69ebaa593ee"},
        {"recovery-ablation", "0x26beb06604f93440"},
        {"traffic-ablation", "0x2ac4de37c001c798"},
    };
    return hashes;
}

TEST(KernelGoldens, ScalarDispatchReproducesEveryQuickGoldenByteExact) {
    nn::kernels::force_backend(Backend::kScalar);
    for (const auto& [name, expected] : expected_hashes()) {
        EXPECT_EQ(quick_aggregate_hash(name), expected) << name;
    }
    nn::kernels::clear_backend_override();
}

TEST(KernelGoldens, EveryRegisteredExperimentIsPinned) {
    for (const std::string& name : exp::experiment_names()) {
        EXPECT_EQ(expected_hashes().count(name), 1u)
            << "experiment '" << name
            << "' has no golden hash in test_kernels_dispatch.cpp";
    }
}

/// The sweep pipeline drives the analytic oracle models, not the float NN
/// kernels, so the backend must be unobservable in sweep output: the AVX2
/// path has to produce the same bytes as the pinned scalar goldens.
TEST(KernelGoldens, Avx2DispatchMatchesScalarGolden) {
    if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
    nn::kernels::force_backend(Backend::kAvx2);
    EXPECT_EQ(quick_aggregate_hash("fig5-iepmj"),
              expected_hashes().at("fig5-iepmj"));
    nn::kernels::clear_backend_override();
}

}  // namespace
