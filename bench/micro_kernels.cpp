// Microbenchmarks (google-benchmark): the NN kernels of the DDPG
// compression search.
//
// All benches route through the dispatched kernel layer
// (src/nn/kernels/), so items/sec is MACs/sec for the *active* backend.
// Pass `--kernel scalar|avx2` (before any --benchmark_* flag) to pin the
// backend; the default is the IMX_KERNEL / CPU-detection dispatch. A
// per-kernel invocation/MAC counter report prints after the run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/kernels/kernels.hpp"
#include "nn/train.hpp"
#include "util/rng.hpp"

namespace {

using namespace imx;

nn::Tensor random_activations(nn::Shape shape, std::uint64_t seed) {
    util::Rng rng(seed);
    nn::Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    return t;
}

// Forward kernels at the DDPG shapes. Args are {out, in, batch}: a
// 64-transition minibatch through the actor/critic layers (12/13/14 -> 64,
// 64 -> 64, 64 -> 1/2), and DdpgAgent::act's batch of one through the
// actor (12 -> 64 -> 64 -> 1/2). items/sec is MACs/sec.
constexpr int kDdpgBatch = 64;

void ddpg_shapes(benchmark::internal::Benchmark* b) {
    for (const auto& [out, in] : {std::pair{64, 12}, std::pair{64, 13},
                                  std::pair{64, 14}, std::pair{64, 64},
                                  std::pair{1, 64}, std::pair{2, 64}}) {
        b->Args({out, in, kDdpgBatch});
    }
    for (const auto& [out, in] : {std::pair{64, 12}, std::pair{64, 64},
                                  std::pair{1, 64}, std::pair{2, 64}}) {
        b->Args({out, in, 1});
    }
}

void BM_GemmBatch(benchmark::State& state) {
    const int out = static_cast<int>(state.range(0));
    const int in = static_cast<int>(state.range(1));
    const int batch = static_cast<int>(state.range(2));
    const nn::Tensor w = random_activations({out, in}, 15);
    const nn::Tensor bias = random_activations({out}, 16);
    const nn::Tensor x = random_activations({batch, in}, 17);
    nn::Tensor y({batch, out});
    for (auto _ : state) {
        nn::kernels::gemm_batch(batch, out, in, w.data(), x.data(),
                                bias.data(), y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * batch * out * in);
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_GemmBatch)->Apply(ddpg_shapes);

// The backward calls of a DDPG train step. Args are {out, in, first}:
// first < 0 computes grad_w and grad_b only (a first layer's parameter
// gradients); otherwise grad_x's columns [first, in), plus grad_w and
// grad_b when first == 0 (a hidden layer) and alone when first > 0 (the
// critic's action columns in the actor update). items/sec is the MACs
// performed per second, zero-gradient skips not subtracted.
void backward_shapes(benchmark::internal::Benchmark* b) {
    for (const int in : {12, 13, 14}) b->Args({64, in, -1});
    b->Args({64, 13, 12});
    b->Args({64, 14, 12});
    b->Args({64, 64, 0});
}

void BM_GemmBackwardBatch(benchmark::State& state) {
    const int out = static_cast<int>(state.range(0));
    const int in = static_cast<int>(state.range(1));
    const int first = static_cast<int>(state.range(2));
    const nn::Tensor w = random_activations({out, in}, 18);
    const nn::Tensor x = random_activations({kDdpgBatch, in}, 19);
    // Half the output gradients zero, as behind a ReLU.
    nn::Tensor grad_y = random_activations({kDdpgBatch, out}, 20);
    for (std::int64_t i = 0; i < grad_y.numel(); ++i) {
        if (grad_y[i] < 0.5F) grad_y[i] = 0.0F;
    }
    nn::Tensor grad_x({kDdpgBatch, in});
    nn::Tensor grad_w({out, in});
    nn::Tensor grad_b({out});
    const bool params = first <= 0;
    for (auto _ : state) {
        nn::kernels::gemm_backward_batch(
            kDdpgBatch, out, in, w.data(), x.data(), grad_y.data(),
            first >= 0 ? grad_x.data() : nullptr,
            params ? grad_w.data() : nullptr, params ? grad_b.data() : nullptr,
            std::max(first, 0));
        benchmark::DoNotOptimize(grad_w.data());
        benchmark::DoNotOptimize(grad_x.data());
    }
    const std::int64_t columns =
        (params ? in : 0) + (first >= 0 ? in - first : 0);
    state.SetItemsProcessed(state.iterations() * kDdpgBatch * out * columns);
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_GemmBackwardBatch)->Apply(backward_shapes);

// One Adam::step over the DDPG critic's parameters (14 -> 64 -> 64 -> 1),
// past step 165 where the bias correction of m is exactly 1. Arg: the
// percentage of lanes whose gradient has been zero long enough for the
// first moment to stick in the subnormal range (k * 2^-149, k <= 4), as
// behind a dead ReLU unit. items/sec is lanes/sec.
void BM_AdamStep(benchmark::State& state) {
    const double stuck_share = static_cast<double>(state.range(0)) / 100.0;
    std::vector<nn::Tensor> params;
    std::vector<nn::Tensor> grads;
    for (const auto& [out, in] :
         {std::pair{64, 14}, std::pair{64, 64}, std::pair{1, 64}}) {
        params.push_back(random_activations({out, in}, 21));
        params.push_back(random_activations({out}, 22));
    }
    util::Rng rng(23);
    std::int64_t lanes = 0;
    for (const nn::Tensor& p : params) {
        nn::Tensor g = random_activations(p.shape(), 24);
        for (std::int64_t i = 0; i < g.numel(); ++i) g[i] -= 0.5F;
        grads.push_back(std::move(g));
        lanes += p.numel();
    }
    std::vector<nn::Tensor*> param_ptrs;
    std::vector<nn::Tensor*> grad_ptrs;
    for (std::size_t i = 0; i < params.size(); ++i) {
        param_ptrs.push_back(&params[i]);
        grad_ptrs.push_back(&grads[i]);
    }
    nn::Adam adam(1e-3F);
    for (int t = 0; t < 50; ++t) adam.step(param_ptrs, grad_ptrs, 1.0F / 64);
    // Zero the stuck lanes' gradients and let their first moments decay
    // from ~1e-3 to the bottom of the subnormal range.
    for (nn::Tensor& g : grads) {
        for (std::int64_t i = 0; i < g.numel(); ++i) {
            if (rng.uniform() < stuck_share) g[i] = 0.0F;
        }
    }
    for (int t = 0; t < 1200; ++t) adam.step(param_ptrs, grad_ptrs, 1.0F / 64);
    for (auto _ : state) {
        adam.step(param_ptrs, grad_ptrs, 1.0F / 64);
        benchmark::DoNotOptimize(params.front().data());
    }
    state.SetItemsProcessed(state.iterations() * lanes);
    state.SetLabel("lanes/s");
}
BENCHMARK(BM_AdamStep)->Arg(0)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
    // Consume --kernel <scalar|avx2> (or --kernel=<...>) before handing the
    // rest to google-benchmark, which rejects flags it does not know.
    std::vector<char*> passthrough;
    passthrough.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
            nn::kernels::force_backend(nn::kernels::parse_backend(argv[++i]));
        } else if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
            nn::kernels::force_backend(nn::kernels::parse_backend(argv[i] + 9));
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
        return 1;
    }
    std::printf("active kernel backend: %s\n",
                to_string(nn::kernels::active_backend()));
    nn::kernels::counters_reset();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    std::printf("%s",
                nn::kernels::counters_report(nn::kernels::counters_snapshot())
                    .c_str());
    return 0;
}
