// Microbenchmarks (google-benchmark): NN kernels and quantization, the
// per-inference compute the MCU model abstracts.
//
// All layer benches route through the dispatched kernel layer
// (src/nn/kernels/), so items/sec is MACs/sec for the *active* backend.
// Pass `--kernel scalar|avx2` (before any --benchmark_* flag) to pin the
// backend; the default is the IMX_KERNEL / CPU-detection dispatch. A
// per-kernel invocation/MAC counter report prints after the run.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/multi_exit_spec.hpp"
#include "nn/conv2d.hpp"
#include "nn/exit_graph.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/linear.hpp"
#include "nn/quantize.hpp"
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

void BM_Conv2dForward(benchmark::State& state) {
    util::Rng rng(1);
    const int channels = static_cast<int>(state.range(0));
    nn::Conv2d conv(channels, channels, 3, 1, "c", rng);
    const nn::Tensor x = random_activations({channels, 16, 16}, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(conv.forward(x));
    }
    state.SetItemsProcessed(state.iterations() * conv.macs(x.shape()));
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_Conv2dForward)->Arg(4)->Arg(8)->Arg(16);

void BM_Conv2dBackward(benchmark::State& state) {
    util::Rng rng(3);
    nn::Conv2d conv(8, 8, 3, 1, "c", rng);
    const nn::Tensor x = random_activations({8, 16, 16}, 4);
    const nn::Tensor y = conv.forward(x);
    const nn::Tensor g = random_activations(y.shape(), 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(conv.backward(g));
    }
    // Backward computes grad_input and grad_weight: ~2x the forward MACs.
    state.SetItemsProcessed(state.iterations() * 2 * conv.macs(x.shape()));
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_Conv2dBackward);

void BM_LinearForward(benchmark::State& state) {
    util::Rng rng(6);
    const int features = static_cast<int>(state.range(0));
    nn::Linear fc(features, features, "fc", rng);
    const nn::Tensor x = random_activations({features}, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fc.forward(x));
    }
    state.SetItemsProcessed(state.iterations() * fc.macs(x.shape()));
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_LinearForward)->Arg(64)->Arg(256);

// Minibatch kernels at the DDPG shapes: a 64-transition minibatch through
// the actor/critic layers (12/13/14 -> 64, 64 -> 64, 64 -> 1/2). Args are
// {out, in}; items/sec is MACs/sec.
constexpr int kDdpgBatch = 64;

void ddpg_shapes(benchmark::internal::Benchmark* b) {
    for (const auto& [out, in] : {std::pair{64, 12}, std::pair{64, 13},
                                  std::pair{64, 14}, std::pair{64, 64},
                                  std::pair{1, 64}, std::pair{2, 64}}) {
        b->Args({out, in});
    }
}

void BM_GemmBatch(benchmark::State& state) {
    const int out = static_cast<int>(state.range(0));
    const int in = static_cast<int>(state.range(1));
    const nn::Tensor w = random_activations({out, in}, 15);
    const nn::Tensor bias = random_activations({out}, 16);
    const nn::Tensor x = random_activations({kDdpgBatch, in}, 17);
    nn::Tensor y({kDdpgBatch, out});
    for (auto _ : state) {
        nn::kernels::gemm_batch(kDdpgBatch, out, in, w.data(), x.data(),
                                bias.data(), y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * kDdpgBatch * out * in);
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_GemmBatch)->Apply(ddpg_shapes);

void BM_GemmBackwardBatch(benchmark::State& state) {
    const int out = static_cast<int>(state.range(0));
    const int in = static_cast<int>(state.range(1));
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
    for (auto _ : state) {
        nn::kernels::gemm_backward_batch(kDdpgBatch, out, in, w.data(),
                                         x.data(), grad_y.data(),
                                         grad_x.data(), grad_w.data(),
                                         grad_b.data());
        benchmark::DoNotOptimize(grad_w.data());
    }
    // grad_x and grad_w: 2x the forward MACs (before the zero skips).
    state.SetItemsProcessed(state.iterations() * 2 * kDdpgBatch * out * in);
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_GemmBackwardBatch)->Apply(ddpg_shapes);

void BM_PaperGraphFullForward(benchmark::State& state) {
    util::Rng rng(8);
    nn::ExitGraph graph = core::build_paper_graph(rng);
    const nn::Tensor x = random_activations({3, 32, 32}, 9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph.forward_all(x));
    }
    state.SetItemsProcessed(state.iterations() * graph.total_macs());
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_PaperGraphFullForward);

void BM_PaperGraphExit1Only(benchmark::State& state) {
    util::Rng rng(10);
    nn::ExitGraph graph = core::build_paper_graph(rng);
    const nn::Tensor x = random_activations({3, 32, 32}, 11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph.forward_to_exit(x, 0));
    }
    state.SetItemsProcessed(state.iterations() * graph.exit_macs(0));
    state.SetLabel(std::string("macs/s, kernel=") +
                   to_string(nn::kernels::active_backend()));
}
BENCHMARK(BM_PaperGraphExit1Only);

void BM_QuantizeWeights(benchmark::State& state) {
    const int bits = static_cast<int>(state.range(0));
    util::Rng rng(12);
    nn::Tensor w({256, 128});
    for (std::int64_t i = 0; i < w.numel(); ++i) {
        w[i] = static_cast<float>(rng.normal());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(nn::quantize_weights(w, bits));
    }
    state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_QuantizeWeights)->Arg(1)->Arg(4)->Arg(8);

void BM_IntConvReference(benchmark::State& state) {
    util::Rng rng(13);
    nn::Conv2d conv(8, 8, 3, 1, "c", rng);
    const nn::Tensor x = random_activations({8, 16, 16}, 14);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::int_conv2d_reference(x, conv.weight(), conv.bias(), 1, 8, 8));
    }
}
BENCHMARK(BM_IntConvReference);

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
