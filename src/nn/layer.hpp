// Layer interface: single-sample forward/backward with cached activations.
//
// The per-sample calls are the reference the minibatch path is held to
// (PerSampleDdpg in tests/test_ddpg_batch.cpp):
// rl::Mlp::forward_batch / backward_batch run whole minibatches over the
// Linear layers' weights (through kernels::gemm_batch /
// gemm_backward_batch), bitwise equal to these per-sample calls in sample
// order. The agents themselves only run the batched path; DdpgAgent::act is
// a forward_batch of one sample.
#ifndef IMX_NN_LAYER_HPP
#define IMX_NN_LAYER_HPP

#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace imx::nn {

/// Abstract differentiable layer.
class Layer {
public:
    virtual ~Layer() = default;
    Layer() = default;
    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    /// Compute the output for one sample; caches what backward() needs.
    virtual Tensor forward(const Tensor& input) = 0;

    /// Propagate the loss gradient; accumulates parameter gradients and
    /// returns the gradient w.r.t. the forward input. Must be called after
    /// forward() on the same sample.
    virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Trainable parameters / matching gradient buffers (empty by default).
    virtual std::vector<Tensor*> parameters() { return {}; }
    virtual std::vector<Tensor*> gradients() { return {}; }

    /// Reset accumulated gradients to zero.
    void zero_grad() {
        for (Tensor* g : gradients()) g->fill(0.0F);
    }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace imx::nn

#endif  // IMX_NN_LAYER_HPP
